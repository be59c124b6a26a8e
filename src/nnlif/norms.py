"""Error norms between densities from different discretizations.

Solutions are compared by resampling onto a fixed uniform grid of 2001
points spanning [v_reset - 8, v_threshold] and applying the trapezoid rule;
the grid is part of the library contract so reported errors are
reproducible.
"""

from __future__ import annotations

import numpy as np

NORM_GRID_POINTS = 2001
NORM_GRID_SPAN = 8.0


def norm_grid(domain) -> np.ndarray:
    return np.linspace(domain.v_reset - NORM_GRID_SPAN, domain.v_threshold, NORM_GRID_POINTS)


def l2_distance(pa: np.ndarray, pb: np.ndarray, grid: np.ndarray) -> float:
    diff = np.asarray(pa) - np.asarray(pb)
    return float(np.sqrt(np.trapezoid(diff * diff, grid)))


def linf_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(pa) - np.asarray(pb))))
