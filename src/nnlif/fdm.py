"""Independent finite-difference reference solver on a truncated domain.

A deliberately different discretization family from the spectral solver:
cell-centered finite volumes on [v_min, v_threshold] with first-order
upwinded drift, centered diffusion and explicit Euler stepping.  The firing
rate is the discrete diffusive outflux through the threshold edge and is
re-injected at the reset edge, so total (density + refractory) mass is
conserved to rounding by telescoping.

Agreement between this solver and the spectral one is therefore evidence,
not tautology: the two share the model, not the discretization.  For
reference duty the plain first-order scheme needs very fine grids;
:func:`fdm_reference` optionally Richardson-extrapolates a (h, h/2) pair,
which removes the leading O(h) error while staying inside the same
discretization family.

:class:`FdmGrid` is the space in which :func:`onepop.step` and
:func:`twopop.step_twopop` advance rows of cell values by one stencil,
:func:`fdm_step`; a row's threshold slope is -p_last / h.  One entry point,
:func:`fdm_solve`, and one stability rule, :func:`stable_timestep`, serve
both models; a reference step divides t_final and every nonzero delay, in
closed form (:func:`reference_timestep`), and :func:`reference_run` runs at it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .basis import Domain
from .errors import ConfigurationError, check_finite, check_positive
from .integrate import DEFAULT_BLOWUP_THRESHOLD, RunRecord, integrate
from .norms import norm_grid
from .onepop import _OnePop
from .twopop import DELAY_NAMES, DIFFUSION_CONSTANT, TwoPopParams, _TwoPop

DEFAULT_V_MIN = -6.0
DEFAULT_H = 1.0 / 128.0
# step counts past the stability bound's that :func:`reference_timestep` allows
_STEP_SEARCH = 100_000


def check_v_min(v_min: float, domain: Domain) -> None:
    """The bottom edge of a grid: finite and below the reset voltage."""
    check_finite("v_min", v_min)
    if not v_min < domain.v_reset:
        raise ConfigurationError(f"v_min must lie below domain.v_reset ({domain.v_reset}), got {v_min}")


@dataclass(frozen=True)
class FdmGrid:
    """Uniform cell grid on [v_min, v_threshold] with the reset and threshold
    voltages aligned to cell edges."""

    domain: Domain
    v_min: float
    h: float
    n_cells: int
    i_reset: int  # cell whose left edge is the reset voltage

    @classmethod
    def build(cls, domain: Domain, v_min: float = DEFAULT_V_MIN, h: float = DEFAULT_H) -> "FdmGrid":
        check_v_min(v_min, domain)
        check_positive("h", h)
        n_f = (domain.v_threshold - v_min) / h
        n_r = (domain.v_reset - v_min) / h
        if not math.isfinite(n_f) or abs(n_f - round(n_f)) > 1e-9 or abs(n_r - round(n_r)) > 1e-9:
            raise ConfigurationError(
                f"grid spacing h={h} does not align v_reset and v_threshold with cell edges"
            )
        if not 0 < round(n_r) < round(n_f):
            raise ConfigurationError(f"grid spacing h={h} leaves no cell on one side of the reset voltage")
        return cls(domain=domain, v_min=v_min, h=h, n_cells=round(n_f), i_reset=round(n_r))

    @property
    def centers(self) -> np.ndarray:
        return self.v_min + (np.arange(self.n_cells) + 0.5) * self.h

    @cached_property
    def inner_edges(self) -> np.ndarray:
        return self.v_min + np.arange(1, self.n_cells) * self.h

    @cached_property
    def out_grid(self) -> np.ndarray:
        return norm_grid(self.domain)

    def initial(self, p0) -> np.ndarray:
        """Cell values of the initial density, normalized to exact unit mass."""
        p = np.asarray(p0(self.centers), dtype=float)
        total = float(np.sum(p) * self.h)
        if not total > 0:  # NaN included
            raise ConfigurationError("initial density has nonpositive mass on the grid")
        return p / total

    def slope(self, p: np.ndarray) -> float:
        return -(float(p[-1]) / self.h)

    def mass(self, p: np.ndarray) -> float:
        return float(p.sum() * self.h)

    def readout(self, cells) -> list:
        """The (slope, mass) pair of each row of each cell of a batch."""
        return [[(self.slope(p), self.mass(p)) for p in rows] for rows in cells]

    def density(self, p: np.ndarray) -> np.ndarray:
        """Cell values on ``out_grid``: zero outside, absorbing at the threshold."""
        xs = np.concatenate(([self.v_min], self.centers, [self.domain.v_threshold]))
        ys = np.concatenate(([p[0]], p, [0.0]))
        return np.interp(self.out_grid, xs, ys, left=0.0, right=0.0)

    def advance(self, p: np.ndarray, dt: float, drift, diffusion, inflow, folded: bool) -> np.ndarray:
        """:func:`fdm_step`.  It re-injects the explicit ``inflow`` whether or
        not the spectral step would fold it, which keeps the mass exact."""
        return fdm_step(p, self, dt, drift, diffusion, inflow)

    def stack(self, rows) -> tuple:
        return tuple(rows)


def stable_timestep(grid: FdmGrid, params, rate_cap: float = 0.0) -> float:
    """Largest stable explicit step dt <= h^2 / (2 a + |u|_max h) of either
    model while its rates stay below ``rate_cap``: a bounds the diffusion
    and |u|_max the drift -v + offset over the grid.  Two populations need
    constant diffusion."""
    if isinstance(params, TwoPopParams):
        if params.diffusion_mode != DIFFUSION_CONSTANT:
            raise ConfigurationError("the finite-difference oracle supports constant diffusion only")
        diffusion = params.diffusion_constant
        # the largest drift offset either population can see
        offset = max(abs(b[0]) + abs(b[1]) for b in params.tables["b"]) * rate_cap + abs(params.drive_shift)
    else:
        diffusion, offset = params.diffusion(rate_cap), abs(params.b) * rate_cap
    u_max = max(abs(grid.v_min), abs(grid.domain.v_threshold)) + offset
    return grid.h * grid.h / (2.0 * diffusion + u_max * grid.h)


def fdm_step(p: np.ndarray, grid: FdmGrid, dt: float, drift_offset: float, diffusion: float,
             inflow: float) -> np.ndarray:
    """One explicit step of one population's cell values ``p`` with drift
    -v + ``drift_offset``, the given diffusion, and ``inflow`` re-injected
    at the reset edge; returns the new cell values.

    The step is in flux form, p - (dt/h)(F_right - F_left), computed as
    p - F_right + F_left with the edge fluxes F scaled by dt/h once.  The
    sum over cells telescopes to the boundary edges: the mass changes by dt
    times the inflow less dt times the threshold outflux, the rate."""
    h = grid.h
    u = drift_offset - grid.inner_edges
    # the drift -e + offset is >= 0 exactly on the edges e <= offset: those
    # take the upwind value from their left cell, the rest from their right
    k = grid.inner_edges.searchsorted(drift_offset, side="right")
    flux = np.empty(grid.n_cells + 1)
    flux[0] = 0.0  # zero-flux wall at v_min
    inner = flux[1:-1]
    np.multiply(u[:k], p[:k], out=inner[:k])
    np.multiply(u[k:], p[k + 1:], out=inner[k:])
    grad = np.subtract(p[1:], p[:-1])
    grad *= diffusion / h
    inner -= grad
    # threshold edge: absorbing value p(V_F)=0 kills the drift flux there,
    # the diffusive outflux is exactly the firing rate
    flux[-1] = diffusion * p[-1] / h
    flux *= dt / h

    p_new = np.subtract(p, flux[1:])
    p_new += flux[:-1]
    p_new[grid.i_reset] += inflow * dt / h
    return p_new


def reference_timestep(grid: FdmGrid, params, t_final: float) -> float:
    """Largest step at most 0.9 times the stability bound that divides
    t_final and, for two populations (TwoPopParams), every nonzero delay.

    A nonzero delay must be, to rounding (1e-12 relative), a fraction p/q
    of t_final with q below the bound's step count plus ``_STEP_SEARCH``.
    Only the counts that q divides hold it exactly, so the step count is the
    first multiple of the lcm of the q from the bound's, within
    ``_STEP_SEARCH`` of it.  Any other delay is rejected, though it comes
    within the 1e-9 of :func:`whole_steps` at some count far past the bound.

    One population allows for mild rate-driven growth of drift and diffusion
    (rates up to 1); two populations bound the external drive only.
    """
    two = isinstance(params, TwoPopParams)
    bound = 0.9 * stable_timestep(grid, params, 0.0 if two else 1.0)
    if not bound > 0 or not math.isfinite(t_final / bound):
        raise ConfigurationError(f"grid spacing h={grid.h} gives a stability bound {bound:.6g} with no step count")
    first = math.ceil(t_final / bound)
    delays = {name: d for name in DELAY_NAMES if (d := getattr(params, name)) > 0} if two else {}
    lattice = 1
    for name, delay in delays.items():
        ratio = delay / t_final
        fraction = Fraction(ratio).limit_denominator(first + _STEP_SEARCH - 1)
        if not math.isclose(fraction, ratio, rel_tol=1e-12):
            raise ConfigurationError(
                f"no reference timestep below {bound:.6g} divides t_final={t_final} and {name}={delay}"
            )
        lattice = math.lcm(lattice, fraction.denominator)
    n_steps = -(-first // lattice) * lattice
    if n_steps >= first + _STEP_SEARCH:
        raise ConfigurationError(f"no reference timestep below {bound:.6g} divides t_final={t_final} and the delays")
    return t_final / n_steps


def fdm_solve(
    p0,
    params,
    grid: FdmGrid,
    dt: float,
    t_final: float,
    *,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Explicit run recording every step, same record shape as the spectral
    solvers.

    ``p0`` and ``params`` are one density callable and OnePopParams, or an
    (E, I) pair of callables and TwoPopParams.  Two populations start from
    empty refractory states and need constant diffusion (the configuration
    of every experiment that uses this oracle); their refractory masses
    follow the forward-Euler balance.
    """
    check_positive("dt", dt)
    if dt > stable_timestep(grid, params):
        raise ConfigurationError(f"dt={dt} violates the explicit stability bound for h={grid.h}")
    stepper = (_TwoPop if isinstance(params, TwoPopParams) else _OnePop)(p0, params, grid, dt)
    return integrate([stepper], dt, t_final, snapshot_times, blowup_threshold)[0]


def reference_run(p0, params, domain: Domain, t_final: float, h: float = DEFAULT_H, v_min: float = DEFAULT_V_MIN,
                  blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD) -> RunRecord:
    """:func:`fdm_solve` on the grid of spacing ``h`` from ``v_min`` at its
    :func:`reference_timestep`, with t_final as its one snapshot time."""
    grid = FdmGrid.build(domain, v_min=v_min, h=h)
    return fdm_solve(p0, params, grid, reference_timestep(grid, params, t_final), t_final,
                     snapshot_times=(t_final,), blowup_threshold=blowup_threshold)


def fdm_reference(
    p0,
    params,
    domain: Domain,
    t_final: float,
    h: float = DEFAULT_H,
    v_min: float = DEFAULT_V_MIN,
    richardson: bool = True,
) -> np.ndarray:
    """Reference density at t_final on the comparison grid.

    ``p0`` and ``params`` are one density callable and OnePopParams, or an
    (E, I) pair of callables and TwoPopParams; the latter gives a (2, n)
    array whose rows are the E and I densities.  With ``richardson`` the
    leading O(h) upwind error is cancelled from a (h, h/2) pair; each run
    is a :func:`reference_run`.
    """

    def run(h_run: float) -> np.ndarray:
        return reference_run(p0, params, domain, t_final, h_run, v_min).final_density(f"reference run at h={h_run}")

    coarse = run(h)
    return 2.0 * run(0.5 * h) - coarse if richardson else coarse
