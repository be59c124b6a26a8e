"""Reference-speed timing: a fixed calibration kernel timed beside each run.

On a core shared with other tenants the same code runs at full speed or at
about 60% of it, and the mix shifts over minutes, so a median of wall times
drifts by 20-30% between windows.  The benchmark therefore times this
kernel immediately before and after every timed call and reports the call's
wall time scaled to the speed at which the kernel takes ``REF_KERNEL_S``::

    ref_s = wall_s * REF_KERNEL_S / mean(kernel_before_s, kernel_after_s)

The kernel mixes, in about equal parts, the kinds of work the solvers do:
small dense solves, elementwise numpy on a few thousand and on ~10^5 values,
many numpy calls on tiny arrays, and a plain interpreter loop.  Each of these
slows down by a different factor when the core is shared; their sum tracks
the workloads better than any one of them.  The kernel is fixed: it is part
of the benchmark, not of the program, so a change to the program moves
``ref_s`` exactly as it moves the wall time at a steady speed.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an uncontended core of the reference host (Intel Xeon,
# 2.1 GHz, numpy 2.4 with scipy-openblas 0.3.31); only a unit conversion
REF_KERNEL_S = 0.021

_rng = np.random.default_rng(20241213)
_A = _rng.standard_normal((32, 32)) + 32.0 * np.eye(32)
_B = _rng.standard_normal(32)
_X_SMALL = _rng.standard_normal(4096)
_X_LARGE = _rng.standard_normal(1 << 17)


def kernel_s() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(300):
        np.linalg.solve(_A, _B)
    for _ in range(300):
        (np.exp(-_X_SMALL * _X_SMALL) * 0.5 + _X_SMALL).sum()
    for _ in range(4):
        (np.exp(-_X_LARGE * _X_LARGE) * 0.5 + _X_LARGE).sum()
    y = _X_SMALL[:64]
    for _ in range(3000):
        y = y * 0.999 + 0.001
    acc = 0.0
    for i in range(60000):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def timed(fn, *args, **kwargs):
    """Call ``fn`` between two kernel passes.

    Returns ``(result, wall_s, kernel_s)`` with ``kernel_s`` the mean of
    the two passes."""
    k0 = kernel_s()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    k1 = kernel_s()
    return result, wall, 0.5 * (k0 + k1)


def to_ref(wall_s: float, kernel: float) -> float:
    """``wall_s`` scaled to the reference speed."""
    return wall_s * REF_KERNEL_S / kernel
