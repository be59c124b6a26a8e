"""Independent finite-difference reference solver on a truncated domain.

A deliberately different discretization family from the spectral solver:
cell-centered finite volumes on [v_min, v_threshold] with first-order
upwinded drift, centered diffusion and explicit Euler stepping.  The firing
rate is the discrete diffusive outflux through the threshold edge and is
re-injected at the reset edge, so total (density + refractory) mass is
conserved to rounding by telescoping.

Agreement between this solver and the spectral one is therefore evidence,
not tautology.  For reference duty the plain first-order scheme needs very
fine grids; :func:`fdm_reference` optionally Richardson-extrapolates a
(h, h/2) pair, which removes the leading O(h) error while staying inside
the same discretization family.

The two-population model keeps both populations' cells in one (2, n)
array, rows E, I, and advances them with one stencil call; it takes its
delayed rates, lagged [target][source], from :mod:`twopop`.  A reference
run's step divides t_final and every nonzero delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import Domain
from .errors import ConfigurationError, SingularFiringRateError
from .integrate import DEFAULT_BLOWUP_THRESHOLD, ONE_POPULATION, TWO_POPULATIONS, RunRecord, integrate, whole_steps
from .norms import norm_grid
from .onepop import OnePopParams
from .twopop import DELAY_NAMES, DIFFUSION_CONSTANT, TwoPopParams, TwoPopState, coefficients, delayed_rates, recovery

DEFAULT_V_MIN = -6.0
DEFAULT_H = 1.0 / 128.0
# step counts :func:`reference_timestep` tries, from the stability bound down
_STEP_SEARCH = 100_000


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
        if v_min >= domain.v_reset:
            raise ConfigurationError(f"v_min={v_min} must lie below the reset voltage")
        n_f = (domain.v_threshold - v_min) / h
        n_r = (domain.v_reset - v_min) / h
        if abs(n_f - round(n_f)) > 1e-9 or abs(n_r - round(n_r)) > 1e-9:
            raise ConfigurationError(
                f"grid spacing h={h} does not align v_reset and v_threshold with cell edges"
            )
        return cls(domain=domain, v_min=v_min, h=h, n_cells=round(n_f), i_reset=round(n_r))

    @property
    def centers(self) -> np.ndarray:
        return self.v_min + (np.arange(self.n_cells) + 0.5) * self.h

    @cached_property
    def inner_edges(self) -> np.ndarray:
        return self.v_min + np.arange(1, self.n_cells) * self.h


def cfl_timestep(grid: FdmGrid, diffusion: float, rate_cap: float = 0.0, b: float = 0.0) -> float:
    """Largest stable explicit step dt <= h^2 / (2 a + |u|_max h)."""
    u_max = max(abs(grid.v_min), abs(grid.domain.v_threshold)) + abs(b) * rate_cap
    return grid.h * grid.h / (2.0 * diffusion + u_max * grid.h)


def fdm_rate(p: np.ndarray, params: OnePopParams, grid: FdmGrid) -> float:
    """Firing rate of the cell values from the discrete threshold slope:
    N = a(N) p_last / h."""
    g = p[-1] / grid.h
    denom = 1.0 - params.a1 * g
    if abs(denom) < 1e-12:
        raise SingularFiringRateError("discrete firing-rate relation singular")
    return params.a0 * g / denom


def _advance(p: np.ndarray, grid: FdmGrid, dt: float, drift_offset, diffusion, inflow):
    """One explicit step of the cell values with drift -v + ``drift_offset``,
    the given diffusion, and ``inflow`` re-injected at the reset edge.

    ``p`` holds one population's cells with scalar coefficients, or one row
    per population with the coefficients as (2, 1) columns."""
    h = grid.h
    u = -grid.inner_edges + drift_offset
    left, right = p[..., :-1], p[..., 1:]
    flux = np.empty(p.shape[:-1] + (grid.n_cells + 1,))
    flux[..., 0] = 0.0  # zero-flux wall at v_min
    flux[..., 1:-1] = np.where(u >= 0.0, u * left, u * right) - diffusion * (right - left) / h
    # threshold edge: absorbing value p(V_F)=0 kills the drift flux there,
    # the diffusive outflux is exactly the firing rate
    flux[..., -1:] = diffusion * p[..., -1:] / h

    p_new = p - (dt / h) * (flux[..., 1:] - flux[..., :-1])
    p_new[..., grid.i_reset:grid.i_reset + 1] += inflow * dt / h
    return p_new


def fdm_step(p: np.ndarray, rate: float, params: OnePopParams, grid: FdmGrid, dt: float):
    """One explicit step from cell values ``p`` whose firing rate is
    ``rate``; returns (new cell values, their firing rate)."""
    p_new = _advance(p, grid, dt, params.b * rate, params.a0 + params.a1 * rate, rate)
    return p_new, fdm_rate(p_new, params, grid)


def _initial_cells(p0, grid: FdmGrid) -> np.ndarray:
    """Cell values of the initial density, normalized to exact unit mass."""
    p = np.asarray(p0(grid.centers), dtype=float)
    total = float(np.sum(p) * grid.h)
    if total <= 0:
        raise ConfigurationError("initial density has nonpositive mass on the grid")
    return p / total


def _to_norm_grid(p: np.ndarray, grid: FdmGrid, out_grid: np.ndarray) -> np.ndarray:
    """Interpolate cell-center values onto the comparison grid (zero outside,
    absorbing value at the threshold)."""
    xs = np.concatenate(([grid.v_min], grid.centers, [grid.domain.v_threshold]))
    ys = np.concatenate(([p[0]], p, [0.0]))
    return np.interp(out_grid, xs, ys, left=0.0, right=0.0)


def _stable_timestep(grid: FdmGrid, params, rate_cap: float) -> float:
    """:func:`cfl_timestep` for either model while its rates stay below
    ``rate_cap``."""
    if isinstance(params, TwoPopParams):
        # the largest drift offset either population can see
        offset = (
            max(abs(b[0]) + abs(b[1]) for b in params.tables["b"]) * rate_cap
            + abs(params.drive_shift)
        )
        return cfl_timestep(grid, params.diffusion_constant, 1.0, offset)
    return cfl_timestep(grid, params.a0 + params.a1 * rate_cap, rate_cap, params.b)


def reference_timestep(grid: FdmGrid, params, t_final: float) -> float:
    """Largest step at most 0.9 times the stability bound that divides
    t_final and, for two populations (TwoPopParams), every nonzero delay;
    the search looks at ``_STEP_SEARCH`` step counts.

    A nonzero delay must be, to rounding (1e-12 relative), a fraction p/q
    of t_final with q below the search's last step count: only the step
    counts that q divides hold it exactly.  Any other delay is rejected,
    because it still comes within the 1e-9 of :func:`whole_steps` at some
    step count, which can lie far past the stability bound.

    One population allows for mild rate-driven growth of drift and diffusion
    (rates up to 1); two populations bound the external drive only.
    """
    two = isinstance(params, TwoPopParams)
    bound = 0.9 * _stable_timestep(grid, params, 0.0 if two else 1.0)
    first = math.ceil(t_final / bound)
    delays = {name: d for name in DELAY_NAMES if (d := getattr(params, name)) > 0} if two else {}
    for name, delay in delays.items():
        ratio = delay / t_final
        if not math.isclose(Fraction(ratio).limit_denominator(first + _STEP_SEARCH - 1), ratio, rel_tol=1e-12):
            raise ConfigurationError(
                f"no reference timestep below {bound:.6g} divides t_final={t_final} and {name}={delay}"
            )
    for n_steps in range(first, first + _STEP_SEARCH):
        if all(whole_steps(d, t_final / n_steps) is not None for d in delays.values()):
            return t_final / n_steps
    raise ConfigurationError(f"no reference timestep below {bound:.6g} divides t_final={t_final} and the delays")


class _CellState(NamedTuple):
    p: np.ndarray
    step_index: int
    t: float
    rate: float


class _FdmOnePop:
    """The finite-volume single-population model as a :class:`Stepper`."""

    layout = ONE_POPULATION

    def __init__(self, p0, params: OnePopParams, grid: FdmGrid, dt: float):
        self.p0, self.params, self.grid, self.dt = p0, params, grid, dt
        self.out_grid = norm_grid(grid.domain)

    def start(self, rates) -> _CellState:
        p = _initial_cells(self.p0, self.grid)
        return _CellState(p, 0, 0.0, fdm_rate(p, self.params, self.grid))

    def step(self, state: _CellState) -> _CellState:
        p, rate = fdm_step(state.p, state.rate, self.params, self.grid, self.dt)
        n = state.step_index + 1
        return _CellState(p, n, n * self.dt, rate)

    def observe(self, state: _CellState):
        return state.rate, float(state.p.sum() * self.grid.h)

    def densities(self, state: _CellState) -> np.ndarray:
        return _to_norm_grid(state.p, self.grid, self.out_grid)


class _FdmTwoPop:
    """The finite-volume two-population model (constant diffusion) as a
    :class:`Stepper`; the state's cell values are one (2, n) array, rows E,
    I, and the reset inflow is the recovery rate M_alpha."""

    layout = TWO_POPULATIONS

    def __init__(self, p0, params: TwoPopParams, grid: FdmGrid, dt: float):
        self.p0, self.params, self.grid, self.dt = p0, params, grid, dt
        self.out_grid = norm_grid(grid.domain)

    def _rate(self, p: np.ndarray) -> list:
        return (self.params.diffusion_constant * p[:, -1] / self.grid.h).tolist()

    def start(self, rates) -> TwoPopState:
        self.lags = self.params.delay_lags(self.dt)
        p = np.array([_initial_cells(p0, self.grid) for p0 in self.p0])
        return TwoPopState(p, (0.0, 0.0), 0.0, 0, self._rate(p), rates)

    def step(self, state: TwoPopState) -> TwoPopState:
        inflow = recovery(state.r, state.rate, self.params)
        coeffs = (*coefficients(self.params, delayed_rates(state, self.lags)), inflow)
        p = _advance(state.u, self.grid, self.dt, *np.array(coeffs)[..., None])
        n = state.step_index + 1
        r = state.refractory_after(inflow, self.dt)
        return TwoPopState(p, r, n * self.dt, n, self._rate(p), state.history)

    def observe(self, state: TwoPopState):
        return (*state.rate, *(state.u.sum(axis=1) * self.grid.h).tolist(), *state.r)

    def densities(self, state: TwoPopState) -> np.ndarray:
        return np.array([_to_norm_grid(p, self.grid, self.out_grid) for p in state.u])


def fdm_solve(
    p0,
    params: OnePopParams,
    grid: FdmGrid,
    dt: float,
    t_final: float,
    *,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Explicit run recording (t, N, mass) every step, same record shape as
    the spectral solver."""
    if dt > _stable_timestep(grid, params, 0.0):
        raise ConfigurationError(
            f"dt={dt} violates the explicit stability bound for h={grid.h}"
        )
    return integrate(_FdmOnePop(p0, params, grid, dt), dt, t_final, snapshot_times, blowup_threshold)


def fdm_solve_twopop(
    p0_e,
    p0_i,
    params: TwoPopParams,
    grid: FdmGrid,
    dt: float,
    t_final: float,
    *,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Two-population variant with the same stencil per population, from
    empty refractory states.

    Restricted to constant diffusion (the configuration of every experiment
    that uses this oracle); the reset inflow is the recovery rate M_alpha
    and the refractory masses follow the forward-Euler balance.
    """
    if params.diffusion_mode != DIFFUSION_CONSTANT:
        raise ConfigurationError("the finite-difference oracle supports constant diffusion only")
    if dt > _stable_timestep(grid, params, 0.0):
        raise ConfigurationError(f"dt={dt} violates the explicit stability bound for h={grid.h}")
    return integrate(_FdmTwoPop((p0_e, p0_i), params, grid, dt), dt, t_final, snapshot_times, blowup_threshold)


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
    takes :func:`reference_timestep`.
    """
    two = isinstance(params, TwoPopParams)

    def run(h_run: float) -> np.ndarray:
        grid = FdmGrid.build(domain, v_min=v_min, h=h_run)
        dt = reference_timestep(grid, params, t_final)
        if two:
            rec = fdm_solve_twopop(*p0, params, grid, dt, t_final, snapshot_times=(t_final,))
        else:
            rec = fdm_solve(p0, params, grid, dt, t_final, snapshot_times=(t_final,))
        return rec.final_density(f"reference run at h={h_run}")

    coarse = run(h)
    if not richardson:
        return coarse
    fine = run(0.5 * h)
    return 2.0 * fine - coarse
