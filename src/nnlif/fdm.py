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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .basis import Domain
from .errors import ConfigurationError, NnlifError, SingularFiringRateError
from .integrate import DEFAULT_BLOWUP_THRESHOLD, STATUS_COMPLETED, integrate
from .norms import norm_grid
from .onepop import DensitySnapshot, OnePopParams, RunRecord
from .twopop import (
    DIFFUSION_CONSTANT,
    TwoPopParams,
    TwoPopRunRecord,
    TwoPopState,
    coefficients,
    delayed_rates,
    recovery,
)

DEFAULT_V_MIN = -6.0
DEFAULT_H = 1.0 / 128.0


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


def _advance(p: np.ndarray, grid: FdmGrid, dt: float, drift_offset: float, diffusion: float, inflow: float):
    """One explicit step of the cell values with drift -v + ``drift_offset``,
    the given diffusion, and ``inflow`` re-injected at the reset edge."""
    h = grid.h
    u = -grid.inner_edges + drift_offset
    flux = np.empty(grid.n_cells + 1)
    flux[0] = 0.0  # zero-flux wall at v_min
    flux[1:-1] = np.where(u >= 0.0, u * p[:-1], u * p[1:]) - diffusion * np.diff(p) / h
    # threshold edge: absorbing value p(V_F)=0 kills the drift flux there,
    # the diffusive outflux is exactly the firing rate
    flux[-1] = diffusion * p[-1] / h

    p_new = p - (dt / h) * np.diff(flux)
    p_new[grid.i_reset] += inflow * dt / h
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
            max(abs(params.b_e_to_e) + abs(params.b_i_to_e), abs(params.b_e_to_i) + abs(params.b_i_to_i)) * rate_cap
            + abs(params.b_e_to_i - params.b_e_to_e) * params.nu_ext
        )
        return cfl_timestep(grid, params.diffusion_constant, 1.0, offset)
    return cfl_timestep(grid, params.a0 + params.a1 * rate_cap, rate_cap, params.b)


def reference_timestep(grid: FdmGrid, params, t_final: float) -> float:
    """Largest step below 0.9 times the stability bound that divides
    t_final, for one-population (OnePopParams) or two-population
    (TwoPopParams) reference runs.

    One population allows for mild rate-driven growth of drift and diffusion
    (rates up to 1); two populations bound the external drive only.
    """
    rate_cap = 0.0 if isinstance(params, TwoPopParams) else 1.0
    bound = 0.9 * _stable_timestep(grid, params, rate_cap)
    return t_final / math.ceil(t_final / bound)


class _CellState(NamedTuple):
    p: np.ndarray
    step_index: int
    t: float
    rate: float


class _FdmOnePop:
    """The finite-volume single-population model as a :class:`Stepper`."""

    populations = 1

    def __init__(self, p0, params: OnePopParams, grid: FdmGrid, dt: float):
        self.p0, self.params, self.grid, self.dt = p0, params, grid, dt

    def start(self, rates) -> _CellState:
        p = _initial_cells(self.p0, self.grid)
        return _CellState(p, 0, 0.0, fdm_rate(p, self.params, self.grid))

    def step(self, state: _CellState) -> _CellState:
        p, rate = fdm_step(state.p, state.rate, self.params, self.grid, self.dt)
        n = state.step_index + 1
        return _CellState(p, n, n * self.dt, rate)

    def observe(self, state: _CellState):
        return state.rate, float(state.p.sum() * self.grid.h)


class _FdmTwoPop:
    """The finite-volume two-population model (constant diffusion) as a
    :class:`Stepper`; the reset inflow is the recovery rate M_alpha."""

    populations = 2

    def __init__(self, p0_e, p0_i, params: TwoPopParams, grid: FdmGrid, dt: float):
        self.p0_e, self.p0_i, self.params, self.grid, self.dt = p0_e, p0_i, params, grid, dt

    def _rate(self, p: np.ndarray) -> float:
        return self.params.diffusion_constant * p[-1] / self.grid.h

    def start(self, rates) -> TwoPopState:
        self.lags = self.params.delay_lags(self.dt)
        p_e = _initial_cells(self.p0_e, self.grid)
        p_i = _initial_cells(self.p0_i, self.grid)
        return TwoPopState(
            p_e, p_i, 0.0, 0.0, 0.0, 0, self._rate(p_e), self._rate(p_i), *rates
        )

    def step(self, state: TwoPopState) -> TwoPopState:
        params, grid, dt = self.params, self.grid, self.dt
        delayed_for_e, delayed_for_i = delayed_rates(state, self.lags)
        v_e, a_e = coefficients(params, *delayed_for_e, "e")
        v_i, a_i = coefficients(params, *delayed_for_i, "i")
        m_e = recovery(state.r_e, state.rate_e, params, "e")
        m_i = recovery(state.r_i, state.rate_i, params, "i")
        p_e = _advance(state.u_e, grid, dt, v_e, a_e, m_e)
        p_i = _advance(state.u_i, grid, dt, v_i, a_i, m_i)
        n = state.step_index + 1
        return TwoPopState(
            p_e, p_i,
            state.r_e + dt * (state.rate_e - m_e),
            state.r_i + dt * (state.rate_i - m_i),
            n * dt, n, self._rate(p_e), self._rate(p_i),
            state.history_e, state.history_i,
        )

    def observe(self, state: TwoPopState):
        h = self.grid.h
        return (
            state.rate_e, state.rate_i,
            float(state.u_e.sum() * h), float(state.u_i.sum() * h),
            state.r_e, state.r_i,
        )


def fdm_solve(
    p0,
    params: OnePopParams,
    grid: FdmGrid,
    dt: float,
    t_final: float,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    cfl_rate_cap: float = 0.0,
) -> RunRecord:
    """Explicit run recording (t, N, mass) every step, same record shape as
    the spectral solver."""
    if dt > _stable_timestep(grid, params, cfl_rate_cap):
        raise ConfigurationError(
            f"dt={dt} violates the explicit stability bound for h={grid.h}"
        )
    run = integrate(_FdmOnePop(p0, params, grid, dt), dt, t_final, snapshot_times, blowup_threshold)
    out_grid = norm_grid(grid.domain)
    snapshots = [DensitySnapshot(t, out_grid, _to_norm_grid(st.p, grid, out_grid)) for t, st in run.snapshots]
    record = RunRecord.from_integration(run, dt, snapshots)
    record.final_density = _to_norm_grid(run.state.p, grid, out_grid)
    return record


def fdm_solve_twopop(
    p0_e,
    p0_i,
    params: TwoPopParams,
    grid: FdmGrid,
    dt: float,
    t_final: float,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    cfl_rate_cap: float = 0.0,
) -> TwoPopRunRecord:
    """Two-population variant with the same stencil per population, from
    empty refractory states.

    Restricted to constant diffusion (the configuration of every experiment
    that uses this oracle); the reset inflow is the recovery rate M_alpha
    and the refractory masses follow the forward-Euler balance.
    """
    if params.diffusion_mode != DIFFUSION_CONSTANT:
        raise ConfigurationError("the finite-difference oracle supports constant diffusion only")
    if dt > _stable_timestep(grid, params, cfl_rate_cap):
        raise ConfigurationError(f"dt={dt} violates the explicit stability bound for h={grid.h}")
    run = integrate(_FdmTwoPop(p0_e, p0_i, params, grid, dt), dt, t_final, (), blowup_threshold)
    out_grid = norm_grid(grid.domain)
    record = TwoPopRunRecord.from_integration(run, dt, [], [])
    record.final_density_e = _to_norm_grid(run.state.u_e, grid, out_grid)
    record.final_density_i = _to_norm_grid(run.state.u_i, grid, out_grid)
    return record


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
            rec = fdm_solve_twopop(*p0, params, grid, dt, t_final)
            final = np.array([rec.final_density_e, rec.final_density_i])
        else:
            rec = fdm_solve(p0, params, grid, dt, t_final)
            final = rec.final_density
        if rec.status != STATUS_COMPLETED:
            raise NnlifError(f"reference run at h={h_run} ended with status {rec.status}")
        return final

    coarse = run(h)
    if not richardson:
        return coarse
    fine = run(0.5 * h)
    return 2.0 * fine - coarse
