"""Semi-implicit time stepping for the single-population model.

One step solves

    (H/dt + A - b N^n B + a^n (C + D)) u^{n+1} = H u^n / dt

with the rate-dependent diffusion a^n = a0 + a1 N^n evaluated explicitly
and the firing rate obtained in closed form from the threshold slope.
The system matrix is refactored every step; at these dimensions (<= 49)
that is negligible and keeps the code obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import GalerkinMatrices, project_initial, reconstruct
from .errors import ConfigurationError, LinearSolveError, SingularFiringRateError, check_finite
from .integrate import DEFAULT_BLOWUP_THRESHOLD, integrate
from .norms import norm_grid

_RATE_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class OnePopParams:
    """Baseline diffusion a0, rate-diffusion gain a1 and connectivity b
    (positive excitatory, negative inhibitory)."""

    a0: float
    a1: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        for name in ("a0", "a1", "b"):
            check_finite(name, getattr(self, name))
        if self.a0 <= 0:
            raise ConfigurationError(f"a0 must be positive, got {self.a0}")
        if self.a1 < 0:
            raise ConfigurationError(f"a1 must be nonnegative, got {self.a1}")


@dataclass(frozen=True)
class PopulationState:
    u_hat: np.ndarray
    t: float
    rate: float


@dataclass(frozen=True)
class DensitySnapshot:
    t: float
    grid: np.ndarray
    density: np.ndarray


@dataclass
class RunRecord:
    """Per-step time series of one run plus termination bookkeeping."""

    times: np.ndarray
    rates: np.ndarray
    masses: np.ndarray
    status: str
    snapshots: list[DensitySnapshot] = field(default_factory=list)
    negative_rate: bool = False
    blowup_time: float | None = None
    wall_time: float = 0.0
    dt: float = 0.0
    final_density: np.ndarray | None = None

    @classmethod
    def from_integration(cls, run, dt: float, snapshots: list[DensitySnapshot]) -> "RunRecord":
        return cls(
            run.times, *run.columns, run.status, snapshots, run.negative_rate,
            run.trip_times[0], run.wall_time, dt,
        )


def firing_rate(u_hat: np.ndarray, deriv_at_threshold: np.ndarray, params: OnePopParams) -> float:
    """Mean firing rate from the threshold slope s = sum u_k psi_k'(V_F).

    N = -a0 s / (1 + a1 s) is the unique solution of N = -(a0 + a1 N) s.
    """
    s = float(np.dot(deriv_at_threshold, u_hat))
    denom = 1.0 + params.a1 * s
    if abs(denom) < _RATE_DENOM_TOL:
        raise SingularFiringRateError(
            f"firing-rate denominator 1 + a1*s = {denom:.3e} is numerically singular"
        )
    return -params.a0 * s / denom


def system_matrix(
    matrices: GalerkinMatrices,
    drift_rate: float,
    diffusion: float,
    dt: float,
    flux_shift_implicit: bool = True,
) -> np.ndarray:
    """Left-hand operator of one semi-implicit step.

    ``drift_rate`` is the rate-proportional drift offset (b N for one
    population), ``diffusion`` the frozen diffusion coefficient.  The
    threshold-flux coupling D is folded in implicitly unless the caller
    supplies the reset inflow as an explicit source instead.
    """
    s = matrices.H / dt + matrices.A - drift_rate * matrices.B + diffusion * matrices.C
    if flux_shift_implicit:
        s = s + diffusion * matrices.D
    return s


def step(state: PopulationState, params: OnePopParams, matrices: GalerkinMatrices, dt: float) -> PopulationState:
    """Advance one time increment; raises on singular systems.

    ``state.rate`` must be the firing rate of ``state.u_hat``, as it is for
    every state that :func:`solve` or this function produces.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    rate = state.rate
    diffusion = params.a0 + params.a1 * rate
    lhs = system_matrix(matrices, params.b * rate, diffusion, dt)
    rhs = matrices.H @ state.u_hat / dt
    try:
        u_next = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"step system singular at t={state.t:.6g}: {exc}") from exc
    t_next = state.t + dt
    rate_next = firing_rate(u_next, matrices.traces.deriv_at_threshold, params)
    return PopulationState(u_hat=u_next, t=t_next, rate=rate_next)


class _OnePop:
    """The spectral single-population model as a :class:`Stepper`."""

    populations = 1

    def __init__(self, p0, params: OnePopParams, matrices: GalerkinMatrices, dt: float):
        self.p0, self.params, self.matrices, self.dt = p0, params, matrices, dt

    def start(self, rates) -> PopulationState:
        mats = self.matrices
        u0 = project_initial(mats.basis, mats, self.p0)
        return PopulationState(u_hat=u0, t=0.0, rate=firing_rate(u0, mats.traces.deriv_at_threshold, self.params))

    def step(self, state: PopulationState) -> PopulationState:
        return step(state, self.params, self.matrices, self.dt)

    def observe(self, state: PopulationState):
        return state.rate, float(np.dot(self.matrices.mass, state.u_hat))


def solve(
    p0,
    params: OnePopParams,
    matrices: GalerkinMatrices,
    dt: float,
    t_final: float,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Run the scheme from a density callable up to t_final.

    Records (t, N, mass) at every step and the density on the comparison
    grid at each snapshot time.  Stops early with status
    "blow-up-detected" when the rate passes the threshold or the
    coefficients go non-finite; singular systems stop the run with status
    "solver-failure" instead of raising.
    """
    run = integrate(_OnePop(p0, params, matrices, dt), dt, t_final, snapshot_times, blowup_threshold)
    basis = matrices.basis
    grid = norm_grid(basis.domain)
    snapshots = [DensitySnapshot(t, grid, reconstruct(basis, st.u_hat, grid)) for t, st in run.snapshots]
    return RunRecord.from_integration(run, dt, snapshots)
