"""Coupled excitatory-inhibitory solver with synaptic delays and refractory
states.

Each population advances by the same semi-implicit operator as the single
population, with drift offset V_alpha and diffusion a_alpha evaluated from
delayed firing rates.  The refractory masses follow the forward-Euler update
R^{n+1} = R^n + dt (N^n - M^n).

Delayed rates are read from the run's recorded rate columns at the clamped
step max(0, n - delay/dt); the current step's rates travel on the state,
where the previous step left them.  A step only reads the record, so it has
no effect outside the state it returns.

Recovery modes:

* ``pass-through`` (M_alpha = N_alpha): the reset inflow equals the
  instantaneous rate, so it is folded into the system matrix through the
  threshold-flux coupling D, exactly as the one-population scheme does.
  With the cross couplings zeroed the two solvers then agree step for step.
* ``exponential`` (M_alpha = R_alpha / tau_alpha): the inflow is known data
  at step n and enters as the explicit source M^n F.

Parameter names spell out the coupling direction: ``b_e_to_i`` is the
strength with which the excitatory rate drives the inhibitory population.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .assembly import GalerkinMatrices, project_initial, reconstruct
from .errors import (
    ConfigurationError,
    LinearSolveError,
    NonpositiveDiffusionError,
    SingularFiringRateError,
    check_finite,
)
from .integrate import DEFAULT_BLOWUP_THRESHOLD, integrate
from .norms import norm_grid
from .onepop import DensitySnapshot, system_matrix

RECOVERY_PASS_THROUGH = "pass-through"
RECOVERY_EXPONENTIAL = "exponential"
DIFFUSION_CONSTANT = "constant"
DIFFUSION_MODEL = "model"


@dataclass(frozen=True)
class TwoPopParams:
    """Couplings, delays and refractory settings of the two-population model.

    ``b_x_to_y`` / ``d_x_to_y`` / ``delay_x_to_y`` describe the influence of
    population x's firing rate on population y (drift, diffusion and its
    transmission delay).  ``nu_ext`` is the external excitatory input rate.
    """

    b_e_to_e: float = 0.0
    b_e_to_i: float = 0.0
    b_i_to_e: float = 0.0
    b_i_to_i: float = 0.0
    d_e_to_e: float = 0.0
    d_e_to_i: float = 0.0
    d_i_to_e: float = 0.0
    d_i_to_i: float = 0.0
    nu_ext: float = 0.0
    tau_e: float = 0.0
    tau_i: float = 0.0
    delay_e_to_e: float = 0.0
    delay_e_to_i: float = 0.0
    delay_i_to_e: float = 0.0
    delay_i_to_i: float = 0.0
    diffusion_mode: str = DIFFUSION_CONSTANT
    diffusion_constant: float = 1.0
    refractory_mode: str = RECOVERY_PASS_THROUGH

    def __post_init__(self):
        nonnegative = (
            "b_e_to_e", "b_e_to_i", "b_i_to_e", "b_i_to_i",
            "d_e_to_e", "d_e_to_i", "d_i_to_e", "d_i_to_i",
            "delay_e_to_e", "delay_e_to_i", "delay_i_to_e", "delay_i_to_i",
            "nu_ext",
        )
        for name in nonnegative + ("tau_e", "tau_i", "diffusion_constant"):
            check_finite(name, getattr(self, name))
        for name in nonnegative:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if self.diffusion_mode not in (DIFFUSION_CONSTANT, DIFFUSION_MODEL):
            raise ConfigurationError(f"unknown diffusion mode {self.diffusion_mode!r}")
        if self.refractory_mode not in (RECOVERY_PASS_THROUGH, RECOVERY_EXPONENTIAL):
            raise ConfigurationError(f"unknown refractory mode {self.refractory_mode!r}")
        if self.diffusion_mode == DIFFUSION_CONSTANT and self.diffusion_constant <= 0:
            raise ConfigurationError("constant diffusion coefficient must be positive")
        if self.refractory_mode == RECOVERY_EXPONENTIAL and (self.tau_e <= 0 or self.tau_i <= 0):
            raise ConfigurationError("exponential recovery needs positive refractory durations")

    def delay_lags(self, dt: float) -> dict[str, int]:
        """Delays as integer step counts; rejects non-divisible delays."""
        lags = {}
        for name in ("delay_e_to_e", "delay_e_to_i", "delay_i_to_e", "delay_i_to_i"):
            d = getattr(self, name)
            lag = round(d / dt)
            if abs(lag * dt - d) > 1e-9 * max(1.0, d):
                raise ConfigurationError(f"{name}={d} is not an integer multiple of dt={dt}")
            lags[name] = lag
        return lags


def recovery(r_mass: float, rate: float, params: TwoPopParams, pop: str) -> float:
    """Recovery rate M for one population ('e' or 'i')."""
    if params.refractory_mode == RECOVERY_PASS_THROUGH:
        return rate
    tau = params.tau_e if pop == "e" else params.tau_i
    return r_mass / tau


def coefficients(params: TwoPopParams, n_e_delayed: float, n_i_delayed: float, pop: str):
    """Drift offset V_alpha and diffusion a_alpha for one population."""
    if pop == "e":
        v_drift = params.b_e_to_e * n_e_delayed - params.b_i_to_e * n_i_delayed
        if params.diffusion_mode == DIFFUSION_CONSTANT:
            diff = params.diffusion_constant
        else:
            diff = params.d_e_to_e * (params.nu_ext + n_e_delayed) + params.d_i_to_e * n_i_delayed
    elif pop == "i":
        v_drift = (
            params.b_e_to_i * n_e_delayed
            - params.b_i_to_i * n_i_delayed
            + (params.b_e_to_i - params.b_e_to_e) * params.nu_ext
        )
        if params.diffusion_mode == DIFFUSION_CONSTANT:
            diff = params.diffusion_constant
        else:
            diff = params.d_e_to_i * (params.nu_ext + n_e_delayed) + params.d_i_to_i * n_i_delayed
    else:
        raise ValueError(f"population tag must be 'e' or 'i', got {pop!r}")
    if diff <= 0:
        raise NonpositiveDiffusionError(f"diffusion for population {pop} is {diff:.6g} <= 0")
    return v_drift, diff


def lagged_rate(history, current: float, n: int, lag: int) -> float:
    """Rate at the clamped delayed step max(0, n - lag) seen from step n:
    ``current`` when that is step n itself, else the recorded ``history``
    entry of that step."""
    i = max(0, n - lag)
    return current if i == n else float(history[i])


@dataclass(frozen=True)
class TwoPopState:
    """Densities (coefficients or cell values), refractory masses and rates
    of both populations at step ``step_index``.

    ``rate_e``/``rate_i`` are the rates of this state.  ``history_e`` and
    ``history_i`` hold the recorded rates of the run, entry k for step k; a
    step reads the entries before its own index that its delays reach, which
    with zero delays is none.
    """

    u_e: np.ndarray
    u_i: np.ndarray
    r_e: float
    r_i: float
    t: float
    step_index: int
    rate_e: float
    rate_i: float
    history_e: Sequence[float] = ()
    history_i: Sequence[float] = ()


def delayed_rates(state: TwoPopState, lags: dict[str, int]):
    """Delayed (N_E, N_I) arguments of the excitatory and of the inhibitory
    population's coefficients at the state's step."""
    n, hist_e, hist_i, n_e, n_i = state.step_index, state.history_e, state.history_i, state.rate_e, state.rate_i
    return (
        (lagged_rate(hist_e, n_e, n, lags["delay_e_to_e"]), lagged_rate(hist_i, n_i, n, lags["delay_i_to_e"])),
        (lagged_rate(hist_e, n_e, n, lags["delay_e_to_i"]), lagged_rate(hist_i, n_i, n, lags["delay_i_to_i"])),
    )


@dataclass
class TwoPopRunRecord:
    times: np.ndarray
    rate_e: np.ndarray
    rate_i: np.ndarray
    mass_e: np.ndarray
    mass_i: np.ndarray
    refractory_e: np.ndarray
    refractory_i: np.ndarray
    status: str
    trip_time_e: float | None = None
    trip_time_i: float | None = None
    negative_rate: bool = False
    wall_time: float = 0.0
    dt: float = 0.0
    snapshots_e: list = field(default_factory=list)
    snapshots_i: list = field(default_factory=list)
    final_density_e: np.ndarray | None = None
    final_density_i: np.ndarray | None = None

    @classmethod
    def from_integration(cls, run, dt: float, snapshots_e: list, snapshots_i: list) -> "TwoPopRunRecord":
        return cls(
            run.times, *run.columns, run.status, *run.trip_times, run.negative_rate,
            run.wall_time, dt, snapshots_e, snapshots_i,
        )


def _resolve_rates(params: TwoPopParams, n: int, s_e: float, s_i: float, lags, history_e, history_i):
    """Rates N_E^n, N_I^n of a state at step n with threshold slopes s_e, s_i.

    Delayed lookups whose clamped index is n itself are implicit: with
    constant diffusion they drop out of the rate (N = -a s), with model-mode
    diffusion the two rate relations stay affine in (N_E, N_I) and the 2x2
    system is solved exactly.  Earlier steps are read from the histories.
    """
    if params.diffusion_mode == DIFFUSION_CONSTANT:
        a_const = params.diffusion_constant
        return -a_const * s_e, -a_const * s_i

    # rows: relations for N_E and N_I; unknown entries are the lookups
    # that clamp to the current step
    mat = np.eye(2)
    rhs = np.array([-s_e * params.d_e_to_e * params.nu_ext, -s_i * params.d_e_to_i * params.nu_ext])
    for row, col, s_val, d, delay, history in (
        (0, 0, s_e, params.d_e_to_e, "delay_e_to_e", history_e),
        (0, 1, s_e, params.d_i_to_e, "delay_i_to_e", history_i),
        (1, 0, s_i, params.d_e_to_i, "delay_e_to_i", history_e),
        (1, 1, s_i, params.d_i_to_i, "delay_i_to_i", history_i),
    ):
        i = max(0, n - lags[delay])
        if i == n:
            mat[row, col] += s_val * d
        else:
            rhs[row] -= s_val * d * float(history[i])
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < 1e-12:
        raise SingularFiringRateError(
            f"implicit two-population rate system singular (det={det:.3e})"
        )
    n_e, n_i = np.linalg.solve(mat, rhs)
    return float(n_e), float(n_i)


def step_twopop(
    state: TwoPopState,
    params: TwoPopParams,
    matrices: GalerkinMatrices,
    dt: float,
    lags: dict[str, int] | None = None,
) -> TwoPopState:
    """Advance both populations and the refractory masses by one step.

    The current rates come from ``state`` and the delayed ones from its
    histories; ``state`` itself is left untouched.  When the new state's
    rates cannot be resolved they are NaN, and stepping that state raises
    :class:`SingularFiringRateError`.
    """
    if lags is None:
        lags = params.delay_lags(dt)
    n_e, n_i = state.rate_e, state.rate_i
    if math.isnan(n_e) or math.isnan(n_i):
        raise SingularFiringRateError(f"firing rates at t={state.t:.6g} are unresolved")
    delayed_for_e, delayed_for_i = delayed_rates(state, lags)
    m_e = recovery(state.r_e, n_e, params, "e")
    m_i = recovery(state.r_i, n_i, params, "i")

    implicit_flux = params.refractory_mode == RECOVERY_PASS_THROUGH
    new_u = {}
    for pop, u_old, delayed, m_rate in (
        ("e", state.u_e, delayed_for_e, m_e),
        ("i", state.u_i, delayed_for_i, m_i),
    ):
        v_drift, diff = coefficients(params, delayed[0], delayed[1], pop)
        lhs = system_matrix(matrices, v_drift, diff, dt, flux_shift_implicit=implicit_flux)
        rhs = matrices.H @ u_old / dt
        if not implicit_flux:
            rhs = rhs + m_rate * matrices.F
        try:
            new_u[pop] = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(
                f"population {pop} system singular at t={state.t:.6g}: {exc}"
            ) from exc

    deriv_tr = matrices.traces.deriv_at_threshold
    try:
        rate_e, rate_i = _resolve_rates(
            params, state.step_index + 1,
            float(np.dot(deriv_tr, new_u["e"])), float(np.dot(deriv_tr, new_u["i"])),
            lags, state.history_e, state.history_i,
        )
    except (SingularFiringRateError, np.linalg.LinAlgError):
        rate_e = rate_i = float("nan")
    return TwoPopState(
        u_e=new_u["e"],
        u_i=new_u["i"],
        r_e=state.r_e + dt * (n_e - m_e),
        r_i=state.r_i + dt * (n_i - m_i),
        t=state.t + dt,
        step_index=state.step_index + 1,
        rate_e=rate_e,
        rate_i=rate_i,
        history_e=state.history_e,
        history_i=state.history_i,
    )


class _TwoPop:
    """The spectral two-population model as a :class:`Stepper`."""

    populations = 2

    def __init__(self, p0_e, p0_i, params, matrices, dt):
        self.p0_e, self.p0_i, self.params, self.matrices, self.dt = p0_e, p0_i, params, matrices, dt

    def start(self, rates) -> TwoPopState:
        mats, params = self.matrices, self.params
        self.lags = params.delay_lags(self.dt)
        u_e = project_initial(mats.basis, mats, self.p0_e)
        u_i = project_initial(mats.basis, mats, self.p0_i)
        # rates at t=0 follow the delayed-coefficient rule of the first step
        # (every lookup clamps to the current step)
        deriv_tr = mats.traces.deriv_at_threshold
        rate_e, rate_i = _resolve_rates(
            params, 0, float(np.dot(deriv_tr, u_e)), float(np.dot(deriv_tr, u_i)), self.lags, *rates
        )
        return TwoPopState(u_e, u_i, 0.0, 0.0, 0.0, 0, rate_e, rate_i, *rates)

    def step(self, state: TwoPopState) -> TwoPopState:
        return step_twopop(state, self.params, self.matrices, self.dt, self.lags)

    def observe(self, state: TwoPopState):
        mass = self.matrices.mass
        return (
            state.rate_e, state.rate_i,
            float(np.dot(mass, state.u_e)), float(np.dot(mass, state.u_i)),
            state.r_e, state.r_i,
        )


def solve_twopop(
    p0_e,
    p0_i,
    params: TwoPopParams,
    matrices: GalerkinMatrices,
    dt: float,
    t_final: float,
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
    snapshot_times=(),
) -> TwoPopRunRecord:
    """Run the coupled scheme from empty refractory states; records rates,
    masses and refractory states, and the densities on the comparison grid
    at each snapshot time.

    The run keeps going after the first population trips the blow-up
    threshold (up to a bounded window) so near-simultaneous events yield a
    trip time for each population.
    """
    run = integrate(_TwoPop(p0_e, p0_i, params, matrices, dt), dt, t_final, snapshot_times, blowup_threshold)
    basis = matrices.basis
    grid = norm_grid(basis.domain)

    def snapshots(pop: str) -> list[DensitySnapshot]:
        return [DensitySnapshot(t, grid, reconstruct(basis, getattr(st, pop), grid)) for t, st in run.snapshots]

    return TwoPopRunRecord.from_integration(run, dt, snapshots("u_e"), snapshots("u_i"))
