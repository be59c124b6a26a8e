"""Coupled excitatory-inhibitory solver with synaptic delays and refractory
states.

Each population advances by the same semi-implicit operator as the single
population, with drift offset V_alpha and diffusion a_alpha evaluated from
delayed firing rates.  The refractory masses follow the forward-Euler update
R^{n+1} = R^n + dt (N^n - M^n).

As for one population, :func:`step_twopop` serves both solvers, over a
space that stacks the rows, E then I; the spectral stack is one
C-contiguous (2, dim) array.  With constant diffusion the operator
of population alpha is K0 - V_alpha B, so it changes between steps only
through the drift offset V_alpha, and K0 is the same for both populations.
For a run of more than dim steps (2 dim solves) :func:`solve_twopop`
then diagonalises K0^-1 (-B) once, before the loop, with numpy
(:class:`ModalSystem`), and the run's immutable stepper solves the stack in
O(dim^2) per row: one matrix product maps both rows into the eigenbasis,
one elementwise division by 1 + V_alpha lambda solves each row at its own
shift, and one product maps both back.  No scipy module is loaded.
Model-mode diffusion, whose operator moves with two independent scalars,
shorter runs, and runs whose eigenvector basis is too ill conditioned to
solve with advance each row on its own at every step
(:meth:`onepop.Spectral.advance`).

K0 and B do not depend on the couplings, so the cells of a sweep over them
share one factor by construction: :func:`solve_twopop`, given a list of
parameters that agree in everything K0 reads, builds it once and hands it
to every cell, and the cells step in lockstep (:func:`integrate.integrate`
with a list of steppers).  :func:`step_twopop` advances such a batch, a
run alone being a batch of one, with one solve of the (K, 2, dim) stack of
its cells' densities.  That solve multiplies slice by slice and divides
element by element, so each cell's bytes are those of its run alone.  On
the factored and dense paths alike, the step then reads every cell's
threshold slopes and masses from one readout of the new stack: one
product with the (dim, 2) matrix [slope | mass] of the
:class:`GalerkinMatrices`, again slice by slice (finite volumes:
-p_last / h and sum h per row).  Each new state carries its masses, so
observing a state is arithmetic-free.

Delayed rates are read from the run's recorded rate columns at the clamped
step max(0, n - delay/dt); the current step's rates travel on the state,
where the previous step left them.  A step only reads the record, so it has
no effect outside the state it returns.  Rates follow from threshold slopes
(:func:`_resolve_rates`): N = -a s with constant diffusion, else a 2x2
system solved by Cramer's rule, singular exactly when |det| < 1e-12.

Recovery modes:

* ``pass-through`` (M_alpha = N_alpha): the reset inflow equals the
  instantaneous rate, so it is folded into the spectral system matrix
  through the threshold-flux coupling D, exactly as the one-population
  scheme does (finite volumes re-inject the explicit N^n, keeping mass
  exact).  With the cross couplings zeroed the two models agree step for step.
* ``exponential`` (M_alpha = R_alpha / tau_alpha): the inflow is known data
  at step n and enters as the explicit source M^n F.

Parameter names spell out the coupling direction: ``b_e_to_i`` is the
strength with which the excitatory rate drives the inhibitory population.
Every pair (density rows, refractory masses, rates, recorded rates,
coefficients) is in E, I order, and the coupling, delay and lag tables and
the delayed rates are indexed [target][source], so entry [y][x] is the
influence of population x on y.  The helpers of a step write their two or
four entries out one by one: a per-entry loop costs more than the
arithmetic at this size.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from .assembly import GalerkinMatrices
from .errors import (
    ConfigurationError, LinearSolveError, NonpositiveDiffusionError, SingularFiringRateError, check_finite,
    check_nonnegative, check_one_of, check_positive,
)
from .integrate import DEFAULT_BLOWUP_THRESHOLD, TWO_POPULATIONS, RunRecord, check_times, integrate, whole_steps
from .onepop import Spectral, factor_pays_off, increment_operands, system_matrix

RECOVERY_PASS_THROUGH = "pass-through"
RECOVERY_EXPONENTIAL = "exponential"
DIFFUSION_CONSTANT = "constant"
DIFFUSION_MODEL = "model"
# population tags, in the order of every pair and table index
POPULATIONS = ("e", "i")
DELAY_NAMES = tuple(f"delay_{source}_to_{target}" for source in POPULATIONS for target in POPULATIONS)


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
        for name in (
            "b_e_to_e", "b_e_to_i", "b_i_to_e", "b_i_to_i",
            "d_e_to_e", "d_e_to_i", "d_i_to_e", "d_i_to_i",
            "delay_e_to_e", "delay_e_to_i", "delay_i_to_e", "delay_i_to_i",
            "nu_ext",
        ):
            check_nonnegative(name, getattr(self, name))
        check_one_of("diffusion_mode", self.diffusion_mode, (DIFFUSION_CONSTANT, DIFFUSION_MODEL))
        check_one_of("refractory_mode", self.refractory_mode, (RECOVERY_PASS_THROUGH, RECOVERY_EXPONENTIAL))
        # the refractory durations and the constant diffusion must be > 0
        # in the mode that reads them
        exponential, constant = self.refractory_mode == RECOVERY_EXPONENTIAL, self.diffusion_mode == DIFFUSION_CONSTANT
        for name, read in (("tau_e", exponential), ("tau_i", exponential), ("diffusion_constant", constant)):
            (check_positive if read else check_finite)(name, getattr(self, name))

    @cached_property
    def tables(self) -> dict[str, tuple]:
        """The ``b``, ``d`` and ``delay`` couplings as tables indexed
        [target][source], populations in E, I order: ``tables["b"][y][x]``
        is ``b_x_to_y``."""
        return {
            kind: tuple(tuple(getattr(self, f"{kind}_{x}_to_{y}") for x in POPULATIONS) for y in POPULATIONS)
            for kind in ("b", "d", "delay")
        }

    @cached_property
    def drive_shift(self) -> float:
        """Drift offset of the external input on the inhibitory population,
        (b_e_to_i - b_e_to_e) nu_ext; the excitatory one has none."""
        return (self.b_e_to_i - self.b_e_to_e) * self.nu_ext

    @cached_property
    def constant_diffusions(self) -> tuple[float, float]:
        """Diffusions of both populations in constant-diffusion mode."""
        return (self.diffusion_constant,) * 2

    def delay_lags(self, dt: float) -> tuple:
        """Delays as integer step counts indexed [target][source]; rejects
        delays that are not whole numbers of steps."""
        for name in DELAY_NAMES:
            if whole_steps(getattr(self, name), dt) is None:
                raise ConfigurationError(f"{name}={getattr(self, name)} is not an integer multiple of dt={dt}")
        return tuple(tuple(whole_steps(d, dt) for d in row) for row in self.tables["delay"])


# the largest condition number kappa_2(V) of an eigenvector basis that a
# modal factor is built on: a solve's relative error grows like kappa_2(V)
# times the rounding unit; with the factors built under this bound, solves
# at M <= 64, dt <= 1e-2 and diffusion 0.5 to 2 stay within 1.1e-13 of the
# dense solve
MAX_MODAL_CONDITION = 1e3


@dataclass(frozen=True, eq=False)
class ModalSystem:
    """Solves (K0 + sigma E) u = H u_old / dt + m F for a stack of rows,
    each at its own shift sigma and inflow m, in the eigenbasis of
    K0^-1 E = V Lambda V^-1; K0 = H / dt + G.

    A row is solved for its increment, as in :class:`onepop.ShiftedSystem`:
    u = u_old - K_sigma^-1 r with r = (G + sigma E) u_old - m F, and
    K_sigma^-1 = V (I + sigma Lambda)^-1 V^-1 K0^-1.  The build folds the
    fixed factors into W = V^-1 K0^-1 [G | E (| -F)].  So a (..., dim) stack
    takes one product x W with x = [u_old, sigma u_old (, m)] per row, one
    elementwise division of each row by 1 + sigma lambda, and one product
    back through V.  W and V are complex, so the real and imaginary parts
    of W fill alternate columns of ``w``, and Re V, -Im V alternate rows of
    ``v``, as Re y and Im y alternate in the floats of a complex row y.
    Every row's arithmetic reads only that row: a row at sigma = 0 needs no
    path of its own, and a non-finite row touches no other.  matmul
    multiplies a (K, 2, dim) stack, the rows of the K cells of a lockstep
    sweep, one (2, dim) slice at a time, so each cell's bytes are those of
    its own (2, dim) solve.

    An eigenvector basis can be ill conditioned (kappa_2(V) = 1e8 at M = 16
    for the one-population E = a1 (C + D) - b B, which therefore keeps its
    Schur form).  For the two-population E = -B, kappa_2(V) is 4 to 230 at
    M <= 24, dt <= 1e-2 and diffusion 0.1 to 10, but reaches 6e4 at M = 24
    and dt = 4e-2, and 2e5 at M = 64 and dt = 1e-2.  :meth:`build` gives no
    factor past :data:`MAX_MODAL_CONDITION`, and the run then solves
    densely.

    At M = 16 (dim 33), on one core of a shared 2-vCPU x86-64 host (best of
    15 rounds of 2,000 solves, with a source), a solve of a (1, 2, dim)
    stack takes 11.8 us, (3, 2, dim) 15.5 us, (11, 2, dim) 30.5 us and
    (33, 2, dim) 63.4 us.  Of a (1, 2, dim) solve, building x takes about
    2.7 us, forming 1 + sigma lambda and testing it for a zero 3.2 us, the
    two products 4.1 us and the division 0.7 us; a solve makes no LAPACK
    call.
    """

    w: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    source: bool

    @classmethod
    def build(cls, g: np.ndarray, e: np.ndarray, matrices: GalerkinMatrices, dt: float,
              source: bool = False) -> ModalSystem | None:
        """The factor of K0 + sigma E, or None when its eigenvector basis
        is too ill conditioned to solve with; ``g`` is the operator without
        its mass term, ``source`` selects whether the inflow m F is part of
        the right-hand side.  Raises :class:`LinearSolveError` when K0 is
        singular."""
        k0_inv_e, s = increment_operands(g, e, matrices, dt, source)
        lam, vecs = np.linalg.eig(k0_inv_e)
        if not np.linalg.cond(vecs) <= MAX_MODAL_CONDITION:
            return None
        y = np.linalg.solve(vecs, s)
        dim = g.shape[0]
        w, v = np.empty((y.shape[1], 2 * dim)), np.empty((2 * dim, dim))
        w[:, 0::2], w[:, 1::2] = y.real.T, y.imag.T
        v[0::2], v[1::2] = vecs.real.T, -vecs.imag.T
        return cls(w, v, lam, source)

    def solve(self, u_old: np.ndarray, sigma, inflow=0.0) -> np.ndarray:
        """u of the step from each row of ``u_old``, (..., dim), at its shift
        and inflow; ``sigma`` and ``inflow`` are shaped like the leading
        axes.  Raises :class:`LinearSolveError`, naming the shift, when some
        row's 1 + sigma lambda is zero."""
        sigma = np.asarray(sigma, dtype=float)
        dim = u_old.shape[-1]
        x = np.empty(u_old.shape[:-1] + (self.w.shape[0],))
        x[..., :dim] = u_old
        np.multiply(sigma[..., None], u_old, out=x[..., dim:2 * dim])
        if self.source:
            x[..., -1] = inflow
        denom = 1.0 + sigma[..., None] * self.lam
        if not denom.all():
            shift = float(sigma[~denom.all(axis=-1)].flat[0])
            raise LinearSolveError(f"shifted step system singular at shift {shift:.6g}")
        y = (x @ self.w).view(np.complex128) / denom
        return u_old - y.view(np.float64) @ self.v


def recovery(r, rates, params: TwoPopParams):
    """Recovery rates M of both populations from their refractory masses
    ``r`` and rates."""
    if params.refractory_mode == RECOVERY_PASS_THROUGH:
        return rates
    return r[0] / params.tau_e, r[1] / params.tau_i


def coefficients(params: TwoPopParams, delayed):
    """Drift offsets V and diffusions a of both populations, from the delayed
    rates indexed [target][source] (:func:`delayed_rates`)."""
    (seen_ee, seen_ie), (seen_ei, seen_ii) = delayed
    # the excitatory source raises the drift, the inhibitory one lowers it
    drift = (
        params.b_e_to_e * seen_ee - params.b_i_to_e * seen_ie,
        params.b_e_to_i * seen_ei - params.b_i_to_i * seen_ii + params.drive_shift,
    )
    if params.diffusion_mode == DIFFUSION_CONSTANT:
        return drift, params.constant_diffusions
    diffusion = (
        params.d_e_to_e * (params.nu_ext + seen_ee) + params.d_i_to_e * seen_ie,
        params.d_e_to_i * (params.nu_ext + seen_ei) + params.d_i_to_i * seen_ii,
    )
    for pop, diff in zip(POPULATIONS, diffusion):
        if diff <= 0:
            raise NonpositiveDiffusionError(f"diffusion for population {pop} is {diff:.6g} <= 0")
    return drift, diffusion


class TwoPopState(NamedTuple):
    """Densities, their masses, refractory masses and rates of both
    populations at step ``step_index``, populations in E, I order.

    ``u`` holds the densities: a C-contiguous (2, dim) stack of coefficient
    rows (spectral), or a tuple of two rows of cell values (finite volumes).
    ``mass``, ``r`` and ``rate`` are pairs: the masses of the rows of ``u``,
    read with the threshold slopes that give the rates (the space's
    ``readout``), the refractory masses, and the rates of this state.
    ``history`` is the pair of recorded rate columns of the run, entry k for
    step k; a step reads the entries before its own index that its delays
    reach, which with zero delays is none.
    """

    u: np.ndarray | Sequence[np.ndarray]
    mass: Sequence[float]
    r: Sequence[float]
    step_index: int
    rate: Sequence[float]
    history: Sequence[Sequence[float]] = ((), ())

    def refractory_after(self, inflow, dt: float) -> tuple[float, float]:
        """Refractory masses one forward-Euler step later, R + dt (N - M),
        with recovery rates ``inflow``."""
        (r_e, r_i), (rate_e, rate_i), (m_e, m_i) = self.r, self.rate, inflow
        return r_e + dt * (rate_e - m_e), r_i + dt * (rate_i - m_i)


def delayed_rates(state: TwoPopState, lags):
    """Delayed rates at the state's step n indexed [target][source]: entry
    [y][x] is the rate of population x that population y sees, the rate at
    step max(0, n - lag) for the lag ``lags[y][x]``.  That is the state's own
    rate when the step is n itself (lag 0, or n = 0), else the history
    entry of that step."""
    n, (rate_e, rate_i), (history_e, history_i) = state.step_index, state.rate, state.history
    if n == 0:
        return [[rate_e, rate_i], [rate_e, rate_i]]
    (lag_ee, lag_ie), (lag_ei, lag_ii) = lags
    return [
        [
            rate_e if lag_ee == 0 else float(history_e[n - lag_ee if n > lag_ee else 0]),
            rate_i if lag_ie == 0 else float(history_i[n - lag_ie if n > lag_ie else 0]),
        ],
        [
            rate_e if lag_ei == 0 else float(history_e[n - lag_ei if n > lag_ei else 0]),
            rate_i if lag_ii == 0 else float(history_i[n - lag_ii if n > lag_ii else 0]),
        ],
    ]


def _resolve_rates(params: TwoPopParams, n: int, slopes, lags, history):
    """Rates (N_E^n, N_I^n) of a state at step n with threshold slopes
    ``slopes``.

    Delayed lookups whose clamped index is n itself are implicit: with
    constant diffusion they drop out of the rate (N = -a s), with model-mode
    diffusion the two rate relations stay affine in (N_E, N_I) and the 2x2
    system is solved by Cramer's rule; |det| < 1e-12 raises
    :class:`SingularFiringRateError`.  Earlier steps are read from the history.
    """
    s_e, s_i = slopes
    if params.diffusion_mode == DIFFUSION_CONSTANT:
        a_const = params.diffusion_constant
        return -a_const * s_e, -a_const * s_i

    # row y is the relation for N_y; unknown entries are the lookups that
    # clamp to the current step
    mat = [[1.0, 0.0], [0.0, 1.0]]
    rhs = [-s_e * params.d_e_to_e * params.nu_ext, -s_i * params.d_e_to_i * params.nu_ext]
    for y, (s, d_row, lag_row) in enumerate(zip(slopes, params.tables["d"], lags)):
        for x, (d, lag) in enumerate(zip(d_row, lag_row)):
            i = max(0, n - lag)
            if i == n:
                mat[y][x] += s * d
            else:
                rhs[y] -= s * d * float(history[x][i])
    (m_ee, m_ei), (m_ie, m_ii) = mat
    det = m_ee * m_ii - m_ei * m_ie
    if abs(det) < 1e-12:
        raise SingularFiringRateError(f"implicit two-population rate system singular (det={det:.3e})")
    # a NaN det passes the test and gives NaN rates: a non-finite state trips the run
    return (rhs[0] * m_ii - m_ei * rhs[1]) / det, (m_ee * rhs[1] - m_ie * rhs[0]) / det


def step_twopop(
    states: list[TwoPopState],
    params: list[TwoPopParams],
    space,
    dt: float,
    lags: list | None = None,
    shifted: ModalSystem | None = None,
) -> list[TwoPopState]:
    """Advance both populations in ``space`` and the refractory masses of
    each cell of a lockstep batch by one step: ``states``, ``params`` and
    ``lags`` have one entry per cell, the states all at one step, and a run
    alone is a batch of one.

    The current rates come from each state and the delayed ones from its
    history; the states themselves are left untouched, and each new state's
    ``u`` is a slice of a fresh stack of the cells' rows, whose one
    ``space.readout`` gives every cell's threshold slopes, and so its
    rates, and masses.  A rate system that has no solution raises
    :class:`SingularFiringRateError`; a ``dt`` outside (0, inf), or
    ``states``, ``params`` and ``lags`` of different lengths,
    :class:`ConfigurationError`.  ``shifted``, the factored
    constant-diffusion operator the cells share, replaces the row solves
    with one solve of the (K, 2, dim) stack of their ``u``; it must have
    been built from the same parameters, matrices and dt.  That solve and
    the readout treat each cell's slice as its own, so each cell's next
    state is bit for bit the one it gets in a batch of one.
    """
    check_positive("dt", dt)
    if lags is None:
        lags = [p.delay_lags(dt) for p in params]
    if not len(states) == len(params) == len(lags):
        raise ConfigurationError(f"a batch needs one params and one lags per state, got {len(states)} states, "
                                 f"{len(params)} params and {len(lags)} lags")
    inflows, drifts, diffusions = [], [], []
    for st, p, lag in zip(states, params, lags):
        inflows.append(recovery(st.r, st.rate, p))
        drift, diffusion = coefficients(p, delayed_rates(st, lag))
        drifts.append(drift)
        diffusions.append(diffusion)
    if shifted is not None:
        us = shifted.solve(np.array([st.u for st in states]), drifts, inflows)
    else:
        us = space.stack([
            space.stack([space.advance(row, dt, v, a, m, p.refractory_mode == RECOVERY_PASS_THROUGH)
                         for row, v, a, m in zip(st.u, drift, diffusion, inflow)])
            for st, p, drift, diffusion, inflow in zip(states, params, drifts, diffusions, inflows)
        ])
    stepped = []
    for st, p, lag, u, inflow, ((s_e, m_e), (s_i, m_i)) in zip(states, params, lags, us, inflows, space.readout(us)):
        n = st.step_index + 1
        rate = _resolve_rates(p, n, (s_e, s_i), lag, st.history)
        stepped.append(TwoPopState(u, (m_e, m_i), st.refractory_after(inflow, dt), n, rate, st.history))
    return stepped


@dataclass(frozen=True)
class _TwoPop:
    """The two-population model in a space as a :class:`Stepper`; ``p0`` is
    the (E, I) pair of initial densities and ``shifted`` the run's factored
    operator (None: solve densely), which the cells of a batch share."""

    layout = TWO_POPULATIONS

    p0: tuple
    params: TwoPopParams
    space: Any
    dt: float
    shifted: ModalSystem | None = None
    lags: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lags", self.params.delay_lags(self.dt))

    def start(self, rates) -> TwoPopState:
        space = self.space
        u = space.stack([space.initial(p0) for p0 in self.p0])
        (s_e, m_e), (s_i, m_i) = space.readout([u])[0]
        # rates at t=0 follow the delayed-coefficient rule of the first step
        # (every lookup clamps to the current step)
        rate = _resolve_rates(self.params, 0, (s_e, s_i), self.lags, rates)
        return TwoPopState(u, (m_e, m_i), (0.0, 0.0), 0, rate, rates)

    def step(self, state: TwoPopState) -> TwoPopState:
        return step_twopop([state], [self.params], self.space, self.dt, [self.lags], self.shifted)[0]

    def lockstep(self, cells):
        """One :func:`step_twopop` for the cells, which share this cell's space, dt and factor."""
        params, lags = [cell.params for cell in cells], [cell.lags for cell in cells]
        space, dt, shifted = self.space, self.dt, self.shifted
        return lambda states: step_twopop(states, params, space, dt, lags, shifted)

    def observe(self, state: TwoPopState):
        return (*state.rate, *state.mass, *state.r)

    def densities(self, state: TwoPopState) -> np.ndarray:
        return np.array([self.space.density(row) for row in state.u])


def solve_twopop(
    p0_e,
    p0_i,
    params: TwoPopParams | list[TwoPopParams],
    matrices: GalerkinMatrices,
    dt: float,
    t_final: float,
    *,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord | list[RunRecord]:
    """Run the coupled scheme from empty refractory states; records rates,
    masses and refractory states, and the densities of both populations on
    the comparison grid at each snapshot time.

    The run keeps going after the first population trips the blow-up
    threshold (up to a bounded window) so near-simultaneous events yield a
    trip time for each population.  A list of ``params`` runs one cell per
    entry as a lockstep batch and returns their records in order, each the
    record of its run alone.  The cells share one operator, factored here
    before the loop, so they must agree in everything it reads; when
    :meth:`ModalSystem.build` gives no factor, every cell solves densely.
    """
    n_steps = check_times(dt, t_final, snapshot_times, blowup_threshold)
    cells = [params] if isinstance(params, TwoPopParams) else params
    if not cells:
        raise ConfigurationError("a batch needs at least one run")
    first = cells[0]
    for name in ("diffusion_mode", "diffusion_constant", "refractory_mode"):
        if any(getattr(p, name) != getattr(first, name) for p in cells):
            raise ConfigurationError(f"the cells of a batch differ in {name}, which they must share")
    space, shifted = Spectral(matrices), None
    if first.diffusion_mode == DIFFUSION_CONSTANT and factor_pays_off(2 * n_steps, matrices):
        implicit_flux = first.refractory_mode == RECOVERY_PASS_THROUGH
        g = system_matrix(matrices, 0.0, first.diffusion_constant, math.inf, flux_shift_implicit=implicit_flux)
        shifted = ModalSystem.build(g, -matrices.B, matrices, dt, source=not implicit_flux)
    steppers = [_TwoPop((p0_e, p0_i), p, space, dt, shifted) for p in cells]
    records = integrate(steppers, dt, t_final, snapshot_times, blowup_threshold)
    return records[0] if isinstance(params, TwoPopParams) else records
