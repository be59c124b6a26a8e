"""The factored (shifted-system) step against the dense step it replaces.

A run that makes more than twice the system's dimension in solves (a
two-population step makes two) factors its operator once and solves each
step through :class:`nnlif.onepop.ShiftedSystem` (one population) or
:class:`nnlif.twopop.ModalSystem` (two populations, unless its eigenvector
basis is too ill conditioned); shorter runs, model-mode two-population runs
and runs refused a modal factor solve densely.  The dense solve is the
oracle here: one factored solve agrees with it to rounding, a factored run
agrees with a loop over the dense step to a small multiple of that, and a
run that takes the dense path is bit-identical to the loop.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nnlif import Domain, normalize_gaussian, onepop, twopop
from nnlif.assembly import assemble, reconstruct
from nnlif.basis import BasisSet
from nnlif.errors import LinearSolveError
from nnlif.integrate import STATUS_COMPLETED, STATUS_SOLVER_FAILURE, integrate
from nnlif.norms import norm_grid
from nnlif.onepop import OnePopParams, ShiftedSystem, Spectral, _OnePop, solve, step, system_matrix
from nnlif.twopop import (
    MAX_MODAL_CONDITION, ModalSystem, TwoPopParams, _TwoPop, coefficients, delayed_rates, solve_twopop, step_twopop,
)

DOMAIN = Domain(1.0, 2.0)
IC = normalize_gaussian(-1.0, 0.5, DOMAIN)
IC_I = normalize_gaussian(0.0, 0.25, DOMAIN)

# one factored solve against np.linalg.solve, relative 2-norm
SOLVE_RTOL = 1e-12
# a factored run against the dense step loop, relative to each series' scale
RUN_RTOL = 1e-9


@lru_cache(maxsize=None)
def _mats(m: int):
    return assemble(BasisSet(DOMAIN, m))


def _dim(m: int) -> int:
    return _mats(m).H.shape[0]


def _close(got, want, rtol=RUN_RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _make_singular(shifted, shift):
    """Set one eigenvalue lambda of the factor to -1 / ``shift``, which
    makes 1 + shift lambda exactly zero (checked: the product could round
    off -1).  An eigenvalue is a diagonal entry of the one-row system's
    triangular T, or an entry of the modal system's ``lam``."""
    lam = -1.0 / shift
    assert 1.0 + shift * lam == 0.0
    if isinstance(shifted, ModalSystem):
        shifted.lam[0] = lam
    else:
        shifted.t[0, 0] = lam


def _condition(mats, dt, g) -> float:
    """kappa_2 of the eigenvector basis of K0^-1 (-B), formed as the modal
    factor forms it."""
    return float(np.linalg.cond(np.linalg.eig(np.linalg.inv(mats.H / dt + g) @ -mats.B)[1]))


def _twopop_factor(mats, dt, source):
    """The factored two-population operator at diffusion 1, as
    :func:`solve_twopop` builds it; ``source``: exponential recovery."""
    g = system_matrix(mats, 0.0, 1.0, math.inf, flux_shift_implicit=not source)
    shifted = ModalSystem.build(g, -mats.B, mats, dt, source=source)
    assert shifted is not None
    return shifted


def _dense_rows(mats, dt, u_old, shifts, inflows, source):
    """Each row of the stack ``u_old`` solved densely at its shift and inflow."""
    want = np.empty_like(u_old)
    for index in np.ndindex(u_old.shape[:-1]):
        lhs = system_matrix(mats, shifts[index], 1.0, dt, flux_shift_implicit=not source)
        rhs = mats.H @ u_old[index] / dt
        if source:
            rhs = rhs + inflows[index] * mats.F
        want[index] = np.linalg.solve(lhs, rhs)
    return want


# --- dense step loops (the oracle) -------------------------------------------


def _dense_onepop(params, mats, dt, n_steps):
    """(rates, masses, final coefficients) of ``n_steps`` dense steps."""
    state = _OnePop(IC, params, Spectral(mats), dt).start([np.empty(1)])
    rates, masses = [state.rate], [float(np.dot(mats.mass, state.u))]
    for _ in range(n_steps):
        state = step(state, params, Spectral(mats), dt)
        rates.append(state.rate)
        masses.append(float(np.dot(mats.mass, state.u)))
    return np.array(rates), np.array(masses), state.u


def _dense_twopop(params, mats, dt, n_steps):
    """({rate_e, rate_i, mass_e, mass_i} series, final u_e, final u_i) of
    ``n_steps`` dense steps from the stepper's initial state, with the
    delayed rates read from columns filled as the integrator fills them."""
    cols = [np.empty(n_steps + 1), np.empty(n_steps + 1)]
    state = _TwoPop((IC, IC_I), params, Spectral(mats), dt).start(cols)
    series = {key: [] for key in ("rate_e", "rate_i", "mass_e", "mass_i")}
    for n in range(n_steps + 1):
        if n:
            state = step_twopop([state], [params], Spectral(mats), dt)[0]
        cols[0][n], cols[1][n] = state.rate
        series["rate_e"].append(state.rate[0])
        series["rate_i"].append(state.rate[1])
        series["mass_e"].append(state.mass[0])
        series["mass_i"].append(state.mass[1])
    return {key: np.array(v) for key, v in series.items()}, state.u[0], state.u[1]


def _density(mats, u):
    return reconstruct(mats.basis, u, norm_grid(DOMAIN))


# --- strategies ----------------------------------------------------------------

m_values = st.integers(4, 24)
# single solves reach M = 64 on a ladder: an assembly there takes most of a
# second, so each M is assembled once for both solve properties
solve_m_values = st.sampled_from([4, 7, 12, 16, 24, 32, 48, 64])
dts = st.sampled_from([1e-4, 5e-4, 1e-3, 5e-3, 1e-2])
onepop_params = st.builds(
    OnePopParams,
    a0=st.floats(0.2, 3.0),
    a1=st.floats(0.0, 1.0),
    b=st.floats(-3.0, 3.0),
)


@st.composite
def twopop_params(draw, refractory_mode):
    couplings = {name: draw(st.floats(0.0, 3.0)) for name in ("b_e_to_e", "b_e_to_i", "b_i_to_e", "b_i_to_i")}
    lag = draw(st.integers(0, 4))
    params = TwoPopParams(
        **couplings,
        nu_ext=draw(st.floats(0.0, 5.0)),
        diffusion_constant=draw(st.floats(0.5, 2.0)),
        refractory_mode=refractory_mode,
        tau_e=draw(st.floats(0.01, 0.1)) if refractory_mode == "exponential" else 0.0,
        tau_i=draw(st.floats(0.01, 0.1)) if refractory_mode == "exponential" else 0.0,
    )
    return params, lag


def _with_delays(params, lag, dt):
    return replace(params, **{f"delay_{x}_to_{y}": lag * dt for x in "ei" for y in "ei"})


# --- one factored solve --------------------------------------------------------


@settings(max_examples=60)
@given(m=solve_m_values, dt=dts, params=onepop_params, rate=st.floats(0.0, 20.0), seed=st.integers(0, 2**16))
@example(m=16, dt=1e-3, params=OnePopParams(1.0, 0.1, 0.5), rate=0.0, seed=0)
@example(m=64, dt=1e-2, params=OnePopParams(1.0, 0.1, -3.0), rate=0.0, seed=1)
def test_onepop_shifted_solve_matches_dense(m, dt, params, rate, seed):
    mats = _mats(m)
    e = params.a1 * (mats.C + mats.D) - params.b * mats.B
    shifted = ShiftedSystem(system_matrix(mats, 0.0, params.a0, math.inf), e, mats, dt)
    u_old = np.random.default_rng(seed).standard_normal(_dim(m))
    lhs = system_matrix(mats, params.b * rate, params.a0 + params.a1 * rate, dt)
    want = np.linalg.solve(lhs, mats.H @ u_old / dt)
    assert _rel(shifted.solve(u_old, rate), want) <= SOLVE_RTOL


@settings(max_examples=60)
@given(
    m=solve_m_values,
    dt=dts,
    diffusion=st.floats(0.5, 2.0),
    refractory_mode=st.sampled_from(["pass-through", "exponential"]),
    shift=st.floats(-20.0, 40.0),
    inflow=st.floats(0.0, 50.0),
    seed=st.integers(0, 2**16),
)
@example(m=16, dt=1e-3, diffusion=1.0, refractory_mode="exponential", shift=0.0, inflow=0.0, seed=0)
@example(m=16, dt=1e-3, diffusion=1.0, refractory_mode="exponential", shift=0.0, inflow=5.0, seed=1)
@example(m=64, dt=1e-2, diffusion=0.5, refractory_mode="exponential", shift=-20.0, inflow=0.0, seed=2)
@example(m=64, dt=1e-2, diffusion=0.5, refractory_mode="pass-through", shift=0.0, inflow=0.0, seed=3)
def test_twopop_shifted_solve_matches_dense(m, dt, diffusion, refractory_mode, shift, inflow, seed):
    # a modal factor is built exactly when its eigenvector basis is within
    # the conditioning bound, and every factor built meets SOLVE_RTOL
    mats = _mats(m)
    implicit_flux = refractory_mode == "pass-through"
    g = system_matrix(mats, 0.0, diffusion, math.inf, flux_shift_implicit=implicit_flux)
    shifted = ModalSystem.build(g, -mats.B, mats, dt, source=not implicit_flux)
    assert (shifted is None) == (_condition(mats, dt, g) > MAX_MODAL_CONDITION)
    if shifted is None:
        return
    u_old = np.random.default_rng(seed).standard_normal(_dim(m))
    lhs = system_matrix(mats, shift, diffusion, dt, flux_shift_implicit=implicit_flux)
    rhs = mats.H @ u_old / dt
    if not implicit_flux:
        rhs = rhs + inflow * mats.F
    assert _rel(shifted.solve(u_old, shift, inflow), np.linalg.solve(lhs, rhs)) <= SOLVE_RTOL


@settings(max_examples=40)
@given(
    m=solve_m_values,
    dt=dts,
    diffusion=st.floats(0.5, 2.0),
    refractory_mode=st.sampled_from(["pass-through", "exponential"]),
    shifts=st.tuples(st.floats(-20.0, 40.0), st.floats(-20.0, 40.0)),
    inflows=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
    seed=st.integers(0, 2**16),
)
@example(m=16, dt=1e-3, diffusion=1.0, refractory_mode="exponential", shifts=(0.0, 3.0), inflows=(0.0, 5.0), seed=0)
@example(m=64, dt=1e-2, diffusion=0.5, refractory_mode="pass-through", shifts=(-20.0, 40.0), inflows=(1.0, 2.0),
         seed=1)
def test_stacked_solve_is_one_solve_per_row(m, dt, diffusion, refractory_mode, shifts, inflows, seed):
    # a (2, dim) stack with a shift and an inflow per row solves each row's
    # own system, as two single solves and the dense solve do
    mats = _mats(m)
    implicit_flux = refractory_mode == "pass-through"
    g = system_matrix(mats, 0.0, diffusion, math.inf, flux_shift_implicit=implicit_flux)
    shifted = ModalSystem.build(g, -mats.B, mats, dt, source=not implicit_flux)
    assert (shifted is None) == (_condition(mats, dt, g) > MAX_MODAL_CONDITION)
    if shifted is None:
        return
    u_old = np.random.default_rng(seed).standard_normal((2, _dim(m)))
    stacked = shifted.solve(u_old, shifts, inflows)
    assert stacked.shape == u_old.shape and stacked.flags.c_contiguous
    for row, row_old, shift, inflow in zip(stacked, u_old, shifts, inflows):
        lhs = system_matrix(mats, shift, diffusion, dt, flux_shift_implicit=implicit_flux)
        rhs = mats.H @ row_old / dt
        if not implicit_flux:
            rhs = rhs + inflow * mats.F
        assert _rel(row, np.linalg.solve(lhs, rhs)) <= SOLVE_RTOL
        assert _rel(row, shifted.solve(row_old, shift, inflow)) <= SOLVE_RTOL


@pytest.mark.parametrize("singular_row", [0, 1])
def test_stacked_solve_fails_on_a_zero_denominator_in_either_row(singular_row):
    mats = _mats(8)
    shifted = _twopop_factor(mats, 1e-3, source=True)
    _make_singular(shifted, 0.5)
    shifts = [0.25, 0.25]
    shifts[singular_row] = 0.5
    u_old = np.random.default_rng(4).standard_normal((2, _dim(8)))
    with pytest.raises(LinearSolveError, match="shift 0.5"):
        shifted.solve(u_old, shifts, (1.0, 2.0))


@settings(max_examples=20)
@given(
    m=st.sampled_from([8, 16, 24]),
    k=st.sampled_from([1, 3, 11]),
    shifts=st.lists(st.floats(-20.0, 40.0), min_size=22, max_size=22),
    seed=st.integers(0, 2**16),
)
@pytest.mark.parametrize("refractory_mode", ["pass-through", "exponential"], ids=["no-source", "source"])
def test_cell_stack_solve_is_each_cell_solved_alone(refractory_mode, m, k, shifts, seed):
    # a lockstep batch solves the (K, 2, dim) stack of its cells' densities,
    # each row at its own shift and inflow, bit for bit as each cell's own
    # (2, dim) solve, and each row as the dense solve does
    mats, dt, source = _mats(m), 1e-4, refractory_mode == "exponential"
    shifted = _twopop_factor(mats, dt, source)
    rng = np.random.default_rng(seed)
    u_old = rng.standard_normal((k, 2, _dim(m)))
    shifts, inflows = np.reshape(shifts[:2 * k], (k, 2)), rng.uniform(0.0, 50.0, (k, 2))
    stacked = shifted.solve(u_old, [tuple(s) for s in shifts], [tuple(i) for i in inflows])
    assert stacked.shape == u_old.shape and stacked.flags.c_contiguous
    for cell, cell_old, shift, inflow in zip(stacked, u_old, shifts, inflows):
        assert np.array_equal(cell, shifted.solve(cell_old, tuple(shift), tuple(inflow)))
    want = _dense_rows(mats, dt, u_old, shifts, inflows, source)
    for row, row_want in zip(stacked.reshape(-1, _dim(m)), want.reshape(-1, _dim(m))):
        assert _rel(row, row_want) <= SOLVE_RTOL


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0)])
def test_cell_stack_solve_keeps_a_non_finite_row_to_its_cell(where, value):
    # every row's arithmetic reads only that row, so a non-finite row
    # touches no other cell; each finite cell keeps its own solve
    mats, dt = _mats(8), 1e-3
    shifted = _twopop_factor(mats, dt, source=True)
    rng = np.random.default_rng(8)
    u_old = rng.standard_normal((3, 2, _dim(8)))
    u_old[where][3] = value
    shifts, inflows = rng.uniform(-20.0, 40.0, (3, 2)), rng.uniform(0.0, 50.0, (3, 2))
    # the non-finite row's inf/inf is the point of the test, so its numpy
    # warnings are silenced, as a run's step loop silences them
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = shifted.solve(u_old, shifts, inflows)
        alone = [shifted.solve(cell_old, shifts[c], inflows[c]) for c, cell_old in enumerate(u_old)]
    assert not np.isfinite(stacked[where]).all()
    for c, (cell, cell_old) in enumerate(zip(stacked, u_old)):
        assert np.array_equal(cell, alone[c], equal_nan=True)
        if c != where[0]:
            want = _dense_rows(mats, dt, cell_old, shifts[c], inflows[c], True)
            for row, row_want in zip(cell, want):
                assert _rel(row, row_want) <= SOLVE_RTOL


def test_cell_stack_solve_keeps_a_huge_row_to_its_cell():
    # a cell whose rows are near overflow (1e300) is solved as its own
    # system, and the cells beside it as theirs
    mats, dt = _mats(8), 1e-3
    shifted = _twopop_factor(mats, dt, source=False)
    u_old = np.random.default_rng(7).standard_normal((3, 2, _dim(8)))
    u_old[1] *= 1e300
    shifts = np.full((3, 2), 2.0)
    stacked = shifted.solve(u_old, shifts)
    assert np.isfinite(stacked).all()
    want = _dense_rows(mats, dt, u_old, shifts, None, False)
    for c in range(3):
        assert np.array_equal(stacked[c], shifted.solve(u_old[c], shifts[c]))
        for row, row_want in zip(stacked[c], want[c]):
            assert np.max(np.abs(row - row_want)) <= SOLVE_RTOL * np.max(np.abs(row_want))


def test_zero_shift_rows_match_the_dense_solve():
    # a population with no drift offset (zero couplings and nu_ext 0, as the
    # inhibitory row of criterion 10) steps at shift 0, where 1 + sigma
    # lambda is 1: its rows take the same arithmetic as every other row
    mats, dt = _mats(16), 1e-3
    shifted = _twopop_factor(mats, dt, source=True)
    rng = np.random.default_rng(9)
    u_old = rng.standard_normal((3, 2, _dim(16)))
    shifts, inflows = np.array([[0.5, 0.0], [0.0, 0.0], [-3.0, 0.0]]), rng.uniform(0.0, 50.0, (3, 2))
    stacked = shifted.solve(u_old, shifts, inflows)
    want = _dense_rows(mats, dt, u_old, shifts, inflows, True)
    for c in range(3):
        assert np.array_equal(stacked[c], shifted.solve(u_old[c], shifts[c], inflows[c]))
        for row, row_want in zip(stacked[c], want[c]):
            assert _rel(row, row_want) <= SOLVE_RTOL
    # a factored run whose inhibitory row keeps shift 0 at every step
    params, n_steps = TwoPopParams(b_e_to_e=0.5), _dim(8) + 5
    rec = solve_twopop(IC, IC_I, params, _mats(8), dt, n_steps * dt, blowup_threshold=np.inf)
    series, _, _ = _dense_twopop(params, _mats(8), dt, n_steps)
    for key, want in series.items():
        _close(rec.columns[key], want)


def test_zero_and_tiny_shift_rows_in_one_stack_match_the_dense_solve():
    # rows at shift 0 and 1e-9 share a stack with rows at ordinary shifts:
    # each matches its dense solve, and each cell its own solve
    mats, dt = _mats(8), 1e-3
    shifted = _twopop_factor(mats, dt, source=True)
    rng = np.random.default_rng(10)
    u_old = rng.standard_normal((3, 2, _dim(8)))
    shifts, inflows = np.array([[0.5, 0.0], [1e-9, 0.0], [-3.0, 1e-9]]), rng.uniform(0.0, 50.0, (3, 2))
    stacked = shifted.solve(u_old, shifts, inflows)
    want = _dense_rows(mats, dt, u_old, shifts, inflows, True)
    for c in range(3):
        assert np.array_equal(stacked[c], shifted.solve(u_old[c], shifts[c], inflows[c]))
        for row, row_want in zip(stacked[c], want[c]):
            assert _rel(row, row_want) <= SOLVE_RTOL


@pytest.mark.parametrize("singular", [(0, 0), (0, 1), (1, 0), (2, 1)])
def test_cell_stack_solve_fails_on_a_zero_denominator_in_any_row(singular):
    mats = _mats(8)
    shifted = _twopop_factor(mats, 1e-3, source=True)
    _make_singular(shifted, 0.5)
    shifts = np.full((3, 2), 0.25)
    shifts[singular] = 0.5
    u_old = np.random.default_rng(6).standard_normal((3, 2, _dim(8)))
    with pytest.raises(LinearSolveError, match="shift 0.5"):
        shifted.solve(u_old, shifts, np.ones((3, 2)))


def test_singular_shift_ends_only_its_cell_of_a_lockstep_batch():
    # one cell's first E shift is singular: that cell ends "solver-failure"
    # at the step where it fails alone, and the others step on, each bit for
    # bit its run alone
    mats, dt = _mats(8), 1e-3
    n_steps = _dim(8) + 10
    shifted = _twopop_factor(mats, dt, source=False)
    steppers = [_TwoPop((IC, IC_I), TwoPopParams(b_e_to_e=b, b_e_to_i=0.5), Spectral(mats), dt, shifted)
                for b in (0.5, 1.0, 2.0)]
    started = steppers[1].start([np.empty(n_steps + 1), np.empty(n_steps + 1)])
    (drift_e, _), _ = coefficients(steppers[1].params, delayed_rates(started, steppers[1].lags))
    _make_singular(shifted, drift_e)
    batch = integrate(steppers, dt, n_steps * dt)
    assert [rec.status for rec in batch] == [STATUS_COMPLETED, STATUS_SOLVER_FAILURE, STATUS_COMPLETED]
    assert batch[1].times.size == 1
    for rec, stepper in zip(batch, steppers):
        alone = integrate([stepper], dt, n_steps * dt)[0]
        assert (rec.status, rec.times.size) == (alone.status, alone.times.size)
        for name, column in alone.columns.items():
            assert np.array_equal(rec.columns[name], column), name


# --- factored runs against the dense step loop -----------------------------


@settings(max_examples=25)
@given(m=m_values, dt=dts, params=onepop_params, extra=st.integers(1, 30))
def test_onepop_factored_run_matches_dense_loop(m, dt, params, extra):
    mats = _mats(m)
    n_steps = 2 * _dim(m) + extra
    t_final = n_steps * dt
    rec = solve(IC, params, mats, dt, t_final, snapshot_times=(t_final,), blowup_threshold=np.inf)
    assert rec.status == STATUS_COMPLETED
    rates, masses, u_final = _dense_onepop(params, mats, dt, n_steps)
    _close(rec.columns["rate"], rates)
    _close(rec.columns["mass"], masses)
    _close(rec.snapshots[0].density, _density(mats, u_final))


@settings(max_examples=25)
@given(
    m=m_values,
    dt=dts,
    drawn=st.sampled_from(["pass-through", "exponential"]).flatmap(twopop_params),
    extra=st.integers(1, 30),
)
def test_twopop_factored_run_matches_dense_loop(m, dt, drawn, extra):
    params, lag = drawn
    params = _with_delays(params, lag, dt)
    mats = _mats(m)
    n_steps = _dim(m) + extra
    t_final = n_steps * dt
    rec = solve_twopop(IC, IC_I, params, mats, dt, t_final, blowup_threshold=np.inf, snapshot_times=(t_final,))
    assert rec.status == STATUS_COMPLETED
    series, u_e, u_i = _dense_twopop(params, mats, dt, n_steps)
    for key, want in series.items():
        _close(rec.columns[key], want)
    _close(rec.snapshots[0].density[0], _density(mats, u_e))
    _close(rec.snapshots[0].density[1], _density(mats, u_i))


# --- path selection ------------------------------------------------------------


def _count_factors(monkeypatch) -> list:
    """The factors that ``solve`` (a ShiftedSystem) and ``solve_twopop``
    (a ModalSystem) build from now on, in order."""
    built = []

    class Counted(ShiftedSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    class CountedModal(ModalSystem):
        @classmethod
        def build(cls, *args, **kwargs):
            factor = super().build(*args, **kwargs)
            if factor is not None:
                built.append(factor)
            return factor

    monkeypatch.setattr(onepop, "ShiftedSystem", Counted)
    monkeypatch.setattr(twopop, "ModalSystem", CountedModal)
    return built


def _steppers(monkeypatch) -> list:
    """The steppers that ``solve_twopop`` hands the loop from now on, which
    then runs none of them."""
    handed = []

    def integrate(steppers, *args):
        handed.extend(steppers)
        return [None] * len(steppers)

    monkeypatch.setattr(twopop, "integrate", integrate)
    return handed


def test_fast_path_only_past_2dim_solves(monkeypatch):
    # the solve function builds the run's factor before its loop, once the
    # run makes more than 2 dim solves: one per step and population
    mats, dim, dt = _mats(8), _dim(8), 1e-3
    built = _count_factors(monkeypatch)
    for n_steps, factored in ((2 * dim, False), (2 * dim + 1, True)):
        built.clear()
        solve(IC, OnePopParams(1.0, 0.1, 0.5), mats, dt, n_steps * dt)
        assert len(built) == factored

    constant = TwoPopParams(b_e_to_e=0.5, b_e_to_i=0.5)
    model = replace(constant, diffusion_mode="model", d_e_to_e=0.5, d_e_to_i=0.5, nu_ext=2.0)
    for params, n_steps, factored in ((constant, dim, False), (constant, dim + 1, True), (model, dim + 1, False)):
        built.clear()
        solve_twopop(IC, IC_I, params, mats, dt, n_steps * dt)
        assert len(built) == factored


def test_factored_sweep_builds_one_factor_its_cells_share(monkeypatch):
    mats, dt = _mats(8), 1e-3
    built, handed = _count_factors(monkeypatch), _steppers(monkeypatch)
    params = [TwoPopParams(b_e_to_e=b, b_e_to_i=0.5) for b in (0.5, 1.0, 2.0)]
    solve_twopop(IC, IC_I, params, mats, dt, (_dim(8) + 1) * dt)
    assert len(built) == 1
    assert [cell.params for cell in handed] == params
    assert all(cell.shifted is built[0] for cell in handed)


@pytest.mark.parametrize("extra", [-20, 0])
def test_short_onepop_run_is_the_dense_loop(extra):
    mats = _mats(8)
    params, dt = OnePopParams(1.0, 0.1, 0.5), 1e-3
    n_steps = 2 * _dim(8) + extra
    t_final = n_steps * dt
    rec = solve(IC, params, mats, dt, t_final, snapshot_times=(t_final,))
    rates, masses, u_final = _dense_onepop(params, mats, dt, n_steps)
    assert np.array_equal(rec.columns["rate"], rates)
    assert np.array_equal(rec.columns["mass"], masses)
    assert np.array_equal(rec.snapshots[0].density, _density(mats, u_final))


@pytest.mark.parametrize(
    "params, extra",
    [
        (TwoPopParams(b_e_to_e=1.0, b_e_to_i=0.5, b_i_to_e=0.75, delay_e_to_e=2e-3, delay_i_to_e=1e-3), 0),
        (TwoPopParams(b_e_to_e=1.0, b_e_to_i=0.5, b_i_to_e=0.75, diffusion_mode="model", d_e_to_e=0.5,
                      d_e_to_i=0.5, d_i_to_e=0.25, d_i_to_i=0.25, nu_ext=2.0, delay_e_to_e=2e-3,
                      refractory_mode="exponential", tau_e=0.02, tau_i=0.02), 20),
    ],
    ids=["short-constant", "long-model-mode"],
)
def test_dense_twopop_runs_are_the_dense_loop(params, extra):
    mats = _mats(8)
    dt = 1e-3
    n_steps = _dim(8) + extra
    t_final = n_steps * dt
    rec = solve_twopop(IC, IC_I, params, mats, dt, t_final, snapshot_times=(t_final,))
    series, u_e, u_i = _dense_twopop(params, mats, dt, n_steps)
    for key, want in series.items():
        assert np.array_equal(rec.columns[key], want), key
    assert np.array_equal(rec.snapshots[0].density[0], _density(mats, u_e))
    assert np.array_equal(rec.snapshots[0].density[1], _density(mats, u_i))


def test_run_refused_a_modal_factor_is_the_dense_loop(monkeypatch):
    # at M = 64, dt = 1e-2 and diffusion 0.5 the eigenvector basis of
    # K0^-1 (-B) has kappa_2 near 2e5, and a modal solve would miss
    # SOLVE_RTOL: a run long enough to factor its operator builds no factor,
    # hands its stepper none and gives the dense loop's bytes
    mats, dt = _mats(64), 1e-2
    params = TwoPopParams(b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.75, diffusion_constant=0.5)
    g = system_matrix(mats, 0.0, 0.5, math.inf)
    assert _condition(mats, dt, g) > 100 * MAX_MODAL_CONDITION
    n_steps = _dim(64) + 1
    t_final = n_steps * dt
    assert onepop.factor_pays_off(2 * n_steps, mats)
    built = _count_factors(monkeypatch)
    rec = solve_twopop(IC, IC_I, params, mats, dt, t_final, snapshot_times=(t_final,))
    assert built == []
    assert rec.status == STATUS_COMPLETED and rec.times.size == n_steps + 1
    series, u_e, u_i = _dense_twopop(params, mats, dt, n_steps)
    for key, want in series.items():
        assert np.array_equal(rec.columns[key], want), key
    assert np.array_equal(rec.snapshots[0].density[0], _density(mats, u_e))
    assert np.array_equal(rec.snapshots[0].density[1], _density(mats, u_i))


def test_zero_shift_denominator_is_a_solver_failure():
    mats = _mats(8)
    params, dt = OnePopParams(1.0, 0.1, 0.5), 1e-3
    n_steps = 2 * _dim(8) + 10
    e = params.a1 * (mats.C + mats.D) - params.b * mats.B
    shifted = ShiftedSystem(system_matrix(mats, 0.0, params.a0, math.inf), e, mats, dt)
    stepper = _OnePop(IC, params, Spectral(mats), dt, shifted)
    started = stepper.start([])
    # the eigenvalue -1 / rate makes 1 + rate * lambda exactly zero at the initial rate
    shifted.t[0, 0] = -1.0 / started.rate
    assert 1.0 + started.rate * shifted.t[0, 0] == 0.0
    run = integrate([stepper], dt, n_steps * dt)[0]
    assert run.status == STATUS_SOLVER_FAILURE
    assert run.times.size == 1
    with pytest.raises(LinearSolveError):
        step(started, params, Spectral(mats), dt, shifted)


def test_singular_dense_system_is_a_solver_failure(monkeypatch):
    mats = _mats(8)
    dt = 1e-3
    # every dense step of both models builds its operator through this one function
    monkeypatch.setattr(onepop, "system_matrix", lambda matrices, *args, **kwargs: np.zeros_like(matrices.H))
    params = OnePopParams(1.0, 0.1, 0.5)
    with pytest.raises(LinearSolveError):
        step(_OnePop(IC, params, Spectral(mats), dt).start([np.empty(2)]), params, Spectral(mats), dt)
    # pass-through folds the inflow into the operator, exponential recovery adds it as a source
    for refractory_mode in ("pass-through", "exponential"):
        params2 = TwoPopParams(b_e_to_e=1.0, refractory_mode=refractory_mode, tau_e=0.02, tau_i=0.02)
        state = _TwoPop((IC, IC_I), params2, Spectral(mats), dt).start([np.empty(2), np.empty(2)])
        with pytest.raises(LinearSolveError):
            step_twopop([state], [params2], Spectral(mats), dt)
        # a short run solves densely and ends at its first step
        run = solve_twopop(IC, IC_I, params2, mats, dt, 5 * dt)
        assert run.status == STATUS_SOLVER_FAILURE
        assert run.times.size == 1
    run = solve(IC, params, mats, dt, 5 * dt)
    assert run.status == STATUS_SOLVER_FAILURE
    assert run.times.size == 1


def test_solves_leave_the_factors_unchanged():
    mats = _mats(8)
    params, dt = OnePopParams(1.0, 0.1, 0.5), 1e-3
    e = params.a1 * (mats.C + mats.D) - params.b * mats.B
    one_row = ShiftedSystem(system_matrix(mats, 0.0, params.a0, math.inf), e, mats, dt)
    stack = np.random.default_rng(3).standard_normal((2, _dim(8)))
    stack_copy = stack.copy()
    u_old = stack[0]
    shifts = (0.0, 0.25, -3.0, 40.0)
    # the one-row system solves rows, the modal one rows and stacks
    for shifted, stacks, names in ((one_row, False, ["t", "w", "zr"]),
                                   (_twopop_factor(mats, dt, source=False), True, ["lam", "v", "w"])):
        if not stacks:
            assert shifted.t.flags.f_contiguous
        _make_singular(shifted, 0.5)
        # every array the system stores is a factor that no solve may write
        factors = {name: value.copy() for name, value in vars(shifted).items() if isinstance(value, np.ndarray)}
        assert sorted(factors) == names
        first = [shifted.solve(u_old, sigma) for sigma in shifts]
        first_stacked = shifted.solve(stack, shifts[2:]) if stacks else None
        for _ in range(50):
            with pytest.raises(LinearSolveError):
                shifted.solve(u_old, 0.5)
            for sigma, want in zip(shifts, first):
                assert np.array_equal(shifted.solve(u_old, sigma), want)
            if stacks:
                with pytest.raises(LinearSolveError):
                    shifted.solve(stack, (0.25, 0.5))
                assert np.array_equal(shifted.solve(stack, shifts[2:]), first_stacked)
        for name, want in factors.items():
            assert np.array_equal(getattr(shifted, name), want), name
        assert np.array_equal(stack, stack_copy)
