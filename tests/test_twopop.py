import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nnlif.assembly import assemble, normalize_gaussian, project_initial
from nnlif.basis import BasisSet
from nnlif.errors import ConfigurationError, NonpositiveDiffusionError, SingularFiringRateError
from nnlif.fdm import FdmGrid
from nnlif.onepop import OnePopParams, Spectral, factor_pays_off, solve
from nnlif import twopop
from nnlif.twopop import (
    TwoPopParams,
    TwoPopState,
    coefficients,
    delayed_rates,
    recovery,
    solve_twopop,
    step_twopop,
)


@pytest.fixture(scope="module")
def m16(domain):
    basis = BasisSet(domain, 16)
    return basis, assemble(basis)


def _decoupled(b_e_to_e=0.5, diffusion_constant=1.0):
    return TwoPopParams(
        b_e_to_e=b_e_to_e,
        diffusion_mode="constant",
        diffusion_constant=diffusion_constant,
        refractory_mode="pass-through",
    )


@cache
def _matrices(domain, m):
    return assemble(BasisSet(domain, m))


# --- delayed lookups over recorded rates ------------------------------------


def lagged_rate(recorded, current, n, lag):
    """The rate that every population sees at step n through a delay of
    ``lag`` steps, with ``recorded`` as the history and ``current`` as the
    rate of both populations; the four lookups must agree."""
    state = TwoPopState(u=None, mass=(1.0, 1.0), r=(0.0, 0.0), step_index=n, rate=(current, current),
                        history=(recorded, recorded))
    (ee, ie), (ei, ii) = delayed_rates(state, ((lag, lag), (lag, lag)))
    assert ee == ie == ei == ii
    return ee


def test_history_lag_zero_returns_most_recent():
    recorded = np.array([0.1, 0.2])
    assert lagged_rate(recorded, 0.3, 2, 0) == 0.3


def test_history_clamps_to_first_step():
    recorded = np.array([7.0, 1.0, 1.0])
    assert lagged_rate(recorded, 1.0, 3, 10) == 7.0  # lag 10 from step 3 -> step 0


def test_history_direct_index_arithmetic():
    recorded = np.arange(10.0)
    assert lagged_rate(recorded, 10.0, 10, 4) == 6.0  # lag 4 from step 10 -> step 6


def test_history_shift_invariance(rng):
    # shifting the lookup step by k while adding k to the lag reads the
    # same recorded sample, clamped region included (exact index arithmetic)
    recorded = rng.standard_normal(40)
    for lag in (0, 3, 7):
        for k in (1, 5, 9):
            for n in range(0, 30 - k):
                a = lagged_rate(recorded, recorded[n], n, lag)
                b = lagged_rate(recorded, recorded[n + k], n + k, lag + k)
                assert a == b


def test_delay_must_divide_dt(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    with pytest.raises(ConfigurationError):
        solve_twopop(ic, ic, TwoPopParams(delay_e_to_e=0.05), mats, dt=0.02, t_final=0.1)


# --- coefficients and recovery ----------------------------------------------


def test_external_offset_vanishes_for_excitatory():
    params = TwoPopParams(b_e_to_e=2.0, b_e_to_i=3.0, b_i_to_e=1.0, b_i_to_i=0.5, nu_ext=7.0)
    (v_e, v_i), _ = coefficients(params, [[0.0, 0.0]] * 2)
    assert v_e == 0.0
    assert v_i == (3.0 - 2.0) * 7.0


def test_drift_offsets_zero_without_input():
    params = TwoPopParams(b_e_to_e=2.0, b_e_to_i=3.0, b_i_to_e=1.0, b_i_to_i=0.5)
    for v, a in zip(*coefficients(params, [[0.0, 0.0]] * 2)):
        assert v == 0.0
        assert a == 1.0


def test_constant_diffusion_mode():
    params = TwoPopParams(diffusion_constant=1.0)
    for a in coefficients(params, [[0.7, 0.3]] * 2)[1]:
        assert a == 1.0


def test_model_diffusion_mode():
    params = TwoPopParams(
        d_e_to_e=0.2, d_e_to_i=0.1, d_i_to_e=0.3, d_i_to_i=0.4,
        nu_ext=2.0, diffusion_mode="model",
    )
    _, (a_e, a_i) = coefficients(params, [[1.0, 2.0]] * 2)
    assert a_e == pytest.approx(0.2 * (2.0 + 1.0) + 0.3 * 2.0)
    assert a_i == pytest.approx(0.1 * (2.0 + 1.0) + 0.4 * 2.0)


def test_nonpositive_diffusion_rejected():
    params = TwoPopParams(diffusion_mode="model", d_e_to_e=0.1)
    with pytest.raises(NonpositiveDiffusionError):
        coefficients(params, [[0.0, 0.0]] * 2)


def test_recovery_modes():
    exp = TwoPopParams(tau_e=0.025, tau_i=0.05, refractory_mode="exponential")
    assert recovery((0.0, 0.0), (1.0, 1.0), exp)[0] == 0.0
    assert recovery((0.05, 0.05), (1.0, 1.0), exp)[0] == pytest.approx(2.0)
    assert recovery((0.05, 0.05), (1.0, 1.0), exp)[1] == pytest.approx(1.0)
    passthrough = TwoPopParams(refractory_mode="pass-through")
    assert recovery((0.33, 0.33), (0.7, 0.7), passthrough)[0] == 0.7


def test_params_validation():
    with pytest.raises(ValueError):
        TwoPopParams(b_e_to_e=-1.0)
    with pytest.raises(ValueError):
        TwoPopParams(refractory_mode="exponential", tau_e=0.0, tau_i=1.0)
    with pytest.raises(ValueError):
        TwoPopParams(diffusion_mode="nonsense")
    with pytest.raises(ConfigurationError):
        TwoPopParams(delay_e_to_e=0.05).delay_lags(0.02)


def test_pairs_are_indexed_target_then_source():
    # four distinct delays and couplings: a transposed table or lookup reads
    # another history entry or coupling than the one asserted
    dt = 0.01
    params = TwoPopParams(
        b_e_to_e=1.0, b_e_to_i=2.0, b_i_to_e=3.0, b_i_to_i=5.0,
        d_e_to_e=0.1, d_e_to_i=0.2, d_i_to_e=0.3, d_i_to_i=0.5,
        delay_e_to_e=0.01, delay_e_to_i=0.02, delay_i_to_e=0.03, delay_i_to_i=0.04,
        nu_ext=7.0, diffusion_mode="model",
    )
    lags = params.delay_lags(dt)
    assert lags == ((1, 3), (2, 4))
    history = (np.arange(10.0) + 100.0, np.arange(10.0) + 200.0)
    n = 8
    state = TwoPopState(u=(None, None), mass=(1.0, 1.0), r=(0.0, 0.0), step_index=n, rate=(-1.0, -2.0),
                        history=history)
    delayed = twopop.delayed_rates(state, lags)
    # delayed[y][x]: the rate of source x that target y sees, from step n - lag
    assert delayed == [[history[0][n - 1], history[1][n - 3]], [history[0][n - 2], history[1][n - 4]]]
    drift, diffusion = coefficients(params, delayed)
    assert drift[0] == 1.0 * 107.0 - 3.0 * 205.0
    assert drift[1] == 2.0 * 106.0 - 5.0 * 204.0 + (2.0 - 1.0) * 7.0
    assert diffusion[0] == pytest.approx(0.1 * (7.0 + 107.0) + 0.3 * 205.0)
    assert diffusion[1] == pytest.approx(0.2 * (7.0 + 106.0) + 0.5 * 204.0)
    # the implicit rate relations of step n read the same entries
    rates = twopop._resolve_rates(params, n, (-1.0, -2.0), lags, history)
    assert rates[0] == pytest.approx(1.0 * (0.1 * (7.0 + 107.0) + 0.3 * 205.0))
    assert rates[1] == pytest.approx(2.0 * (0.2 * (7.0 + 106.0) + 0.5 * 204.0))


# --- readout -----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([8, 16, 24]), k=st.sampled_from([1, 3, 11]), seed=st.integers(0, 2**16))
def test_readout_reads_each_cell_as_alone(domain, m, k, seed):
    # a lockstep batch reads every cell's slopes and masses from one product
    # of its (K, 2, dim) stack with the (dim, 2) readout matrix: each cell's
    # slice is what the space's readout of that cell alone gives, and each
    # row reads as the space's slope and mass, to rounding of the dot products
    space = Spectral(_matrices(domain, m))
    rng = np.random.default_rng(seed)
    dim = space.matrices.H.shape[0]
    cells = rng.standard_normal((k, 2, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 2, 1))
    read = cells @ space.matrices.readout
    assert read.shape == (k, 2, 2)
    for cell, cell_read in zip(cells, read):
        assert np.array_equal(cell_read, space.readout(cell))
        for row, (slope, mass) in zip(cell, cell_read):
            assert abs(slope - space.slope(row)) <= 1e-13 * (np.abs(space.matrices.slope) @ np.abs(row))
            assert abs(mass - space.mass(row)) <= 1e-13 * (np.abs(space.matrices.mass) @ np.abs(row))
    grid = FdmGrid.build(domain, h=1.0 / 2 ** rng.integers(2, 6))
    for cell in (tuple(rng.standard_normal((2, grid.n_cells))) for _ in range(k)):
        assert grid.readout(cell) == [(grid.slope(row), grid.mass(row)) for row in cell]


# --- stepping ----------------------------------------------------------------


def test_zero_state_stays_zero(m16):
    basis, mats = m16
    params = _decoupled(b_e_to_e=1.0)
    dim = basis.dim
    state = TwoPopState(
        u=(np.zeros(dim), np.zeros(dim)), mass=(0.0, 0.0), r=(0.0, 0.0),
        step_index=0, rate=(0.0, 0.0),
    )
    out = step_twopop(state, params, Spectral(mats), 1e-3)
    assert np.array_equal(out.u[0], np.zeros(dim))
    assert np.array_equal(out.u[1], np.zeros(dim))
    assert out.r[0] == 0.0 and out.r[1] == 0.0


@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
def test_step_leaves_its_input_state_unchanged(m16, domain, factored, monkeypatch):
    # the loop keeps the states it snapshots, so a step that wrote into its
    # input's (2, dim) array would rewrite them; with 2-step delays and
    # exponential recovery the step reads history entries and a source term
    basis, mats = m16
    dt, n_steps = 1e-3, 12 if not factored else basis.dim + 2
    params = TwoPopParams(
        b_e_to_e=1.0, b_e_to_i=0.5, b_i_to_e=0.75, b_i_to_i=0.25, nu_ext=2.0, tau_e=0.025, tau_i=0.05,
        delay_e_to_e=2 * dt, delay_e_to_i=2 * dt, delay_i_to_e=2 * dt, delay_i_to_i=2 * dt,
        refractory_mode="exponential",
    )
    # the stepper solve_twopop builds for the run, which holds its factor
    handed = []
    monkeypatch.setattr(twopop, "integrate", lambda steppers, *args: handed.extend(steppers) or [None])
    twopop.solve_twopop(normalize_gaussian(-1.0, 0.5, domain), normalize_gaussian(0.0, 0.25, domain), params, mats,
                        dt, n_steps * dt)
    (stepper,) = handed
    history = (np.zeros(n_steps + 1), np.zeros(n_steps + 1))
    state = stepper.start(history)
    assert (stepper.shifted is not None) == factored
    for n in range(6):
        history[0][n], history[1][n] = state.rate
        state = stepper.step(state)
    assert state.u.shape == (2, basis.dim) and state.u.flags.c_contiguous
    u_bytes, history_bytes = state.u.tobytes(), [h.tobytes() for h in history]
    out = step_twopop(state, params, Spectral(mats), dt, stepper.lags, stepper.shifted)
    assert state.u.tobytes() == u_bytes
    assert [h.tobytes() for h in history] == history_bytes
    assert out.u.shape == state.u.shape and out.u.flags.c_contiguous
    assert not np.shares_memory(out.u, state.u)


@pytest.mark.parametrize(
    "name, value", [("diffusion_mode", "model"), ("diffusion_constant", 2.0), ("refractory_mode", "exponential")]
)
def test_batch_cells_must_share_their_operator(m16, domain, name, value):
    # the cells of a batch step on one operator, factored or not, so a batch
    # whose cells would need two is refused rather than stepped cell by cell
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    cell = TwoPopParams(b_e_to_e=0.5, d_e_to_e=0.5, d_e_to_i=0.5, nu_ext=2.0, tau_e=0.02, tau_i=0.02)
    with pytest.raises(ConfigurationError, match=name):
        solve_twopop(ic, ic, [cell, replace(cell, b_e_to_e=1.0, **{name: value})], mats, 1e-3, 0.1)


def test_discarded_probe_step_leaves_trajectory_unchanged(m16, domain, monkeypatch):
    # one step of the run is preceded by a probe step from the same state
    # whose result is thrown away; with 1-step delays anything the probe
    # leaves behind would shift the delayed rates of the following steps
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = 1e-3
    params = TwoPopParams(
        b_e_to_e=3.5, b_e_to_i=4.0, b_i_to_e=0.75, b_i_to_i=3.0,
        nu_ext=20.0, tau_e=0.025, tau_i=0.025,
        delay_e_to_e=dt, delay_e_to_i=dt, delay_i_to_e=dt, delay_i_to_i=dt,
        refractory_mode="exponential",
    )
    plain = solve_twopop(ic, ic, params, mats, dt=dt, t_final=0.05)
    original = twopop.step_twopop

    def probing(state, *args):
        if state.step_index == 10:
            original(state, *args)
        return original(state, *args)

    monkeypatch.setattr(twopop, "step_twopop", probing)
    probed = solve_twopop(ic, ic, params, mats, dt=dt, t_final=0.05)
    for name, column in plain.columns.items():
        assert np.array_equal(probed.columns[name], column), name


def test_unresolvable_rates_end_the_run_at_their_step(m16, domain, monkeypatch):
    # the step that meets a rate system with no solution is not recorded:
    # the run keeps the k states before it, each with finite rates
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    k = 7
    original = twopop._resolve_rates

    def failing(params, n, *args):
        if n == k:
            raise SingularFiringRateError(f"no rates at step {n}")
        return original(params, n, *args)

    monkeypatch.setattr(twopop, "_resolve_rates", failing)
    rec = solve_twopop(ic, ic, _decoupled(), mats, dt=1e-3, t_final=0.02)
    assert rec.status == "solver-failure"
    assert rec.times.size == k
    assert np.all(np.isfinite(rec.columns["rate_e"])) and np.all(np.isfinite(rec.columns["rate_i"]))


@settings(max_examples=100, deadline=None)
@given(
    d=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
    nu_ext=st.floats(0.0, 3.0),
    slopes=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    lags=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    history=st.lists(st.floats(0.0, 10.0), min_size=6, max_size=6),
)
def test_rate_system_matches_a_dense_solve(d, nu_ext, slopes, lags, history):
    # model mode at step 3: a lag-0 lookup is an unknown, a delayed one a
    # history entry; the affine system is built here from its definition
    dt, n, names = 0.01, 3, ("e_to_e", "i_to_e", "e_to_i", "i_to_i")
    params = TwoPopParams(**{f"d_{name}": value for name, value in zip(names, d)},
                          **{f"delay_{name}": lag * dt for name, lag in zip(names, lags)},
                          nu_ext=nu_ext, diffusion_mode="model")
    table, columns = params.delay_lags(dt), (history[:3] + [0.0], history[3:] + [0.0])
    mat, rhs = np.eye(2), np.array([-slopes[0] * params.d_e_to_e * nu_ext, -slopes[1] * params.d_e_to_i * nu_ext])
    for y in range(2):
        for x in range(2):
            coupling = slopes[y] * params.tables["d"][y][x]
            if table[y][x] == 0:
                mat[y, x] += coupling
            else:
                rhs[y] -= coupling * columns[x][n - table[y][x]]
    assume(np.linalg.cond(mat) < 1e3)
    want = np.linalg.solve(mat, rhs)
    got = np.array(twopop._resolve_rates(params, n, slopes, table, columns))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


def test_rate_system_raises_typed_errors_only():
    # model diffusion, no delays: row y of the system is N_y + s_y a_y = ...
    params = TwoPopParams(d_e_to_e=1.0, d_i_to_i=1.0, nu_ext=1.0, diffusion_mode="model")
    lags, history = params.delay_lags(1e-3), ([0.0], [0.0])
    # a finite singular system, 1 + s_e d_e_to_e = 0
    with pytest.raises(SingularFiringRateError):
        twopop._resolve_rates(params, 0, [-1.0, 0.5], lags, history)
    # a non-finite slope, with the other row singular, leaves the rates to
    # the run's finiteness check
    assert all(map(math.isnan, twopop._resolve_rates(params, 0, [math.nan, -1.0], lags, history)))
    # det rounds to -1.5e-11, past the 1e-12 singularity test, and Cramer's
    # rule solves the system from it; no raw error escapes
    rounded = TwoPopParams(d_e_to_e=559.6394622302311, d_i_to_e=955.4173266933418, d_e_to_i=229.74365144767037,
                           d_i_to_i=390.51911358098494, diffusion_mode="model")
    assert twopop._resolve_rates(rounded, 0, [1.0, 1.0], lags, history) == (0.0, 0.0)


def test_reduction_to_single_population(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    rec1 = solve(ic, OnePopParams(a0=1.0, a1=0.0, b=0.5), mats, dt=1e-3, t_final=0.1)
    rec2 = solve_twopop(ic, ic, _decoupled(0.5), mats, dt=1e-3, t_final=0.1)
    assert np.max(np.abs(rec2.columns["rate_e"] - rec1.columns["rate"])) <= 1e-10
    assert np.max(np.abs(rec2.columns["mass_e"] - rec1.columns["mass"])) <= 1e-10


@pytest.mark.parametrize(
    "dt, t_final, factored",
    # at M in [4, 16] (dim 9..33): 5 steps always solve densely, 100 steps
    # (one population) and 2 x 100 (two) always factor
    [(0.01, 0.05, False), (1e-3, 0.1, True)],
    ids=["dense", "factored"],
)
@settings(max_examples=20)
@given(
    a0=st.floats(0.2, 2.0),
    b=st.floats(0.0, 1.0),
    ic_e=st.tuples(st.floats(-2.0, 0.5), st.floats(0.1, 1.0)),
    ic_i=st.tuples(st.floats(-2.0, 0.5), st.floats(0.1, 1.0)),
    m=st.integers(4, 16),
)
def test_reduction_to_single_population_at_random_parameters(domain, dt, t_final, factored, a0, b, ic_e, ic_i, m):
    # E driven only by itself, with constant diffusion a0 and no delay, input
    # or refractory hold, is the one-population model (a0, a1 = 0, b)
    mats = _matrices(domain, m)
    ic = normalize_gaussian(*ic_e, domain)
    rec1 = solve(ic, OnePopParams(a0=a0, a1=0.0, b=b), mats, dt=dt, t_final=t_final)
    rec2 = solve_twopop(ic, normalize_gaussian(*ic_i, domain), _decoupled(b, a0), mats, dt=dt, t_final=t_final)
    assert factor_pays_off(rec1.times.size - 1, mats) == factored
    assert factor_pays_off(2 * (rec2.times.size - 1), mats) == factored
    assert rec1.status == rec2.status == "completed"
    assert np.max(np.abs(rec2.columns["rate_e"] - rec1.columns["rate"])) <= 1e-10
    assert np.max(np.abs(rec2.columns["mass_e"] - rec1.columns["mass"])) <= 1e-10


def test_refractory_balance_identity(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(
        b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.25, b_i_to_i=0.25,
        tau_e=0.025, tau_i=0.025, refractory_mode="exponential",
    )
    rec = solve_twopop(ic, ic, params, mats, dt=1e-3, t_final=0.1)
    dt = 1e-3
    # replay the forward-Euler balance from the recorded rates; the stored
    # refractory series must match bit for bit
    for tag, r_series, n_series, tau in (
        ("e", rec.columns["refractory_e"], rec.columns["rate_e"], 0.025),
        ("i", rec.columns["refractory_i"], rec.columns["rate_i"], 0.025),
    ):
        replay = np.empty_like(r_series)
        replay[0] = 0.0
        for n in range(r_series.size - 1):
            replay[n + 1] = replay[n] + dt * (n_series[n] - replay[n] / tau)
        assert np.array_equal(replay, r_series), tag


def test_combined_mass_conserved_exponential_mode(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(
        b_e_to_e=3.5, b_e_to_i=4.0, b_i_to_e=0.75, b_i_to_i=3.0,
        nu_ext=20.0, tau_e=0.025, tau_i=0.025,
        delay_e_to_e=0.1, delay_e_to_i=0.1, delay_i_to_e=0.1, delay_i_to_i=0.1,
        refractory_mode="exponential",
    )
    rec = solve_twopop(ic, ic, params, mats, dt=1e-3, t_final=0.5)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.columns["mass_e"] + rec.columns["refractory_e"] - 1.0)) < 1e-2
    assert np.max(np.abs(rec.columns["mass_i"] + rec.columns["refractory_i"] - 1.0)) < 1e-2


@pytest.mark.parametrize("mode", ["exponential", "pass-through"])
def test_balance_law_of_each_recovery_mode(domain, mode):
    # The density step loses dt N^{n+1} through the threshold.  Exponential
    # recovery adds dt N^n to R (forward Euler), so mass + R + dt N is what
    # the scheme keeps; pass-through folds the inflow into the step, so
    # mass + R is.  The first step moves both by 1.93e-4, the error of the
    # projected Gaussian that reaches past V_F, so the laws hold from step 1.
    # Measured from step 1: the law drifts by 6.09e-9 (exponential) and
    # 6.19e-9 (pass-through); mass + R drifts by 1.09e-2 in exponential mode.
    ic = normalize_gaussian(0.498, 0.958, domain)
    params = TwoPopParams(tau_e=0.025, tau_i=0.025, refractory_mode=mode)
    dt = 0.01
    rec = solve_twopop(ic, ic, params, _matrices(domain, 24), dt=dt, t_final=0.5)
    assert rec.status == "completed"
    for pop in ("e", "i"):
        mass_r = (rec.columns[f"mass_{pop}"] + rec.columns[f"refractory_{pop}"])[1:]
        law = mass_r + dt * rec.columns[f"rate_{pop}"][1:] if mode == "exponential" else mass_r
        assert np.ptp(law) <= 1e-7, pop
        if mode == "exponential":
            assert np.ptp(mass_r) > 1e-3, pop


# bound on the drift of the balance law below from step 1 on: twice the
# largest drift measured over runs at the 8,192 corners of its draw ranges
# (τ 0.01 and 0.1, the I Gaussian fixed at (0.25, 0.75)), 1.0e-3
# (exponential, dense, M = 12, dt 5e-3); 1,600 random runs in the
# same ranges drifted by at most 4.5e-4.  Mass + R in exponential mode, and
# mass + R + dt N in pass-through mode, drift by more than the bound in
# about 60% of the populations of those random runs.
BALANCE_DRIFT = 2e-3


@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
@pytest.mark.parametrize("mode", ["exponential", "pass-through"])
@settings(max_examples=15)
@given(
    couplings=st.tuples(*[st.floats(0.0, 1.0)] * 4),
    nu_ext=st.floats(0.0, 2.0),
    diffusion=st.floats(0.5, 1.0),
    taus=st.tuples(st.floats(0.01, 0.1), st.floats(0.01, 0.1)),
    lag=st.integers(0, 3),
    ic_e=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)),
    ic_i=st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)),
    m=st.integers(12, 24),
    dt=st.sampled_from([2e-3, 5e-3]),
    extra=st.integers(0, 20),
)
def test_balance_law_at_random_parameters(
    domain, mode, factored, couplings, nu_ext, diffusion, taus, lag, ic_e, ic_i, m, dt, extra
):
    # the law of test_balance_law_of_each_recovery_mode at random couplings,
    # delays, refractory durations and initial densities that start near
    # V_F, so that the rates move and dt N is not a constant.  Outside these
    # ranges the scheme's own mass error takes over: up to 5e-3 at M = 16
    # for Gaussians centred at -2, and 5.7e-2 at diffusion 2, dt 1e-2, M = 24
    mats = _matrices(domain, m)
    n_steps = mats.H.shape[0] + 1 + extra if factored else 5
    params = TwoPopParams(
        **dict(zip(("b_e_to_e", "b_e_to_i", "b_i_to_e", "b_i_to_i"), couplings)),
        **{f"delay_{x}_to_{y}": lag * dt for x in "ei" for y in "ei"},
        nu_ext=nu_ext, diffusion_constant=diffusion, tau_e=taus[0], tau_i=taus[1], refractory_mode=mode,
    )
    rec = solve_twopop(normalize_gaussian(*ic_e, domain), normalize_gaussian(*ic_i, domain), params, mats,
                       dt=dt, t_final=n_steps * dt)
    assert factor_pays_off(2 * (rec.times.size - 1), mats) == factored
    assert rec.status == "completed"
    for pop in ("e", "i"):
        law = (rec.columns[f"mass_{pop}"] + rec.columns[f"refractory_{pop}"])[1:]
        if mode == "exponential":
            law = law + dt * rec.columns[f"rate_{pop}"][1:]
        assert np.ptp(law) <= BALANCE_DRIFT, pop


def test_implicit_rate_resolution_model_mode(m16, domain):
    # zero delays and rate-dependent diffusion: the resolved rates must
    # satisfy N_alpha = -a_alpha(N_E, N_I) s_alpha exactly
    basis, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(
        b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.25, b_i_to_i=0.25,
        d_e_to_e=0.1, d_e_to_i=0.2, d_i_to_e=0.05, d_i_to_i=0.1,
        nu_ext=1.0, diffusion_mode="model", refractory_mode="pass-through",
    )
    rec = solve_twopop(ic, ic, params, mats, dt=1e-3, t_final=0.02)
    assert rec.status == "completed"
    u_e = project_initial(mats, ic)
    deriv = mats.slope
    s = float(np.dot(deriv, u_e))
    n_e, n_i = rec.columns["rate_e"][0], rec.columns["rate_i"][0]
    a_e = params.d_e_to_e * (params.nu_ext + n_e) + params.d_i_to_e * n_i
    a_i = params.d_e_to_i * (params.nu_ext + n_e) + params.d_i_to_i * n_i
    assert abs(n_e + a_e * s) < 1e-12
    assert abs(n_i + a_i * s) < 1e-12


def test_delay_changes_transient(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    base = dict(
        b_e_to_e=1.0, b_e_to_i=1.0, b_i_to_e=0.5, b_i_to_i=0.5,
        refractory_mode="pass-through",
    )
    instant = solve_twopop(ic, ic, TwoPopParams(**base), mats, dt=1e-2, t_final=0.5)
    lagged = solve_twopop(
        ic, ic,
        TwoPopParams(**base, delay_e_to_e=0.1, delay_e_to_i=0.1,
                     delay_i_to_e=0.1, delay_i_to_i=0.1),
        mats, dt=1e-2, t_final=0.5,
    )
    assert np.max(np.abs(instant.columns["rate_e"] - lagged.columns["rate_e"])) > 1e-6


def test_determinism(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(
        b_e_to_e=3.5, b_e_to_i=4.0, b_i_to_e=0.75, b_i_to_i=3.0,
        nu_ext=20.0, tau_e=0.025, tau_i=0.025,
        delay_e_to_e=0.1, delay_e_to_i=0.1, delay_i_to_e=0.1, delay_i_to_i=0.1,
        refractory_mode="exponential",
    )
    a = solve_twopop(ic, ic, params, mats, dt=1e-3, t_final=0.3)
    b = solve_twopop(ic, ic, params, mats, dt=1e-3, t_final=0.3)
    assert np.array_equal(a.columns["rate_e"], b.columns["rate_e"])
    assert np.array_equal(a.columns["rate_i"], b.columns["rate_i"])
    assert np.array_equal(a.columns["refractory_e"], b.columns["refractory_e"])
