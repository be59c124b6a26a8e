import numpy as np
import pytest

from nnlif.assembly import assemble, normalize_gaussian, project_initial
from nnlif.basis import BasisSet
from nnlif.errors import ConfigurationError, NonpositiveDiffusionError
from nnlif.onepop import OnePopParams, solve
from nnlif import twopop
from nnlif.twopop import (
    TwoPopParams,
    TwoPopState,
    coefficients,
    lagged_rate,
    recovery,
    solve_twopop,
    step_twopop,
)


@pytest.fixture(scope="module")
def m16(domain):
    basis = BasisSet(domain, 16)
    return basis, assemble(basis)


def _decoupled(b_e_to_e=0.5):
    return TwoPopParams(
        b_e_to_e=b_e_to_e,
        diffusion_mode="constant",
        diffusion_constant=1.0,
        refractory_mode="pass-through",
    )


# --- delayed lookups over recorded rates ------------------------------------


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
    v_e, _ = coefficients(params, 0.0, 0.0, "e")
    assert v_e == 0.0
    v_i, _ = coefficients(params, 0.0, 0.0, "i")
    assert v_i == (3.0 - 2.0) * 7.0


def test_drift_offsets_zero_without_input():
    params = TwoPopParams(b_e_to_e=2.0, b_e_to_i=3.0, b_i_to_e=1.0, b_i_to_i=0.5)
    for pop in ("e", "i"):
        v, a = coefficients(params, 0.0, 0.0, pop)
        assert v == 0.0
        assert a == 1.0


def test_constant_diffusion_mode():
    params = TwoPopParams(diffusion_constant=1.0)
    for pop in ("e", "i"):
        assert coefficients(params, 0.7, 0.3, pop)[1] == 1.0


def test_model_diffusion_mode():
    params = TwoPopParams(
        d_e_to_e=0.2, d_e_to_i=0.1, d_i_to_e=0.3, d_i_to_i=0.4,
        nu_ext=2.0, diffusion_mode="model",
    )
    _, a_e = coefficients(params, 1.0, 2.0, "e")
    assert a_e == pytest.approx(0.2 * (2.0 + 1.0) + 0.3 * 2.0)
    _, a_i = coefficients(params, 1.0, 2.0, "i")
    assert a_i == pytest.approx(0.1 * (2.0 + 1.0) + 0.4 * 2.0)


def test_nonpositive_diffusion_rejected():
    params = TwoPopParams(diffusion_mode="model", d_e_to_e=0.1)
    with pytest.raises(NonpositiveDiffusionError):
        coefficients(params, 0.0, 0.0, "e")


def test_recovery_modes():
    exp = TwoPopParams(tau_e=0.025, tau_i=0.05, refractory_mode="exponential")
    assert recovery(0.0, 1.0, exp, "e") == 0.0
    assert recovery(0.05, 1.0, exp, "e") == pytest.approx(2.0)
    assert recovery(0.05, 1.0, exp, "i") == pytest.approx(1.0)
    passthrough = TwoPopParams(refractory_mode="pass-through")
    assert recovery(0.33, 0.7, passthrough, "e") == 0.7


def test_params_validation():
    with pytest.raises(ValueError):
        TwoPopParams(b_e_to_e=-1.0)
    with pytest.raises(ValueError):
        TwoPopParams(refractory_mode="exponential", tau_e=0.0, tau_i=1.0)
    with pytest.raises(ValueError):
        TwoPopParams(diffusion_mode="nonsense")
    with pytest.raises(ConfigurationError):
        TwoPopParams(delay_e_to_e=0.05).delay_lags(0.02)


# --- stepping ----------------------------------------------------------------


def test_zero_state_stays_zero(m16):
    basis, mats = m16
    params = _decoupled(b_e_to_e=1.0)
    dim = basis.dim
    state = TwoPopState(
        u_e=np.zeros(dim), u_i=np.zeros(dim), r_e=0.0, r_i=0.0,
        t=0.0, step_index=0, rate_e=0.0, rate_i=0.0,
    )
    out = step_twopop(state, params, mats, 1e-3)
    assert np.array_equal(out.u_e, np.zeros(dim))
    assert np.array_equal(out.u_i, np.zeros(dim))
    assert out.r_e == 0.0 and out.r_i == 0.0


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
    for name in ("rate_e", "rate_i", "mass_e", "mass_i", "refractory_e", "refractory_i"):
        assert np.array_equal(getattr(probed, name), getattr(plain, name)), name


def test_reduction_to_single_population(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    rec1 = solve(ic, OnePopParams(a0=1.0, a1=0.0, b=0.5), mats, dt=1e-3, t_final=0.1)
    rec2 = solve_twopop(ic, ic, _decoupled(0.5), mats, dt=1e-3, t_final=0.1)
    assert np.max(np.abs(rec2.rate_e - rec1.rates)) <= 1e-10
    assert np.max(np.abs(rec2.mass_e - rec1.masses)) <= 1e-10


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
        ("e", rec.refractory_e, rec.rate_e, 0.025),
        ("i", rec.refractory_i, rec.rate_i, 0.025),
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
    assert np.max(np.abs(rec.mass_e + rec.refractory_e - 1.0)) < 1e-2
    assert np.max(np.abs(rec.mass_i + rec.refractory_i - 1.0)) < 1e-2


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
    u_e = project_initial(basis, mats, ic)
    deriv = mats.traces.deriv_at_threshold
    s = float(np.dot(deriv, u_e))
    n_e, n_i = rec.rate_e[0], rec.rate_i[0]
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
    assert np.max(np.abs(instant.rate_e - lagged.rate_e)) > 1e-6


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
    assert np.array_equal(a.rate_e, b.rate_e)
    assert np.array_equal(a.rate_i, b.rate_i)
    assert np.array_equal(a.refractory_e, b.refractory_e)
