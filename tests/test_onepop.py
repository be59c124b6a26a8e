from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nnlif.assembly import assemble, normalize_gaussian, project_initial
from nnlif.basis import BasisSet
from nnlif.errors import ConfigurationError, NonpositiveDiffusionError, SingularFiringRateError
from nnlif.fdm import FdmGrid, fdm_solve, reference_timestep
from nnlif.onepop import (
    OnePopParams,
    PopulationState,
    Spectral,
    firing_rate,
    solve,
    step,
)
from nnlif.twopop import TwoPopParams, solve_twopop


@pytest.fixture(scope="module")
def m16(domain):
    basis = BasisSet(domain, 16)
    return basis, assemble(basis)


class _FirstEntrySlope:
    """A space whose threshold slope is the row's first entry."""

    def slope(self, u):
        return float(u[0])


def _rate_from_slope(s, params, dim=5):
    """Drive firing_rate with a crafted threshold slope."""
    u = np.zeros(dim)
    u[0] = s
    return firing_rate(u, _FirstEntrySlope(), params)


def test_firing_rate_zero_slope():
    assert _rate_from_slope(0.0, OnePopParams(a0=1.0, a1=0.1)) == 0.0


def test_firing_rate_linear_case():
    assert _rate_from_slope(-0.5, OnePopParams(a0=1.0, a1=0.0)) == pytest.approx(0.5)


def test_firing_rate_nonlinear_case_satisfies_implicit_relation():
    params = OnePopParams(a0=1.0, a1=0.1)
    s = -0.5
    n = _rate_from_slope(s, params)
    assert n == pytest.approx(0.5 / 0.95, rel=1e-12)
    assert abs(n - (-(params.a0 + params.a1 * n) * s)) < 1e-14


def test_firing_rate_random_slopes_satisfy_relation(rng):
    params = OnePopParams(a0=1.3, a1=0.2)
    for s in rng.uniform(-3.0, 3.0, 50):
        if abs(1.0 + params.a1 * s) < 1e-6:
            continue
        n = _rate_from_slope(float(s), params)
        assert abs(n - (-(params.a0 + params.a1 * n) * s)) < 1e-12


def test_firing_rate_singular_denominator():
    with pytest.raises(SingularFiringRateError):
        _rate_from_slope(-10.0 + 1e-14, OnePopParams(a0=1.0, a1=0.1))


def test_params_validation():
    with pytest.raises(ValueError):
        OnePopParams(a0=0.0)
    with pytest.raises(ValueError):
        OnePopParams(a0=1.0, a1=-0.1)


def test_zero_state_is_fixed_point(m16):
    _, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1, b=2.0)
    state = PopulationState(np.zeros(mats.basis.dim), 0.0)
    out = step(state, params, Spectral(mats), 1e-3)
    assert np.array_equal(out.u, np.zeros(mats.basis.dim))
    assert out.rate == 0.0


def test_one_step_increment_scales_linearly_with_dt(m16, domain):
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1)
    u0 = project_initial(mats, normalize_gaussian(-1.0, 0.5, domain))
    state = PopulationState(u0, firing_rate(u0, Spectral(mats), params))
    # march past the projection transient so the stiff modes have decayed
    # and the one-step map is in its smooth regime
    for _ in range(1000):
        state = step(state, params, Spectral(mats), 1e-4)
    deltas = []
    for dt in (2e-3, 1e-3):
        out = step(state, params, Spectral(mats), dt)
        deltas.append(np.linalg.norm(out.u - state.u))
    assert deltas[0] / deltas[1] == pytest.approx(2.0, rel=0.05)


def test_one_step_mass_drift_small(m16, domain):
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1, b=0.0)
    u0 = project_initial(mats, normalize_gaussian(-1.0, 0.5, domain))
    state = PopulationState(u0, firing_rate(u0, Spectral(mats), params))
    out = step(state, params, Spectral(mats), 0.01)
    drift = abs(float(np.dot(mats.mass, out.u) - np.dot(mats.mass, u0)))
    assert drift < 1e-3


def test_linear_run_relaxes_to_steady_profile(m16, domain):
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.0, b=0.0)
    u = project_initial(mats, normalize_gaussian(-1.0, 0.5, domain))
    state = PopulationState(u, firing_rate(u, Spectral(mats), params))
    dt = 1e-2
    for _ in range(1000):  # to t = 10
        prev = state.u
        state = step(state, params, Spectral(mats), dt)
    assert np.linalg.norm(state.u - prev) / dt < 1e-4
    assert 0.0 < state.rate < 1.0


def test_firing_rate_consistency_along_run(m16, domain):
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    u = project_initial(mats, normalize_gaussian(-1.0, 0.5, domain))
    state = PopulationState(u, firing_rate(u, Spectral(mats), params))
    for _ in range(50):
        state = step(state, params, Spectral(mats), 1e-3)
        s = float(np.dot(mats.slope, state.u))
        assert abs(state.rate + (params.a0 + params.a1 * state.rate) * s) < 1e-12


def test_mass_near_conservation(m16, domain):
    _, mats = m16
    params = OnePopParams(a0=1.0, a1=0.0, b=0.0)
    rec = solve(normalize_gaussian(-1.0, 0.5, domain), params, mats, dt=1e-4, t_final=0.5)
    assert np.max(np.abs(rec.columns["mass"] - 1.0)) < 1e-2


def test_excitatory_run_escalates(m16, domain):
    _, mats = m16
    params = OnePopParams(a0=1.0, a1=0.0, b=3.0)
    rec = solve(normalize_gaussian(-1.0, 0.5, domain), params, mats, dt=1e-3, t_final=3.5)
    i1 = np.argmin(np.abs(rec.times - 1.0))
    n1 = rec.columns["rate"][i1]
    crossed = rec.times[rec.columns["rate"] > 10.0 * n1]
    assert crossed.size > 0 and crossed[0] < 3.5


def test_temporal_self_convergence_first_order(m16, domain):
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    t_final = 0.2
    errs = []
    for dt in (0.04, 0.02, 0.01, 0.005):
        rec = solve(ic, params, mats, dt=dt, t_final=t_final, snapshot_times=(t_final,))
        ref = solve(ic, params, mats, dt=dt / 16.0, t_final=t_final, snapshot_times=(t_final,))
        diff = rec.snapshots[0].density - ref.snapshots[0].density
        grid = rec.snapshots[0].grid
        errs.append(float(np.sqrt(np.trapezoid(diff * diff, grid))))
    orders = [np.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]
    assert all(0.9 <= o <= 1.05 for o in orders), orders


def test_spatial_self_convergence_per_parity(domain):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    ref_mats = assemble(BasisSet(domain, 20))
    ref = solve(ic, params, ref_mats, dt=1e-3, t_final=0.2, snapshot_times=(0.2,))
    ref_density = ref.snapshots[0].density
    grid = ref.snapshots[0].grid
    errs = {}
    for m in range(4, 13):
        rec = solve(ic, params, assemble(BasisSet(domain, m)), dt=1e-3, t_final=0.2,
                    snapshot_times=(0.2,))
        diff = rec.snapshots[0].density - ref_density
        errs[m] = float(np.sqrt(np.trapezoid(diff * diff, grid)))
    for ms in ([5, 7, 9, 11], [4, 6, 8, 10, 12]):
        lns = [np.log(errs[m]) for m in ms]
        assert all(b < a for a, b in zip(lns[:-1], lns[1:])), errs


def test_negative_rate_not_fatal(m16):
    # start from a trial-space member with positive threshold slope: the
    # rate comes out negative, and the run keeps going
    basis, mats = m16
    params = OnePopParams(a0=1.0, a1=0.0, b=0.0)
    rec = solve(lambda v: -basis.values_at(v)[basis.m + 1], params, mats,
                dt=1e-3, t_final=0.01)
    assert rec.status == "completed"
    assert rec.columns["rate"][0] < 0.0


def _lattice_run(solver, ic, mats):
    """A 0.05-long run of one of the four solvers; the spectral ones step
    at dt 1e-3, the finite-volume ones at their reference step for h 1/16."""
    two = solver.endswith("two")
    params = TwoPopParams(b_e_to_i=0.5, b_i_to_e=0.75) if two else OnePopParams(a0=1.0)
    p0 = (ic, ic) if two else ic
    if solver.startswith("spectral"):
        return solve_twopop(*p0, params, mats, 1e-3, 0.05) if two else solve(p0, params, mats, 1e-3, 0.05)
    grid = FdmGrid.build(mats.basis.domain, h=1.0 / 16.0)
    return fdm_solve(p0, params, grid, reference_timestep(grid, params, 0.05), 0.05)


@pytest.mark.parametrize("solver", ["spectral-one", "spectral-two", "fdm-one", "fdm-two"])
def test_timestamps_uniform(m16, domain, solver):
    # the loop records step n at exactly n*dt, whatever the model
    rec = _lattice_run(solver, normalize_gaussian(-1.0, 0.5, domain), m16[1])
    assert rec.status == "completed"
    assert np.array_equal(rec.times, rec.dt * np.arange(rec.times.size))
    assert rec.times[-1] == pytest.approx(0.05, abs=1e-15)


def test_determinism(m16, domain):
    _, mats = m16
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    a = solve(ic, params, mats, dt=1e-3, t_final=0.05, snapshot_times=(0.05,))
    b = solve(ic, params, mats, dt=1e-3, t_final=0.05, snapshot_times=(0.05,))
    assert np.array_equal(a.columns["rate"], b.columns["rate"])
    assert np.array_equal(a.columns["mass"], b.columns["mass"])
    assert np.array_equal(a.snapshots[0].density, b.snapshots[0].density)


def test_time_validation(m16, domain):
    _, mats = m16
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = OnePopParams(a0=1.0)
    with pytest.raises(ConfigurationError):
        solve(ic, params, mats, dt=3e-3, t_final=0.2)
    with pytest.raises(ConfigurationError):
        solve(ic, params, mats, dt=1e-3, t_final=0.2, snapshot_times=(0.1234e-1,))
    with pytest.raises(ConfigurationError):
        solve(ic, params, mats, dt=1e-3, t_final=0.2, snapshot_times=(0.3,))


def test_diffusion_rule():
    params = OnePopParams(a0=1.0, a1=0.5)
    assert params.diffusion(2.0) == 2.0
    with pytest.raises(NonpositiveDiffusionError):
        params.diffusion(-2.0)


@cache
def _matrices(domain, m):
    return assemble(BasisSet(domain, m))


# the model draws of both solvers' randomized invariants
_MODELS = dict(
    a0=st.floats(0.5, 2.0),
    a1=st.floats(0.0, 0.5),
    b=st.floats(-1.0, 1.5),
    v0=st.floats(-2.0, 0.5),
    sigma0_sq=st.floats(0.1, 1.0),
)


def _check_run_invariants(run, params):
    """A repeated run is identical, a completed run is finite, and no step
    was taken with a diffusion a0 + a1 N <= 0."""
    rec, again = run(), run()
    assert rec.status == again.status
    assert np.array_equal(rec.times, again.times)
    for name, column in rec.columns.items():
        assert np.array_equal(column, again.columns[name], equal_nan=True), name
    if rec.status == "completed":
        assert np.all(np.isfinite(rec.columns["rate"])) and np.all(np.isfinite(rec.columns["mass"]))
    # a step is taken from every recorded state but the last
    assert np.all(params.a0 + params.a1 * rec.columns["rate"][:-1] > 0)


@given(**_MODELS, m=st.integers(4, 24), dt=st.sampled_from([1e-3, 5e-3, 1e-2]))
# a Gaussian close to the threshold: the first rate is -28.6, its diffusion -10.6
@example(a0=1.564, a1=0.426, b=-0.623, v0=0.155, sigma0_sq=0.434, m=19, dt=0.01)
def test_spectral_run_invariants_at_random_parameters(domain, a0, a1, b, v0, sigma0_sq, m, dt):
    params = OnePopParams(a0, a1, b)
    ic = normalize_gaussian(v0, sigma0_sq, domain)
    mats = _matrices(domain, m)
    _check_run_invariants(lambda: solve(ic, params, mats, dt=dt, t_final=0.5), params)


@given(**_MODELS, h=st.sampled_from([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]))
# the first rate is -4.5, its diffusion -1.26
@example(a0=1.0, a1=0.5, b=0.0, v0=0.0, sigma0_sq=1.0, h=1.0 / 64.0)
def test_finite_volume_run_invariants_at_random_parameters(domain, a0, a1, b, v0, sigma0_sq, h):
    params = OnePopParams(a0, a1, b)
    ic = normalize_gaussian(v0, sigma0_sq, domain)
    grid = FdmGrid.build(domain, h=h)
    t_final = 0.02
    dt = reference_timestep(grid, params, t_final)
    _check_run_invariants(lambda: fdm_solve(ic, params, grid, dt, t_final), params)
