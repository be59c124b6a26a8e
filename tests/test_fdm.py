import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nnlif import Domain, fdm
from nnlif.assembly import assemble, normalize_gaussian
from nnlif.basis import BasisSet
from nnlif.errors import ConfigurationError, SingularFiringRateError
from nnlif.fdm import (
    _STEP_SEARCH,
    FdmGrid,
    fdm_reference,
    fdm_solve,
    fdm_step,
    reference_timestep,
    stable_timestep,
)
from nnlif.integrate import whole_steps
from nnlif.norms import l2_distance, norm_grid
from nnlif.onepop import OnePopParams, solve
from nnlif.twopop import DELAY_NAMES, TwoPopParams


@pytest.fixture(scope="module")
def grid(domain):
    return FdmGrid.build(domain, v_min=-6.0, h=1.0 / 128.0)


def _stable_dt(grid, params, t_final, rate_cap):
    bound = 0.9 * stable_timestep(grid, params, max(1.0, rate_cap))
    n = int(np.ceil(t_final / bound))
    return t_final / n


def _onepop_step(p, rate, params, grid, dt):
    """One single-population step through the stencil (drift b N,
    diffusion a0 + a1 N, inflow N) and the new cells' firing rate."""
    p_new = fdm_step(p, grid.at(dt), params.b * rate, params.a0 + params.a1 * rate, rate)
    return p_new, params.rate(-(p_new[-1] / grid.h))


def test_grid_alignment(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 128.0)
    assert g.n_cells == 8 * 128
    assert g.v_min + g.i_reset * g.h == pytest.approx(domain.v_reset)
    with pytest.raises(ConfigurationError):
        FdmGrid.build(domain, v_min=-6.0, h=1.0 / 100.5)
    with pytest.raises(ConfigurationError):
        FdmGrid.build(domain, v_min=1.5, h=1.0 / 128.0)


@pytest.mark.parametrize(
    "v_min, h",
    [(-6.0, 0.0), (-6.0, math.nan), (-math.inf, 1.0 / 128.0), (-6.0, -1.0 / 64.0), (-6.0, 1e300)],
    ids=["zero-h", "nan-h", "infinite-v_min", "negative-h", "no-cell"],
)
def test_grid_rejects_a_spacing_or_origin_that_gives_no_grid(domain, v_min, h):
    with pytest.raises(ConfigurationError):
        FdmGrid.build(domain, v_min=v_min, h=h)


def test_zero_density_stays_zero(grid):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    p = np.zeros(grid.n_cells)
    p_new, rate = _onepop_step(p, 0.0, params, grid, 1e-5)
    assert np.array_equal(p_new, p)
    assert rate == 0.0


def test_single_step_mass_exact(grid, domain):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    p = np.asarray(ic(grid.centers))
    mass0 = float(np.sum(p) * grid.h)
    p_new, _ = _onepop_step(p, params.rate(-(p[-1] / grid.h)), params, grid, 1e-5)
    assert abs(float(np.sum(p_new) * grid.h) - mass0) < 1e-12


def test_run_mass_exact(grid, domain):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(grid, params, 0.2)
    rec = fdm_solve(ic, params, grid, dt, 0.2)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.columns["mass"] - 1.0)) < 1e-10


def test_cfl_violation_rejected(grid, domain):
    params = OnePopParams(a0=1.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    with pytest.raises(ConfigurationError, match="stability bound"):
        fdm_solve(ic, params, grid, 1e-3, 0.2)


def test_nonnegativity_linear_case(grid, domain):
    params = OnePopParams(a0=1.0, a1=0.0, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(grid, params, 0.05)
    p = np.asarray(ic(grid.centers))
    p /= float(np.sum(p) * grid.h)
    rate = params.rate(-(p[-1] / grid.h))
    for _ in range(round(0.05 / dt)):
        p, rate = _onepop_step(p, rate, params, grid, dt)
    assert p.min() >= 0.0


def test_grid_refinement_self_convergence(domain):
    params = OnePopParams(a0=1.0, a1=0.0, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    out = norm_grid(domain)
    ref = fdm_reference(ic, params, domain, 0.1, h=1.0 / 256.0, richardson=True)
    errs = []
    for h in (1.0 / 32.0, 1.0 / 64.0):
        got = fdm_reference(ic, params, domain, 0.1, h=h, richardson=False)
        errs.append(l2_distance(got, ref, out))
    order = np.log2(errs[0] / errs[1])
    assert 0.8 <= order <= 2.2, (errs, order)


def test_blowup_escalation_window_matches_spectral(domain):
    params = OnePopParams(a0=1.0, a1=0.0, b=3.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    mats = assemble(BasisSet(domain, 16))
    spec_rec = solve(ic, params, mats, dt=1e-3, t_final=4.0, blowup_threshold=5.0)
    assert spec_rec.status == "blow-up-detected"
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 128.0)
    dt = _stable_dt(g, params, 4.0, rate_cap=6.0)
    fdm_rec = fdm_solve(ic, params, g, dt, 4.0, blowup_threshold=5.0)
    assert fdm_rec.status == "blow-up-detected"
    assert fdm_rec.trips["blowup_time"] == pytest.approx(spec_rec.trips["blowup_time"], rel=0.10)


def test_twopop_combined_mass_exact(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    params = TwoPopParams(
        b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.25, b_i_to_i=0.25,
        tau_e=0.025, tau_i=0.025, refractory_mode="exponential",
    )
    ic = normalize_gaussian(-1.0, 0.5, domain)
    rec = fdm_solve((ic, ic), params, g, reference_timestep(g, params, 0.1), 0.1)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.columns["mass_e"] + rec.columns["refractory_e"] - 1.0)) < 1e-10
    assert np.max(np.abs(rec.columns["mass_i"] + rec.columns["refractory_i"] - 1.0)) < 1e-10


def test_twopop_reduces_to_onepop(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    params1 = OnePopParams(a0=1.0, a1=0.0, b=0.5)
    params2 = TwoPopParams(b_e_to_e=0.5, refractory_mode="pass-through")
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(g, params1, 0.1)
    rec1 = fdm_solve(ic, params1, g, dt, 0.1)
    rec2 = fdm_solve((ic, ic), params2, g, dt, 0.1)
    assert np.max(np.abs(rec2.columns["rate_e"] - rec1.columns["rate"])) < 1e-12
    assert np.max(np.abs(rec2.columns["mass_e"] - rec1.columns["mass"])) < 1e-12


@st.composite
def _twopop_params(draw):
    """Admissible constant-diffusion two-population parameters, either
    recovery mode, no delays."""
    exponential = draw(st.booleans())
    couplings = {f"b_{x}_to_{y}": draw(st.floats(0.0, 1.0)) for x in "ei" for y in "ei"}
    return TwoPopParams(
        **couplings,
        nu_ext=draw(st.floats(0.0, 2.0)),
        diffusion_constant=draw(st.floats(0.5, 2.0)),
        tau_e=draw(st.floats(0.01, 0.1)),
        tau_i=draw(st.floats(0.01, 0.1)),
        refractory_mode="exponential" if exponential else "pass-through",
    )


_gaussians = st.tuples(st.floats(-2.0, 0.0), st.floats(0.1, 1.0))


@settings(max_examples=30)
@given(
    a0=st.floats(0.5, 2.0),
    a1=st.floats(0.0, 0.5),
    b=st.floats(-2.0, 2.0),
    ic=_gaussians,
    t_final=st.sampled_from([0.01, 0.025, 0.05]),
)
def test_onepop_mass_exact_at_random_parameters(domain, a0, a1, b, ic, t_final):
    g = FdmGrid.build(domain, h=1.0 / 32.0)
    params = OnePopParams(a0=a0, a1=a1, b=b)
    rec = fdm_solve(normalize_gaussian(*ic, domain), params, g, reference_timestep(g, params, t_final), t_final)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.columns["mass"] - 1.0)) < 1e-10


@settings(max_examples=30)
@given(
    params=_twopop_params(),
    ics=st.tuples(_gaussians, _gaussians),
    t_final=st.sampled_from([0.01, 0.025, 0.05]),
    lags=st.lists(st.integers(0, 150), min_size=4, max_size=4),
)
def test_twopop_mass_exact_at_random_parameters(domain, params, ics, t_final, lags):
    g = FdmGrid.build(domain, h=1.0 / 32.0)
    dt = reference_timestep(g, params, t_final)
    params = replace(params, **{name: lag * dt for name, lag in zip(DELAY_NAMES, lags)})
    rec = fdm_solve(tuple(normalize_gaussian(*ic, domain) for ic in ics), params, g, dt, t_final)
    assert rec.status == "completed"
    for pop in "ei":
        assert np.max(np.abs(rec.columns[f"mass_{pop}"] + rec.columns[f"refractory_{pop}"] - 1.0)) < 1e-10


@pytest.mark.parametrize("cells_per_unit", [32, 40])
@settings(max_examples=30)
@given(a0=st.floats(0.2, 3.0), b=st.floats(0.0, 3.0), t_final=st.sampled_from([0.01, 0.025, 0.05]))
def test_twopop_reduces_to_onepop_at_random_parameters(domain, cells_per_unit, a0, b, t_final):
    # both models take their rates from the same slope -p_last / h, so they
    # agree bit for bit also where h is not a power of two
    g = FdmGrid.build(domain, h=1.0 / cells_per_unit)
    params1 = OnePopParams(a0=a0, a1=0.0, b=b)
    params2 = TwoPopParams(b_e_to_e=b, diffusion_constant=a0, refractory_mode="pass-through")
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(g, params1, t_final)
    rec1 = fdm_solve(ic, params1, g, dt, t_final, snapshot_times=(t_final,))
    rec2 = fdm_solve((ic, ic), params2, g, dt, t_final, snapshot_times=(t_final,))
    assert rec1.status == rec2.status == "completed"
    assert np.array_equal(rec2.columns["rate_e"], rec1.columns["rate"])
    assert np.array_equal(rec2.columns["mass_e"], rec1.columns["mass"])
    assert np.array_equal(rec2.snapshots[0].density[0], rec1.snapshots[0].density)


def _reference_fluxes(p, grid, drift_offset, diffusion):
    """Edge fluxes of the stencil, each formed whole: the upwind drift flux
    less the diffusion times the gradient, over h."""
    h = grid.h
    u = -grid.inner_edges + drift_offset
    k = np.searchsorted(grid.inner_edges, drift_offset, side="right")
    flux = np.zeros(grid.n_cells + 1)
    flux[1:-1] = np.concatenate((u[:k] * p[:k], u[k:] * p[k + 1:])) - diffusion * (p[1:] - p[:-1]) / h
    flux[-1] = diffusion * p[-1] / h
    return flux


def _reference_step(p, grid, dt, drift_offset, diffusion, inflow):
    """The stencil in flux-difference form, p - (F_right - F_left) dt/h:
    the order of operations that :func:`fdm_step` rearranges."""
    flux = _reference_fluxes(p, grid, drift_offset, diffusion)
    p_new = p - (flux[1:] - flux[:-1]) * (dt / grid.h)
    p_new[grid.i_reset] += inflow * dt / grid.h
    return p_new


@st.composite
def _stencil_cases(draw, finite_offsets=False):
    """(cells, grid, dt, drift offset, diffusion, inflow) of one stencil
    call: some cells are zero, and the offset may lie on a cell edge, far
    outside the grid or, unless ``finite_offsets``, be +-inf or NaN."""
    grid = FdmGrid.build(Domain(1.0, 2.0), v_min=draw(st.sampled_from([-6.0, -2.0, 0.0])),
                         h=1.0 / draw(st.sampled_from([8, 16, 32, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    p = rng.uniform(0.0, 10.0, grid.n_cells) * (rng.random(grid.n_cells) < 0.8)
    extremes = [1e300, -1e300] + ([] if finite_offsets else [math.inf, -math.inf, math.nan])
    offset = draw(st.one_of(
        st.floats(-20.0, 20.0),
        st.integers(0, grid.n_cells - 2).map(lambda j: float(grid.inner_edges[j])),
        st.sampled_from(extremes),
    ))
    return p, grid, draw(st.floats(1e-7, 1e-2)), offset, draw(st.floats(0.01, 10.0)), draw(st.floats(0.0, 100.0))


@settings(max_examples=200)
@given(case=_stencil_cases())
def test_fdm_step_matches_the_flux_difference_form(case):
    p, grid, dt, offset, diffusion, inflow = case
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf at infinite offsets
        got = fdm_step(p, grid.at(dt), offset, diffusion, inflow)
        want = _reference_step(p, grid, dt, offset, diffusion, inflow)
        flux = _reference_fluxes(p, grid, offset, diffusion)
    for kind in (np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(kind(got), kind(want)), kind.__name__
    # a reordered sum differs by rounding in its terms, not in its value
    terms = np.abs(p) + dt / grid.h * (np.abs(flux[1:]) + np.abs(flux[:-1]))
    terms[grid.i_reset] += inflow * dt / grid.h
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * terms[finite])


@settings(max_examples=200)
@given(case=_stencil_cases(finite_offsets=True))
def test_fdm_step_telescopes_to_the_boundary_fluxes(case):
    p, grid, dt, offset, diffusion, inflow = case
    h = grid.h
    mass = float(np.sum(fdm_step(p, grid.at(dt), offset, diffusion, inflow)) * h)
    want = float(np.sum(p) * h) - dt * diffusion * p[-1] / h + dt * inflow
    flux = _reference_fluxes(p, grid, offset, diffusion)
    assert abs(mass - want) <= 1e-13 * (float(np.sum(p)) * h + dt * float(np.sum(np.abs(flux))) + dt * inflow)


@pytest.mark.parametrize("two", [False, True], ids=["one", "two"])
def test_whole_runs_match_runs_stepped_by_the_flux_difference_form(domain, monkeypatch, two):
    # b != 0: the drift offset follows the rate, so the upwind split moves
    g = FdmGrid.build(domain, h=1.0 / 32.0)
    ic = normalize_gaussian(0.5, 0.3, domain)
    if two:
        params = TwoPopParams(b_e_to_e=3.0, b_e_to_i=2.0, b_i_to_e=0.5, b_i_to_i=0.25, tau_e=0.025, tau_i=0.025,
                              refractory_mode="exponential")
        p0 = (ic, ic)
    else:
        params, p0 = OnePopParams(a0=1.0, a1=0.1, b=3.0), ic
    t_final = 0.1
    dt = reference_timestep(g, params, t_final)
    got = fdm_solve(p0, params, g, dt, t_final, snapshot_times=(t_final,))
    splits = set()

    def reference(p, stencil, drift_offset, diffusion, inflow):
        splits.add(int(np.searchsorted(stencil.inner_edges, drift_offset, side="right")))
        return _reference_step(p, stencil, dt, drift_offset, diffusion, inflow)

    monkeypatch.setattr(fdm, "fdm_step", reference)
    want = fdm_solve(p0, params, g, dt, t_final, snapshot_times=(t_final,))
    assert got.status == want.status == "completed"
    assert got.times.size == want.times.size > 200
    assert len(splits) > 3
    # each step reorders the flux sums, a rounding of about 1e-16 of a
    # cell's terms; over the run's 250-300 steps that accumulates to well
    # below 1e-13 of each column's scale (4e-16 when this test was written)
    for name, column in want.columns.items():
        assert np.max(np.abs(got.columns[name] - column)) <= 1e-13 * np.max(np.abs(column)), name
    density = want.final_density("reference-stepped run")
    assert np.max(np.abs(got.final_density("run") - density)) <= 1e-13 * np.max(np.abs(density))


def _closed_form_rate(a0, a1, p_last, h):
    """The finite-volume rate in its own closed form, N = a0 g / (1 - a1 g)
    with the discrete threshold outflux g = p_last / h."""
    g = p_last / h
    denom = 1.0 - a1 * g
    if abs(denom) < 1e-12:
        raise SingularFiringRateError("discrete firing-rate relation singular")
    return a0 * g / denom


@settings(max_examples=300)
@given(
    a0=st.floats(0.0, 10.0, exclude_min=True),
    a1=st.floats(0.0, 5.0),
    p_last=st.floats(0.0, 1e6),
    h=st.sampled_from([1.0 / 16.0, 1.0 / 80.0, 1.0 / 512.0]),
)
@example(a0=1.0, a1=0.5, p_last=0.125, h=1.0 / 16.0)  # 1 - a1 g is exactly 0
@example(a0=1.0, a1=1.0, p_last=(1.0 + 1e-13) / 16.0, h=1.0 / 16.0)  # and below the tolerance
@example(a0=1.0, a1=0.0, p_last=0.0, h=1.0 / 80.0)
def test_onepop_rate_rule_is_the_finite_volume_closed_form(a0, a1, p_last, h):
    # the steppers read p_last from a float64 array
    p_last = np.float64(p_last)
    params = OnePopParams(a0, a1)
    try:
        want = _closed_form_rate(a0, a1, p_last, h)
    except SingularFiringRateError:
        with pytest.raises(SingularFiringRateError):
            params.rate(-(p_last / h))
        return
    # bit for bit: the slope's sign flips only the signs of exact products
    assert float(params.rate(-(p_last / h))).hex() == float(want).hex()


@pytest.mark.parametrize("two", [False, True], ids=["one-population", "two-population"])
def test_nan_initial_density_rejected(domain, two):
    # a NaN total mass is not positive either; project_initial rejects the same density
    g = FdmGrid.build(domain, h=1.0 / 32.0)
    nan = lambda v: np.full_like(v, np.nan)  # noqa: E731
    p0, params = ((normalize_gaussian(-1.0, 0.5, domain), nan), TwoPopParams()) if two else (nan, OnePopParams(1.0))
    with pytest.raises(ConfigurationError, match="nonpositive mass"):
        fdm_solve(p0, params, g, reference_timestep(g, params, 0.01), 0.01)


@pytest.mark.parametrize("two", [False, True], ids=["one-population", "two-population"])
def test_final_snapshot_is_the_unextrapolated_reference(domain, two):
    h, t_final = 1.0 / 32.0, 0.05
    g = FdmGrid.build(domain, v_min=-6.0, h=h)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    if two:
        ic = (ic, normalize_gaussian(0.0, 0.25, domain))
        params = TwoPopParams(b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.75, tau_e=0.025, tau_i=0.025,
                              refractory_mode="exponential")
        rec = fdm_solve(ic, params, g, reference_timestep(g, params, t_final), t_final,
                        snapshot_times=(t_final,))
    else:
        params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
        rec = fdm_solve(ic, params, g, reference_timestep(g, params, t_final), t_final, snapshot_times=(t_final,))
    ref = fdm_reference(ic, params, domain, t_final, h=h, richardson=False)
    assert ref.shape == ((2, 2001) if two else (2001,))
    assert [s.t for s in rec.snapshots] == [t_final]
    assert np.array_equal(rec.snapshots[0].density, ref)


def test_twopop_requires_constant_diffusion(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(diffusion_mode="model", d_e_to_e=1.0)
    with pytest.raises(ConfigurationError, match="constant diffusion"):
        fdm_solve((ic, ic), params, g, 1e-5, 0.01)


def test_reference_timestep_divides_t_final_and_every_delay(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 32.0)
    t_final = 0.2
    undelayed = TwoPopParams(b_e_to_e=0.5, b_i_to_e=0.75)
    bound = 0.9 * stable_timestep(g, undelayed)
    assert reference_timestep(g, undelayed, t_final) == t_final / np.ceil(t_final / bound)

    delays = {"delay_e_to_e": 0.04, "delay_e_to_i": 0.0, "delay_i_to_e": 0.0125, "delay_i_to_i": 0.03}
    dt = reference_timestep(g, TwoPopParams(b_e_to_e=0.5, b_i_to_e=0.75, **delays), t_final)
    assert dt <= bound
    n_steps = round(t_final / dt)
    assert n_steps * dt == pytest.approx(t_final, rel=1e-12)
    for name, delay in delays.items():
        assert round(delay / dt) * dt == pytest.approx(delay, abs=1e-12), name
    # every larger step of the form t_final/k misses one of the delays
    for k in range(int(np.ceil(t_final / bound)), n_steps):
        assert any(abs(round(d / (t_final / k)) * t_final / k - d) > 1e-9 for d in delays.values())
    # no step count of the search divides an incommensurate delay
    with pytest.raises(ConfigurationError, match="divides t_final"):
        reference_timestep(g, TwoPopParams(delay_e_to_e=0.1 * np.pi), 2.0)


def test_reference_timestep_rejects_a_delay_only_near_a_step_count(domain):
    # 0.1 sqrt(2) is within 1e-9 of 13,860 steps of 0.2 / 19,601, almost 40
    # times as many steps as the stability bound needs
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 32.0)
    params = TwoPopParams(b_e_to_e=0.5, delay_e_to_e=0.04, delay_i_to_e=0.1 * np.sqrt(2))
    with pytest.raises(ConfigurationError, match="delay_i_to_e=0.1414"):
        reference_timestep(g, params, 0.2)


@settings(max_examples=40, deadline=None)
@given(
    n_steps=st.integers(1, 5000),
    t_final=st.sampled_from([0.05, 0.2, 1.0, 2.5, 10.0]),
    lags=st.lists(st.integers(0, 5000), min_size=4, max_size=4),
)
def test_reference_timestep_accepts_whole_step_delays(domain, n_steps, t_final, lags):
    # delays that are whole numbers of a step dividing t_final, as a config
    # with that spectral step has them
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 32.0)
    dt = t_final / n_steps
    params = TwoPopParams(b_e_to_e=0.5, **{name: lag * dt for name, lag in zip(DELAY_NAMES, lags)})
    ref_dt = reference_timestep(g, params, t_final)
    for lag in lags:
        assert abs(round(lag * dt / ref_dt) * ref_dt - lag * dt) <= 1e-9 * max(1.0, lag * dt)


def test_reference_timestep_takes_no_near_miss(domain):
    # 61,490 steps of 0.05 come within 1e-9 of both delays, 488/688 and
    # 997/987 of t_final, without holding either exactly; the step counts
    # that do are the multiples of lcm(86, 987) = 84,882
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    delays = {"delay_e_to_e": 488 / 688 * 0.05, "delay_i_to_i": 997 / 987 * 0.05}
    assert all(whole_steps(d, 0.05 / 61490) is not None for d in delays.values())
    assert reference_timestep(g, TwoPopParams(**delays), 0.05) == 0.05 / 84882


def _searched_step_count(t_final, delays, first):
    """The search that :func:`reference_timestep` used to make: the first
    of the ``_STEP_SEARCH`` step counts from ``first`` at which t_final / n
    holds every delay to the tolerance of :func:`whole_steps`, or None.  It
    runs over all counts at once, with the float operations of
    :func:`whole_steps`, so a set of delays that no count holds costs
    milliseconds."""
    n = np.arange(first, first + _STEP_SEARCH)
    dt = t_final / n
    fits = np.ones(n.size, dtype=bool)
    for d in delays:
        fits &= np.abs(np.round(d / dt) * dt - d) <= 1e-9 * max(1.0, abs(d))
    hits = np.flatnonzero(fits)
    return int(n[hits[0]]) if hits.size else None


@settings(max_examples=60, deadline=None)
@given(
    cells_per_unit=st.sampled_from([16, 32, 64, 128]),
    t_final=st.sampled_from([0.2, 1.0, 2.5]),
    fractions=st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 1000)), min_size=1, max_size=4),
)
def test_reference_timestep_is_the_step_search_in_closed_form(domain, cells_per_unit, t_final, fractions):
    # delays p/q of t_final: the closed form takes the smallest multiple of
    # the lcm of the q from the bound's step count, which is the search's
    # count.  A count n that q does not divide misses the delay d by
    # dt |k - n p/q| >= t_final / (n q).  On these grids and times n stays
    # below 2e5, so n q < 1e9 t_final and n p < 1e9: the miss exceeds the
    # 1e-9 max(1, d) of whole_steps, and the search too finds only the
    # multiples of every q
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / cells_per_unit)
    delays = [p / q * t_final for p, q in fractions]
    params = TwoPopParams(**dict(zip(DELAY_NAMES, delays)))
    bound = 0.9 * stable_timestep(g, params, 0.0)
    searched = _searched_step_count(t_final, delays, math.ceil(t_final / bound))
    if searched is None:
        with pytest.raises(ConfigurationError, match="divides t_final"):
            reference_timestep(g, params, t_final)
        return
    dt = reference_timestep(g, params, t_final)
    assert dt <= bound
    assert whole_steps(t_final, dt) is not None and all(whole_steps(d, dt) is not None for d in delays)
    # no step count between the bound's and the returned one holds them all
    assert dt == t_final / searched
