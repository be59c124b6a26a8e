import numpy as np
import pytest

from nnlif.assembly import assemble, normalize_gaussian
from nnlif.basis import BasisSet
from nnlif.errors import ConfigurationError
from nnlif.fdm import (
    FdmGrid,
    cfl_timestep,
    fdm_reference,
    fdm_solve,
    fdm_rate,
    fdm_solve_twopop,
    fdm_step,
    reference_timestep,
)
from nnlif.norms import l2_distance, norm_grid
from nnlif.onepop import OnePopParams, solve
from nnlif.twopop import TwoPopParams


@pytest.fixture(scope="module")
def grid(domain):
    return FdmGrid.build(domain, v_min=-6.0, h=1.0 / 128.0)


def _stable_dt(grid, params, t_final, rate_cap):
    bound = 0.9 * cfl_timestep(grid, params.a0 + params.a1, max(1.0, rate_cap), params.b)
    n = int(np.ceil(t_final / bound))
    return t_final / n


def test_grid_alignment(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 128.0)
    assert g.n_cells == 8 * 128
    assert g.v_min + g.i_reset * g.h == pytest.approx(domain.v_reset)
    with pytest.raises(ConfigurationError):
        FdmGrid.build(domain, v_min=-6.0, h=1.0 / 100.5)
    with pytest.raises(ConfigurationError):
        FdmGrid.build(domain, v_min=1.5, h=1.0 / 128.0)


def test_zero_density_stays_zero(grid):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    p = np.zeros(grid.n_cells)
    p_new, rate = fdm_step(p, 0.0, params, grid, 1e-5)
    assert np.array_equal(p_new, p)
    assert rate == 0.0


def test_single_step_mass_exact(grid, domain):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.5)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    p = np.asarray(ic(grid.centers))
    mass0 = float(np.sum(p) * grid.h)
    p_new, _ = fdm_step(p, fdm_rate(p, params, grid), params, grid, 1e-5)
    assert abs(float(np.sum(p_new) * grid.h) - mass0) < 1e-12


def test_run_mass_exact(grid, domain):
    params = OnePopParams(a0=1.0, a1=0.1, b=0.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(grid, params, 0.2)
    rec = fdm_solve(ic, params, grid, dt, 0.2)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.masses - 1.0)) < 1e-10


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
    rate = fdm_rate(p, params, grid)
    for _ in range(round(0.05 / dt)):
        p, rate = fdm_step(p, rate, params, grid, dt)
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
    fdm_rec = fdm_solve(ic, params, g, dt, 4.0, blowup_threshold=5.0, cfl_rate_cap=6.0)
    assert fdm_rec.status == "blow-up-detected"
    assert fdm_rec.blowup_time == pytest.approx(spec_rec.blowup_time, rel=0.10)


def test_twopop_combined_mass_exact(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    params = TwoPopParams(
        b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.25, b_i_to_i=0.25,
        tau_e=0.025, tau_i=0.025, refractory_mode="exponential",
    )
    ic = normalize_gaussian(-1.0, 0.5, domain)
    rec = fdm_solve_twopop(ic, ic, params, g, reference_timestep(g, params, 0.1), 0.1)
    assert rec.status == "completed"
    assert np.max(np.abs(rec.mass_e + rec.refractory_e - 1.0)) < 1e-10
    assert np.max(np.abs(rec.mass_i + rec.refractory_i - 1.0)) < 1e-10


def test_twopop_reduces_to_onepop(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    params1 = OnePopParams(a0=1.0, a1=0.0, b=0.5)
    params2 = TwoPopParams(b_e_to_e=0.5, refractory_mode="pass-through")
    ic = normalize_gaussian(-1.0, 0.5, domain)
    dt = reference_timestep(g, params1, 0.1)
    rec1 = fdm_solve(ic, params1, g, dt, 0.1)
    rec2 = fdm_solve_twopop(ic, ic, params2, g, dt, 0.1)
    assert np.max(np.abs(rec2.rate_e - rec1.rates)) < 1e-12
    assert np.max(np.abs(rec2.mass_e - rec1.masses)) < 1e-12


def test_twopop_requires_constant_diffusion(domain):
    g = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 64.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    params = TwoPopParams(diffusion_mode="model", d_e_to_e=1.0)
    with pytest.raises(ConfigurationError, match="constant diffusion"):
        fdm_solve_twopop(ic, ic, params, g, 1e-5, 0.01)
