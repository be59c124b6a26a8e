import math
import os

import numpy as np
import pytest

from nnlif.assembly import (
    assemble,
    dump_matrices,
    normalize_gaussian,
    project_initial,
    reconstruct,
)
from nnlif.basis import BasisSet, Domain

# the left tail of the brute-force window: products of basis functions carry
# at least exp(-x) decay, so 120 voltage units push the integrands below
# 1e-13 for every expansion used here
_SIMPSON_CUT = 120.0


def _simpson_points(a, b, panels):
    n = 2 * panels
    x = np.linspace(a, b, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / n / 3.0
    return x, w


def _simpson_oracle(basis):
    """Brute-force values of every matrix entry on a truncated window."""
    dom = basis.domain
    xl, wl = _simpson_points(dom.v_reset - _SIMPSON_CUT, dom.v_reset - 1e-13, 120_000)
    xr, wr = _simpson_points(dom.v_reset + 1e-13, dom.v_threshold, 20_000)
    x = np.concatenate([xl, xr])
    w = np.concatenate([wl, wr])
    vals = basis.values_at(x)
    ders = basis.derivs_at(x)
    return {
        "H": (vals * w) @ vals.T,
        "A": (ders * (w * x)) @ vals.T,
        "B": (ders * w) @ vals.T,
        "C": (ders * w) @ ders.T,
        "mass": vals @ w,
    }


@pytest.fixture(scope="module")
def m8(domain):
    basis = BasisSet(domain, 8)
    return basis, assemble(basis)


def test_interface_mass_entry_closed_form(domain):
    # 1/beta + width/3 for the interface self-product
    basis = BasisSet(Domain(domain.v_reset, domain.v_threshold, beta=1.0), 4, left_scale=1.0)
    mats = assemble(basis)
    assert mats.H[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-13)
    scaled = BasisSet(domain, 8)
    assert assemble(scaled).H[0, 0] == pytest.approx(1.0 / scaled.beta + 1.0 / 3.0, rel=1e-12)


def test_matrices_match_simpson_oracle(m8):
    basis, mats = m8
    oracle = _simpson_oracle(basis)
    for name in ("H", "A", "B", "C"):
        diff = np.max(np.abs(getattr(mats, name) - oracle[name]))
        assert diff < 1e-8, f"{name} differs from brute force by {diff:.2e}"
    assert np.max(np.abs(mats.mass - oracle["mass"])) < 1e-8


def test_threshold_coupling_from_traces(m8):
    basis, mats = m8
    tr = mats.traces
    expect = np.outer(tr.value_at_reset - tr.value_at_threshold, tr.deriv_at_threshold)
    assert np.array_equal(mats.D, expect)
    # only the interface row can be nonzero
    assert np.all(mats.D[1:] == 0.0)
    expect_f = np.zeros(basis.dim)
    expect_f[0] = 1.0
    assert np.array_equal(mats.F, expect_f)


def test_symmetry(m8):
    _, mats = m8
    assert np.max(np.abs(mats.H - mats.H.T)) < 1e-13
    assert np.max(np.abs(mats.C - mats.C.T)) < 1e-13


@pytest.mark.parametrize("m", [4, 8, 16, 24])
def test_mass_matrix_positive_definite(domain, m):
    mats = assemble(BasisSet(domain, m))
    np.linalg.cholesky(mats.H)
    assert np.linalg.eigvalsh(mats.H).min() > 0


def test_cross_blocks_exactly_zero(m8):
    basis, mats = m8
    left = slice(1, basis.m + 1)
    right = slice(basis.m + 1, basis.dim)
    for mat in (mats.H, mats.A, mats.B, mats.C):
        assert np.all(mat[left, right] == 0.0)
        assert np.all(mat[right, left] == 0.0)


def test_quadrature_order_stability(domain):
    basis = BasisSet(domain, 8)
    a = assemble(basis, n_q=2 * basis.m + 8)
    b = assemble(basis, n_q=2 * (2 * basis.m + 8))
    for name in ("H", "A", "B", "C", "mass"):
        assert np.max(np.abs(getattr(a, name) - getattr(b, name))) < 1e-12


def test_quadrature_order_too_small_rejected(domain):
    basis = BasisSet(domain, 8)
    with pytest.raises(ValueError, match="too small"):
        assemble(basis, n_q=2 * basis.m + 5)


def test_projecting_a_span_member_returns_coordinates(m8):
    basis, mats = m8
    u = project_initial(basis, mats, lambda v: basis.values_at(v)[0])
    expect = np.zeros(basis.dim)
    expect[0] = 1.0
    assert np.max(np.abs(u - expect)) < 1e-10


def test_projection_mass_defect(domain):
    basis = BasisSet(domain, 16)
    mats = assemble(basis)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    u0 = project_initial(basis, mats, ic)
    assert abs(float(np.dot(mats.mass, u0)) - 1.0) < 2e-3


def test_projection_error_decreases_with_m(domain):
    ic = normalize_gaussian(-1.0, 0.5, domain)
    grid = np.linspace(-9.0, domain.v_threshold, 4001)
    w = np.full(grid.size, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    errs = []
    for m in (4, 8, 12, 16):
        basis = BasisSet(domain, m)
        mats = assemble(basis)
        u = project_initial(basis, mats, ic)
        resid = reconstruct(basis, u, grid) - ic(grid)
        errs.append(math.sqrt(float(np.sum(w * resid * resid))))
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))


def test_reconstruct_unit_vector_gives_interface_function(m8):
    basis, _ = m8
    grid = np.linspace(-4.0, basis.domain.v_threshold, 101)
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    assert np.array_equal(reconstruct(basis, e0, grid), basis.values_at(grid)[0])
    assert np.array_equal(
        reconstruct(basis, np.zeros(basis.dim), grid), np.zeros(grid.size)
    )


def test_reconstruct_matches_term_by_term_sum(m8, rng):
    basis, _ = m8
    u = rng.standard_normal(basis.dim)
    vs = rng.uniform(-5.0, basis.domain.v_threshold, 17)
    fast = reconstruct(basis, u, vs)
    slow = np.zeros(vs.size)
    for k in range(basis.dim):
        slow += u[k] * basis.values_at(vs)[k]
    assert np.max(np.abs(fast - slow)) < 1e-13


def test_normalize_gaussian_half_mass_at_threshold(domain):
    ic = normalize_gaussian(domain.v_threshold, 0.7, domain)
    assert ic.m0 == pytest.approx(0.5, rel=1e-14)


def test_normalize_gaussian_reference_value(domain):
    ic = normalize_gaussian(-1.0, 0.5, domain)
    # quoted value is only good to ~1e-7; the quadrature cross-check below
    # pins the exact digits
    assert ic.m0 == pytest.approx(0.99998907, abs=2e-7)
    grid = np.linspace(-12.0, domain.v_threshold, 200001)
    vals = np.exp(-((grid + 1.0) ** 2) / 1.0) / math.sqrt(math.pi)
    assert np.trapezoid(vals, grid) == pytest.approx(ic.m0, abs=1e-10)


def test_normalize_gaussian_far_left_mean(domain):
    assert normalize_gaussian(-80.0, 1.0, domain).m0 == pytest.approx(1.0, abs=1e-15)


def test_normalize_gaussian_rejects_bad_variance(domain):
    with pytest.raises(ValueError):
        normalize_gaussian(0.0, 0.0, domain)


def test_dump_matrices_roundtrip(tmp_path, m8):
    _, mats = m8
    dump_matrices(mats, str(tmp_path))
    got = np.loadtxt(os.path.join(tmp_path, "H.csv"), delimiter=",")
    assert np.array_equal(got, mats.H)
    got_f = np.loadtxt(os.path.join(tmp_path, "F.csv"), delimiter=",")
    assert np.array_equal(got_f, mats.F)
