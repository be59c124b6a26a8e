import math
import os

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnlif import assembly
from nnlif.assembly import (
    MAX_N_Q,
    assemble,
    dump_matrices,
    normalize_gaussian,
    project_initial,
    reconstruct,
)
from nnlif.basis import BasisSet, Domain
from nnlif.errors import ConfigurationError

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


@pytest.mark.parametrize("beta", [None, 1.25], ids=["default-beta", "pinned-beta"])
def test_matrices_match_simpson_oracle(domain, beta):
    # a pinned beta gives the interface branch its own decay rate, so the
    # left subinterval integrates under three distinct sums of rates
    basis = BasisSet(dataclasses.replace(domain, beta=beta), 8)
    mats = assemble(basis)
    oracle = _simpson_oracle(basis)
    for name in ("H", "A", "B", "C"):
        diff = np.max(np.abs(getattr(mats, name) - oracle[name]))
        assert diff < 1e-8, f"{name} differs from brute force by {diff:.2e}"
    assert np.max(np.abs(mats.mass - oracle["mass"])) < 1e-8


def test_threshold_coupling_from_traces(m8):
    basis, mats = m8
    dom = basis.domain
    value_at_reset, value_at_threshold = basis.values_at([dom.v_reset, dom.v_threshold]).T
    assert np.array_equal(mats.slope, basis.derivs_at([dom.v_threshold])[:, 0])
    expect = np.outer(value_at_reset - value_at_threshold, mats.slope)
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


@pytest.mark.parametrize("n_q", [20.5, 20.0, True])
def test_quadrature_order_must_be_an_integer(domain, n_q):
    with pytest.raises(ConfigurationError, match="must be a positive integer"):
        assemble(BasisSet(domain, 1), n_q=n_q)


def test_numpy_integer_quadrature_order(domain):
    basis = BasisSet(domain, 1)
    assert _field_bytes(assemble(basis, n_q=np.int64(20))) == _field_bytes(assemble(basis, n_q=20))


def test_quadrature_order_too_small_rejected(domain):
    basis = BasisSet(domain, 8)
    with pytest.raises(ValueError, match="too small"):
        assemble(basis, n_q=2 * basis.m + 5)


def _field_bytes(mats):
    """Every array of a GalerkinMatrices as bytes."""
    out = {}
    for field in dataclasses.fields(mats):
        value = getattr(mats, field.name)
        if isinstance(value, np.ndarray):
            out[field.name] = value.tobytes()
    out["n_q"] = mats.n_q
    return out


@settings(max_examples=15)
@given(ms=st.lists(st.integers(1, 40), min_size=2, max_size=4), unit_scale=st.booleans(), shared_n_q=st.booleans())
def test_assembling_bases_together_equals_one_at_a_time(domain, ms, unit_scale, shared_n_q):
    # one quadrature pass for all bases gives each basis its own matrices,
    # byte for byte: H, A, B, C, D, F, mass, slope and the projection rule
    bases = [BasisSet(domain, m, left_scale=1.0 if unit_scale else None) for m in ms]
    n_q = 2 * max(ms) + 8 if shared_n_q else None
    together = assemble(*bases, n_q=n_q)
    assert [mats.basis for mats in together] == bases
    for basis, mats in zip(bases, together):
        assert _field_bytes(mats) == _field_bytes(assemble(basis, n_q=n_q))


def test_every_basis_is_checked_before_any_rule_is_built(domain, monkeypatch):
    def no_rules(*orders):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(assembly, "gauss_laguerre", no_rules)
    monkeypatch.setattr(assembly, "gauss_legendre", no_rules)
    # n_q = 20 holds M = 4 but not M = 8
    with pytest.raises(ConfigurationError, match="too small, need >= 22"):
        assemble(BasisSet(domain, 4), BasisSet(domain, 8), n_q=20)
    with pytest.raises(ConfigurationError, match="too large"):
        assemble(BasisSet(domain, 4), BasisSet(domain, 8), n_q=MAX_N_Q + 1)


def test_projecting_a_span_member_returns_coordinates(m8):
    basis, mats = m8
    u = project_initial(mats, lambda v: basis.values_at(v)[0])
    expect = np.zeros(basis.dim)
    expect[0] = 1.0
    assert np.max(np.abs(u - expect)) < 1e-10


def test_projection_mass_defect(domain):
    basis = BasisSet(domain, 16)
    mats = assemble(basis)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    u0 = project_initial(mats, ic)
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
        u = project_initial(mats, ic)
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


def test_dump_matrices_writes_the_row_loop_text(tmp_path, m8):
    _, mats = m8
    dump_matrices(mats, str(tmp_path))
    items = {"H": mats.H, "A": mats.A, "B": mats.B, "C": mats.C, "D": mats.D,
             "F": mats.F.reshape(1, -1), "mass": mats.mass.reshape(1, -1)}
    assert sorted(os.listdir(tmp_path)) == sorted(f"{name}.csv" for name in items)
    for name, arr in items.items():
        want = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in arr)
        assert (tmp_path / f"{name}.csv").read_text(encoding="utf-8") == want, name


def test_dump_matrices_roundtrip(tmp_path, m8):
    _, mats = m8
    dump_matrices(mats, str(tmp_path))
    got = np.loadtxt(os.path.join(tmp_path, "H.csv"), delimiter=",")
    assert np.array_equal(got, mats.H)
    got_f = np.loadtxt(os.path.join(tmp_path, "F.csv"), delimiter=",")
    assert np.array_equal(got_f, mats.F)
