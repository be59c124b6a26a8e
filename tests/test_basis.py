import math

import numpy as np
import pytest

from nnlif.basis import BasisSet, Domain, laguerre_fn_table, legendre_table
from nnlif.errors import ConfigurationError
from nnlif.quadrature import gauss_laguerre


@pytest.fixture()
def unit_scale_basis(domain):
    # the unscaled family: Laguerre argument exactly v_reset - v
    return BasisSet(Domain(domain.v_reset, domain.v_threshold, beta=1.0), 6, left_scale=1.0)


def test_laguerre_fn_degree_zero():
    assert laguerre_fn_table(0, 1.4)[0, 0] == pytest.approx(math.exp(-0.7), rel=1e-15)


def test_laguerre_fn_at_zero_is_one():
    for value in laguerre_fn_table(7, 0.0)[:, 0]:
        assert value == pytest.approx(1.0, abs=1e-15)


def test_laguerre_fn_degree_two_hand_expansion():
    # L_2(x) = (x^2 - 4x + 2)/2 evaluated at 2 gives -1
    assert laguerre_fn_table(2, 2.0)[2, 0] == pytest.approx(-math.exp(-1.0), rel=1e-14)


def test_laguerre_fn_deriv_degree_zero():
    x = 0.37
    _, ders = laguerre_fn_table(0, x, derivatives=True)
    assert ders[0, 0] == pytest.approx(-0.5 * math.exp(-0.5 * x), rel=1e-14)


def test_laguerre_fn_deriv_degree_one_at_zero():
    _, ders = laguerre_fn_table(1, 0.0, derivatives=True)
    assert ders[1, 0] == pytest.approx(-1.5, abs=1e-14)


def test_laguerre_fn_deriv_matches_central_difference():
    h, x = 1e-6, 0.7
    vals, ders = laguerre_fn_table(6, [x + h, x - h, x], derivatives=True)
    fd = (vals[6, 0] - vals[6, 1]) / (2 * h)
    assert abs(ders[6, 2] - fd) < 1e-7


def test_legendre_degree_zero_constant():
    vals = legendre_table(0, [-1.0, -0.3, 0.0, 0.9, 1.0])
    for value in vals[0]:
        assert value == 1.0


def test_legendre_endpoint_normalization():
    vals = legendre_table(20, 1.0)
    for value in vals[:, 0]:
        assert value == pytest.approx(1.0, abs=1e-13)


def test_legendre_deriv_endpoint_identity():
    _, ders = legendre_table(20, 1.0, derivatives=True)
    for n in range(21):
        assert ders[n, 0] == pytest.approx(n * (n + 1) / 2, rel=1e-13)
    h = 1e-6
    vals, ders = legendre_table(7, [0.4 + h, 0.4 - h, 0.4], derivatives=True)
    fd = (vals[7, 0] - vals[7, 1]) / (2 * h)
    assert abs(ders[7, 2] - fd) < 1e-7


def test_laguerre_functions_orthonormal():
    # int_0^inf exp(-x/2)L_n exp(-x/2)L_m dx = delta_{nm}; factoring out the
    # exp(-x) weight leaves a polynomial handled exactly by the rule.  The
    # polynomial values come from a recurrence written out here so the check
    # is independent of the basis module.
    rule = gauss_laguerre(32)
    x = rule.nodes
    table = [np.ones_like(x), 1.0 - x]
    for k in range(1, 21):
        table.append(((2 * k + 1 - x) * table[k] - k * table[k - 1]) / (k + 1))
    for n in range(21):
        for m in range(n, 21):
            val = float(np.dot(rule.weights, table[n] * table[m]))
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-10


def test_interface_function_values(unit_scale_basis):
    b = unit_scale_basis
    vr, vf = b.domain.v_reset, b.domain.v_threshold
    at_vr, at_vf, at_0, at_15 = b.values_at([vr, vf, 0.0, 1.5])[0]
    assert at_vr == 1.0
    assert at_vf == 0.0
    assert at_0 == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert at_15 == pytest.approx(0.5, rel=1e-14)


def test_left_family_vanishes_at_reset(unit_scale_basis):
    b = unit_scale_basis
    vals = b.values_at([b.domain.v_reset, 1.5, 1.7])
    assert vals[1, 0] == 0.0
    # zero extension on the right subinterval
    assert vals[1, 1] == 0.0
    assert vals[b.m, 2] == 0.0


def test_right_family_vanishes_at_both_ends(unit_scale_basis):
    b = unit_scale_basis
    vals = b.values_at([b.domain.v_threshold, b.domain.v_reset, -0.5])
    assert vals[b.m + 1, 0] == 0.0
    assert vals[b.m + 1, 1] == 0.0
    assert vals[2 * b.m, 2] == 0.0


def test_unit_scale_left_values_match_function_difference(unit_scale_basis):
    b = unit_scale_basis
    v = -0.8
    x = b.domain.v_reset - v
    lag = laguerre_fn_table(b.m, x)[:, 0]
    vals = b.values_at([v])[:, 0]
    for j in range(b.m):
        expect = lag[j] - lag[j + 1]
        assert vals[1 + j] == pytest.approx(expect, rel=1e-13)


def test_interface_slope_on_right_branch(domain):
    b = BasisSet(domain, 4)
    for slope in b.derivs_at([1.2, 1.5, 1.9])[0]:
        assert slope == pytest.approx(1.0 / (domain.v_reset - domain.v_threshold), rel=1e-14)


def test_right_family_slope_at_threshold(domain):
    # 2 (L'_0(1) - L'_2(1)) = -6 when the right subinterval has unit width
    b = BasisSet(domain, 4)
    assert b.derivs_at([domain.v_threshold])[b.m + 1, 0] == pytest.approx(-6.0, rel=1e-13)


@pytest.mark.parametrize("left_scale", [1.0, None])
def test_derivatives_match_central_differences(domain, rng, left_scale):
    b = BasisSet(domain, 8, left_scale=left_scale)
    h = 1e-6
    vs = np.concatenate(
        [
            rng.uniform(-6.0, domain.v_reset - 1e-3, 50),
            rng.uniform(domain.v_reset + 1e-3, domain.v_threshold - 1e-3, 50),
        ]
    )
    fd = (b.values_at(vs + h) - b.values_at(vs - h)) / (2 * h)
    exact = b.derivs_at(vs)
    assert np.max(np.abs(exact - fd)) < 1e-6


def test_traces(domain):
    b = BasisSet(domain, 5)
    value_at_reset, value_at_threshold = b.values_at([domain.v_reset, domain.v_threshold]).T
    deriv_at_threshold = b.derivs_at([domain.v_threshold])[:, 0]
    expect_reset = np.zeros(b.dim)
    expect_reset[0] = 1.0
    assert np.array_equal(value_at_reset, expect_reset)
    assert np.array_equal(value_at_threshold, np.zeros(b.dim))
    # interface slope at the threshold, zero for the decaying side
    assert deriv_at_threshold[0] == pytest.approx(-1.0)
    assert np.array_equal(deriv_at_threshold[1 : b.m + 1], np.zeros(b.m))
    # right-side slopes at the threshold: -(2k+3) * 2 / width
    for j in range(b.m):
        assert deriv_at_threshold[1 + b.m + j] == pytest.approx(-2.0 * (2 * j + 3))


@pytest.mark.parametrize("v_reset, v_threshold", [(1.0, 2.0), (0.1, 0.2), (-5.3, 7.9)])
def test_threshold_traces_exact_on_any_domain(v_reset, v_threshold):
    # the threshold maps to exactly 1 on the reference interval, so the right
    # family vanishes there and its slopes are exactly -(2j+3) * 2 / width
    b = BasisSet(Domain(v_reset, v_threshold), 7)
    assert np.array_equal(b.values_at([v_threshold])[:, 0], np.zeros(b.dim))
    slopes = (2.0 / b.domain.width) * -(2.0 * np.arange(b.m) + 3.0)
    assert np.array_equal(b.derivs_at([v_threshold])[b.m + 1 :, 0], slopes)


def test_continuity_across_reset(domain):
    b = BasisSet(domain, 8)
    eps = 1e-10
    vr = domain.v_reset
    vals_left = b.values_at(np.array([vr - eps]))[:, 0]
    vals_right = b.values_at(np.array([vr + eps]))[:, 0]
    at = b.values_at(np.array([vr]))[:, 0]
    assert np.max(np.abs(vals_left - at)) < 1e-8
    assert np.max(np.abs(vals_right - at)) < 1e-8
    # the convention at the reset point itself is exact
    assert at[0] == 1.0
    assert np.array_equal(at[1:], np.zeros(b.dim - 1))


def test_far_tail_decay(domain):
    b = BasisSet(domain, 16)
    vals = b.values_at(np.array([domain.v_reset - 80.0]))
    assert np.max(np.abs(vals)) < 1e-8


def test_evaluation_beyond_threshold_rejected(domain):
    b = BasisSet(domain, 3)
    with pytest.raises(ValueError):
        b.values_at(np.array([domain.v_threshold + 0.1]))


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3"], ids=["2.5", "3.0", "bool", "str"])
def test_expansion_number_must_be_an_integer(domain, m):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        BasisSet(domain, m)


def test_numpy_integer_expansion_number(domain):
    assert BasisSet(domain, np.int64(3)).dim == 7


def test_default_scale_tracks_expansion_number(domain):
    assert BasisSet(domain, 16).left_scale == 8.0
    assert BasisSet(domain, 2).left_scale == 1.0
    assert BasisSet(domain, 16, left_scale=2.5).left_scale == 2.5
    # beta follows the scale unless the domain pins it
    assert BasisSet(domain, 16).beta == 8.0
    pinned = Domain(domain.v_reset, domain.v_threshold, beta=1.25)
    assert BasisSet(pinned, 16).beta == 1.25


def test_classical_laguerre_table_matches_scipy():
    # decay 0 gives L_n and L_n' = -L^(1)_{n-1}; errors relative to each
    # degree's largest magnitude on the grid, worst seen 3.1e-15 (values)
    # and 5.6e-15 (derivatives)
    from scipy.special import eval_genlaguerre, eval_laguerre

    x = np.linspace(0.0, 40.0, 4001)
    vals, ders = laguerre_fn_table(30, x, derivatives=True, decay=0.0)
    for n in range(31):
        ref = eval_laguerre(n, x)
        dref = -eval_genlaguerre(n - 1, 1, x) if n else np.zeros_like(x)
        assert np.max(np.abs(vals[n] - ref)) <= 1e-13 * np.max(np.abs(ref)), n
        assert np.max(np.abs(ders[n] - dref)) <= 1e-13 * max(np.max(np.abs(dref)), 1.0), n
