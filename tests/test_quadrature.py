import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnlif.quadrature import QuadratureRule, gauss_laguerre, gauss_legendre, map_affine


def test_legendre_one_point_is_midpoint_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0])
    assert rule.weights == pytest.approx([2.0])


def test_legendre_two_point_classical_nodes():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_legendre_16_odd_and_even_monomials():
    rule = gauss_legendre(16)
    assert abs(rule.integrate(lambda x: x**31)) < 1e-13
    assert rule.integrate(lambda x: x**30) == pytest.approx(2.0 / 31.0, abs=1e-13)


def test_laguerre_one_point():
    rule = gauss_laguerre(1)
    assert rule.nodes == pytest.approx([1.0])
    assert rule.weights == pytest.approx([1.0])


def test_laguerre_two_point_cubic_moment():
    rule = gauss_laguerre(2)
    assert rule.integrate(lambda x: x**3) == pytest.approx(6.0, rel=1e-13)


def test_laguerre_40_factorial_moment():
    rule = gauss_laguerre(40)
    assert rule.integrate(lambda x: x**20) == pytest.approx(math.factorial(20), rel=1e-12)


@pytest.mark.parametrize("n_q", range(1, 33))
def test_exactness_up_to_degree_2n_minus_1(n_q):
    leg = gauss_legendre(n_q)
    lag = gauss_laguerre(n_q)
    for d in range(2 * n_q):
        exact_leg = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        got_leg = leg.integrate(lambda x: x**d)
        assert abs(got_leg - exact_leg) <= 1e-12 * max(1.0, abs(exact_leg))
        exact_lag = math.factorial(d)
        got_lag = lag.integrate(lambda x: x**d)
        assert abs(got_lag - exact_lag) <= 1e-12 * exact_lag


@pytest.mark.parametrize("n_q", [1, 2, 3, 5, 8, 13, 21, 32, 64])
def test_nodes_increasing_weights_positive(n_q):
    for rule, total in ((gauss_legendre(n_q), 2.0), (gauss_laguerre(n_q), 1.0)):
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(total, rel=1e-12)


def test_large_orders_converge():
    for n_q in (128, 256):
        rule = gauss_laguerre(n_q)
        assert np.all(np.diff(rule.nodes) > 0)
        assert gauss_legendre(n_q).weights.sum() == pytest.approx(2.0, rel=1e-12)


def test_map_affine_one_point():
    rule = map_affine(gauss_legendre(1), 1.0, 2.0)
    assert rule.nodes == pytest.approx([1.5])
    assert rule.weights == pytest.approx([1.0])


def test_map_affine_two_point():
    rule = map_affine(gauss_legendre(2), 0.0, 2.0)
    assert rule.weights == pytest.approx([1.0, 1.0])
    assert rule.nodes == pytest.approx([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)])


def test_map_affine_integrates_quadratic_exactly():
    rule = map_affine(gauss_legendre(2), 1.0, 2.0)
    assert rule.integrate(lambda v: v**2) == pytest.approx(7.0 / 3.0, rel=1e-14)


def test_map_affine_rejects_bad_interval():
    with pytest.raises(ValueError, match="invalid interval"):
        map_affine(gauss_legendre(2), 2.0, 2.0)
    with pytest.raises(ValueError, match="invalid interval"):
        map_affine(gauss_legendre(2), 3.0, 2.0)


def test_map_affine_rejects_laguerre_rule():
    with pytest.raises(ValueError, match="finite-legendre"):
        map_affine(gauss_laguerre(2), 0.0, 1.0)


def test_order_below_one_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_laguerre(0)


@pytest.mark.parametrize("n_q", [24, 40, 56])
def test_rules_match_mpmath_at_50_digits(n_q):
    mpmath = pytest.importorskip("mpmath")
    lag, leg = gauss_laguerre(n_q), gauss_legendre(n_q)
    with mpmath.workdps(50):
        # roots of p_n / p_n', which behaves like x - root, seeded from the rule under test
        def laguerre_step(t):
            return mpmath.laguerre(n_q, 0, t) / mpmath.laguerre(n_q - 1, 1, t)

        def legendre_step(t):
            p_n, p_prev = mpmath.legendre(n_q, t), mpmath.legendre(n_q - 1, t)
            return p_n * (t * t - 1) / (n_q * (t * p_n - p_prev))

        x = [mpmath.findroot(laguerre_step, float(v)) for v in lag.nodes]
        y = [mpmath.findroot(legendre_step, float(v)) for v in leg.nodes]
        # weights from L_n' = -L_{n-1}^(1) and P_n' = n P_{n-1} / (1 - x^2) at the roots, a
        # different closed form from the rules' own
        w_lag = [1 / (xi * mpmath.laguerre(n_q - 1, 1, xi) ** 2) for xi in x]
        w_leg = [2 * (1 - yi * yi) / (n_q * mpmath.legendre(n_q - 1, yi)) ** 2 for yi in y]
        assert max(abs(a / b - 1) for a, b in zip(lag.nodes, x)) < 5e-14
        assert max(abs(a - b) for a, b in zip(leg.nodes, y)) < 5e-14
        assert max(abs(a / b - 1) for a, b in zip(lag.weights, w_lag)) < 1e-11
        assert max(abs(a / b - 1) for a, b in zip(leg.weights, w_leg)) < 1e-11
        for k in range(2 * n_q):
            moment = mpmath.fsum(mpmath.mpf(w) * mpmath.mpf(v) ** k for w, v in zip(lag.weights, lag.nodes))
            assert abs(moment / mpmath.factorial(k) - 1) < 1e-12


def test_laguerre_rule_beyond_double_range_fails_its_check():
    # past n_q ~ 370 exp(-x/2) underflows at the largest nodes; the NaN
    # corrections must fail the post-check rather than pass as a rule
    with pytest.raises(RuntimeError, match="n_q=400"), np.errstate(invalid="ignore"):
        gauss_laguerre(400)


def _one_by_one(fn, orders):
    return tuple(fn(n) for n in orders)


def _same_bytes(a, b):
    return a.kind == b.kind and a.nodes.tobytes() == b.nodes.tobytes() and a.weights.tobytes() == b.weights.tobytes()


@settings(max_examples=12)
@given(orders=st.lists(st.integers(1, 382), min_size=2, max_size=5).flatmap(
    lambda xs: st.permutations(xs + xs[: len(xs) // 2])))
def test_batched_rules_equal_one_order_rules_byte_for_byte(orders):
    # the shared recurrence pass does the same arithmetic on every node;
    # repeated orders included
    for fn in (gauss_legendre, gauss_laguerre):
        batched = fn(*orders)
        assert len(batched) == len(orders)
        assert all(_same_bytes(a, b) for a, b in zip(batched, _one_by_one(fn, orders)))


def test_one_order_returns_its_rule_and_repeats_share_one():
    assert isinstance(gauss_legendre(5), QuadratureRule)
    a, b, c = gauss_laguerre(7, 3, 7)
    assert a is c and _same_bytes(b, gauss_laguerre(3))


def test_failing_order_in_a_batch_is_named():
    with pytest.raises(RuntimeError, match="n_q=383"), np.errstate(invalid="ignore", divide="ignore"):
        gauss_laguerre(20, 383, 40)
    for fn in (gauss_legendre, gauss_laguerre):
        with pytest.raises(ValueError, match="got 0"):
            fn(4, 0, 9)


# the Gauss-Legendre orders of a stability-grid run over M = 3..13 with the
# M = 16 self reference: assembly rules 2M+8, projection rules 4M+32
_GRID_MS = [*range(3, 14), 16]
_GRID_ORDERS = [2 * m + 8 for m in _GRID_MS] + [4 * m + 32 for m in _GRID_MS]


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_rules_hold_no_more_memory_than_one_at_a_time():
    # the recurrence is streamed: a batch holds a few rows over all its
    # nodes, never a (degree x nodes) table
    batched = _traced_peak(lambda: gauss_legendre(*_GRID_ORDERS))
    single = _traced_peak(lambda: _one_by_one(gauss_legendre, _GRID_ORDERS))
    assert batched <= single
