"""Gaussian quadrature rules used by the Galerkin assembly.

Two families are provided: Gauss-Legendre on [-1, 1] (mapped to finite
subintervals with :func:`map_affine`) and Gauss-Laguerre on [0, inf) with
weight exp(-x).  Both come from one routine: the eigenvalues of the
family's Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969), polished by
a fixed number of vectorized Newton steps on the streamed recurrences of
:mod:`basis`, which also give the closed-form weights.  A rule whose nodes
are not strictly increasing, or whose Newton correction at the nodes
exceeds a stated bound, raises ``RuntimeError`` naming its order.

Both functions take one order or several, like ``numpy.atleast_1d``: one
order returns its rule, several a tuple in argument order.  The rules of
one call share the recurrence, whose Python loop over degree sets the cost:
each Newton pass and the check pass run it once, to the largest order, over
the nodes of every order.  Nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .basis import laguerre_fn_rows, legendre_rows

# eigenvalues are accurate to rounding times the Jacobi matrix's norm; two
# quadratically convergent steps take every node to rounding level
_NEWTON_STEPS = 2
# largest Newton correction accepted at the final nodes, relative to max(1, |x|)
_MAX_CORRECTION = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a Gaussian rule.

    ``kind`` is "finite-legendre" for rules on a bounded interval and
    "semi-infinite-laguerre" for rules on [0, inf) against weight exp(-x).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def integrate(self, f) -> float:
        """Apply the rule to a callable (the exp(-x) weight is implicit
        for Laguerre rules)."""
        return float(np.dot(self.weights, f(self.nodes)))


def _gauss(orders, diagonal, off_diagonal, rows):
    """Roots of the degree-n member of an orthogonal family, for each
    distinct order n in ``orders``.

    ``diagonal(k)`` (k = 0..n-1) and ``off_diagonal(k)`` (k = 1..n-1) are the
    entries of the family's Jacobi matrix; ``rows(n, x)`` streams the values
    and derivatives of degrees 0..n at x.  Each order gets its own
    eigenvalues; every Newton pass and the check pass then run the stream
    once over the nodes of all orders, each node reading the degrees of its
    own order.  Returns {n: (nodes, p_n, p_n', p_{n+1} at the nodes)}.
    """
    for n in orders:
        if n < 1:
            raise ValueError(f"quadrature order must be >= 1, got {n}")
    distinct = list(dict.fromkeys(orders))
    spans = {n: slice(end - n, end) for n, end in zip(distinct, accumulate(distinct))}
    top = max(distinct)
    parts = []
    for n in distinct:
        k = np.arange(n, dtype=float)
        parts.append(np.linalg.eigvalsh(np.diag(diagonal(k)) + np.diag(off_diagonal(k[1:]), -1), UPLO="L"))
    x = np.concatenate(parts)
    for _ in range(_NEWTON_STEPS):
        step = np.empty_like(x)
        for k, (vals, ders) in enumerate(rows(top, x)):
            if k in spans:
                s = spans[k]
                step[s] = vals[s] / ders[s]
        x = x - step
    p_n, dp_n, p_next = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for k, (vals, ders) in enumerate(rows(top + 1, x)):
        if k in spans:
            s = spans[k]
            p_n[s], dp_n[s] = vals[s], ders[s]
        if k - 1 in spans:
            s = spans[k - 1]
            p_next[s] = vals[s]
    correction = np.abs(p_n / dp_n)
    # a NaN node or correction fails the check
    bound = _MAX_CORRECTION * np.maximum(1.0, np.abs(x))
    for n, s in spans.items():
        if not (np.all(np.diff(x[s]) > 0) and np.all(correction[s] <= bound[s])):
            raise RuntimeError(
                f"Gauss rule for n_q={n} failed its check: nodes not strictly increasing "
                f"or a Newton correction above {_MAX_CORRECTION:g} (largest {correction[s].max():.3g})"
            )
    return {n: (x[s], p_n[s], dp_n[s], p_next[s]) for n, s in spans.items()}


def _in_order(rules: dict, orders):
    """One rule for one order, else a tuple of rules in argument order."""
    return rules[orders[0]] if len(orders) == 1 else tuple(rules[n] for n in orders)


def gauss_legendre(n_q: int, *more: int):
    """n_q-point Gauss-Legendre rule on [-1, 1], exact for polynomials of
    degree <= 2*n_q - 1.

    With several orders, returns a tuple of rules in argument order, all
    built in one pass (:func:`_gauss`); a repeated order is built once.
    """
    orders = (n_q, *more)
    found = _gauss(orders, np.zeros_like, lambda k: k / np.sqrt(4.0 * k * k - 1.0),
                   lambda n, x: legendre_rows(n, x, derivatives=True))
    return _in_order({n: QuadratureRule(x, 2.0 / ((1.0 - x * x) * dp ** 2), "finite-legendre")
                      for n, (x, _, dp, _) in found.items()}, orders)


def gauss_laguerre(n_q: int, *more: int):
    """n_q-point Gauss-Laguerre rule: sum w_i f(x_i) = int_0^inf exp(-x) f(x) dx
    exactly for polynomial f of degree <= 2*n_q - 1.

    Several orders are handled as by :func:`gauss_legendre`.
    """
    orders = (n_q, *more)
    found = _gauss(orders, lambda k: 2.0 * k + 1.0, lambda k: k,
                   lambda n, x: laguerre_fn_rows(n, x, derivatives=True))
    # w_i = x_i / ((n+1)^2 L_{n+1}(x_i)^2), the stream holding exp(-x/2) L_k
    return _in_order({n: QuadratureRule(x, x * np.exp(-x) / ((n + 1) ** 2 * p_next ** 2), "semi-infinite-laguerre")
                      for n, (x, _, _, p_next) in found.items()}, orders)


def map_affine(rule: QuadratureRule, a: float, b: float) -> QuadratureRule:
    """Map a reference Gauss-Legendre rule from [-1, 1] onto [a, b]."""
    if rule.kind != "finite-legendre":
        raise ValueError("only finite-legendre rules can be affinely mapped")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(half * rule.nodes + mid, half * rule.weights, "finite-legendre")
