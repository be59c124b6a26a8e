"""Gaussian quadrature rules used by the Galerkin assembly.

Two families are provided: Gauss-Legendre on [-1, 1] (mapped to finite
subintervals with :func:`map_affine`) and Gauss-Laguerre on [0, inf) with
weight exp(-x).  Both come from one routine: the eigenvalues of the
family's Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969), polished by
a fixed number of vectorized Newton steps on the recurrences of
:mod:`basis`, which also give the closed-form weights.  A rule whose nodes
are not strictly increasing, or whose Newton correction at the nodes
exceeds a stated bound, raises ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import laguerre_fn_table, legendre_table

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


def _gauss(n_q: int, diagonal, off_diagonal, table):
    """Roots of the degree-n_q member of an orthogonal family.

    ``diagonal(k)`` (k = 0..n_q-1) and ``off_diagonal(k)`` (k = 1..n_q-1)
    are the entries of the family's Jacobi matrix; ``table(n, x)`` returns
    the values and derivatives of degrees 0..n at x.  Returns the nodes and
    the table of degrees 0..n_q+1 at them, which the weights are read from.
    """
    if n_q < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n_q}")
    k = np.arange(n_q, dtype=float)
    x = np.linalg.eigvalsh(np.diag(diagonal(k)) + np.diag(off_diagonal(k[1:]), -1), UPLO="L")
    for _ in range(_NEWTON_STEPS):
        vals, ders = table(n_q, x)
        x = x - vals[n_q] / ders[n_q]
    vals, ders = table(n_q + 1, x)
    correction = np.abs(vals[n_q] / ders[n_q])
    # a NaN node or correction fails the check
    bound = _MAX_CORRECTION * np.maximum(1.0, np.abs(x))
    if not (np.all(np.diff(x) > 0) and np.all(correction <= bound)):
        raise RuntimeError(
            f"Gauss rule for n_q={n_q} failed its check: nodes not strictly increasing "
            f"or a Newton correction above {_MAX_CORRECTION:g} (largest {correction.max():.3g})"
        )
    return x, vals, ders


def gauss_legendre(n_q: int) -> QuadratureRule:
    """n_q-point Gauss-Legendre rule on [-1, 1].

    Exact for polynomials of degree <= 2*n_q - 1.
    """
    x, _, ders = _gauss(n_q, np.zeros_like, lambda k: k / np.sqrt(4.0 * k * k - 1.0), legendre_table)
    return QuadratureRule(x, 2.0 / ((1.0 - x * x) * ders[n_q] ** 2), "finite-legendre")


def gauss_laguerre(n_q: int) -> QuadratureRule:
    """n_q-point Gauss-Laguerre rule: sum w_i f(x_i) = int_0^inf exp(-x) f(x) dx
    exactly for polynomial f of degree <= 2*n_q - 1.
    """
    x, vals, _ = _gauss(n_q, lambda k: 2.0 * k + 1.0, lambda k: k,
                        lambda n, x: laguerre_fn_table(n, x, derivatives=True))
    # w_i = x_i / ((n+1)^2 L_{n+1}(x_i)^2), the tables holding exp(-x/2) L_k
    return QuadratureRule(x, x * np.exp(-x) / ((n_q + 1) ** 2 * vals[n_q + 1] ** 2), "semi-infinite-laguerre")


def map_affine(rule: QuadratureRule, a: float, b: float) -> QuadratureRule:
    """Map a reference Gauss-Legendre rule from [-1, 1] onto [a, b]."""
    if rule.kind != "finite-legendre":
        raise ValueError("only finite-legendre rules can be affinely mapped")
    if not a < b:
        raise ValueError(f"invalid interval: need a < b, got [{a}, {b}]")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(half * rule.nodes + mid, half * rule.weights, "finite-legendre")
