"""Galerkin matrix assembly, initial projection and reconstruction.

Every integral splits over the two open subintervals.  On the bounded right
subinterval the integrands are plain polynomials, handled by an affinely
mapped Gauss-Legendre rule.  On the semi-infinite left subinterval branch k
decays like exp(-c_k x), so the product of a pair (j, k) (and derivatives)
is exp(-gamma x) * polynomial with gamma = c_j + c_k; substituting
u = gamma x turns each into a Gauss-Laguerre integral, so assembly is exact
up to rounding -- no tail truncation anywhere.

The only inexact quadrature in the build is the initial-condition projection
right-hand side (the Gaussian is not weight-times-polynomial); it uses
oversampled composite panels instead.

:func:`assemble` takes every basis of a run at once, so that all of the
run's Gauss rules, the projection panels' included, come from one pass of
each family's recurrence (:mod:`quadrature`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet
from .errors import ConfigurationError, IllConditionedBasisError, check_finite, check_positive, check_positive_integer
from .quadrature import gauss_laguerre, gauss_legendre, map_affine
from .records import write_rows

# width of the composite panels used for projection right-hand sides; the
# integrands decay at least like exp(-x/2), so 20 panels reach amplitudes
# below 1e-17 at the far end
_PROJECTION_SPAN = 80.0
_PROJECTION_PANELS = 20
# the largest Gauss-Laguerre order that passes its post-check: from 383 on,
# the Laguerre functions' factor exp(-x/2) underflows to zero at the largest
# node (x > 1490); so M <= 187 at the default n_q = 2M+8
MAX_N_Q = 382
# the least mass an initial Gaussian may put below the threshold: the sum in
# m0 = (1 + erf(z / sqrt 2)) / 2 cancels for z << 0, leaving m0 a relative
# error of about 1e-16 / m0, and m0 = 0 makes the initial density 0/0; the
# projection of an initial density onto the basis must hold as much, in size
_MIN_INITIAL_MASS = 1e-8


@dataclass(frozen=True)
class GalerkinMatrices:
    """Dense matrices and functionals of the semi-discrete system.

    H: mass matrix, A: drift (leak) matrix, B: rate-drift matrix,
    C: stiffness matrix, D: threshold-flux coupling (nonzero only in the
    interface row), F: reset-point values, mass and slope: the functionals
    of the integral and of the threshold slope of each basis function, and
    ``readout`` the (dim, 2) matrix [slope | mass] that reads both from one
    product with a stack of rows.  The
    threshold trace coupling needs no matrix: every basis member vanishes at
    the threshold, so that term is identically zero.
    ``projection_nodes`` and ``projection_weights`` are the composite rule
    of :func:`project_initial`, built once with the matrices.
    """

    basis: BasisSet
    n_q: int
    H: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray
    mass: np.ndarray
    slope: np.ndarray
    readout: np.ndarray
    projection_nodes: np.ndarray
    projection_weights: np.ndarray


def assemble(basis: BasisSet, *more: BasisSet, n_q: int | None = None):
    """Assemble H, A, B, C, D, F and the mass and slope functionals of each basis.

    ``n_q`` defaults to 2M+8 of each basis, which is exact (with margin) for
    every integrand; orders below 2M+6 are rejected, and so are orders above
    :data:`MAX_N_Q`, where the Gauss-Laguerre rule fails its check.  Every
    basis is checked before any rule is built.

    Like the rules of :mod:`quadrature`, one basis returns its
    :class:`GalerkinMatrices` and several return a tuple in argument order.
    All the bases' rules come from one :func:`gauss_laguerre` call and one
    :func:`gauss_legendre` call, which shares one recurrence pass among
    them; the projection rules are in that call too.
    """
    bases = (basis, *more)
    orders = [_quadrature_order(b, n_q) for b in bases]
    lags = gauss_laguerre(*orders)
    # the projection panels' rules, 4M+32 nodes each, follow the assembly rules
    legs = gauss_legendre(*orders, *(4 * b.m + 32 for b in bases))
    if not more:
        lags = (lags,)
    n = len(bases)
    mats = tuple(map(_assemble_one, bases, orders, lags, legs[:n], legs[n:]))
    return mats if more else mats[0]


def _quadrature_order(basis: BasisSet, n_q: int | None) -> int:
    """The assembly rule's order for one basis: ``n_q``, by default 2M+8."""
    m = basis.m
    if n_q is None:
        n_q = 2 * m + 8
    check_positive_integer("quadrature order", n_q)
    if n_q < 2 * m + 6:
        raise ConfigurationError(f"quadrature order {n_q} too small, need >= {2 * m + 6}")
    if n_q > MAX_N_Q:
        raise ConfigurationError(f"quadrature order {n_q} too large, the Gauss-Laguerre rule holds up to {MAX_N_Q}")
    return n_q


def _assemble_one(basis: BasisSet, n_q: int, lag, leg_ref, projection_ref) -> GalerkinMatrices:
    """The matrices of one basis from its Gauss-Laguerre rule, its reference
    Gauss-Legendre rule and the reference rule of its projection panels."""
    m, dim = basis.m, basis.dim
    dom = basis.domain

    H = np.zeros((dim, dim))
    A = np.zeros((dim, dim))
    B = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    # left subinterval: branch k decays like exp(-c_k x), so pair (j, k)
    # decays at c_j + c_k; one table per distinct sum, and each entry adds
    # the integral under its own sum
    c = np.full(m + 1, 0.5 * basis.left_scale)
    c[0] = 0.5 * basis.beta
    decay = c[:, None] + c
    for gamma in dict.fromkeys(decay.flat):
        x, ww = lag.nodes / gamma, lag.weights / gamma
        q, r = basis.left_poly_parts(x)
        parts = (ww, q, q), (ww * (dom.v_reset - x), r, q), (ww, r, q), (ww, r, r)
        for mat, (wt, a, b) in zip((H, A, B, C), parts):
            block = mat[:m + 1, :m + 1]
            np.add(block, np.einsum("i,ai,bi->ab", wt, a, b), out=block, where=decay == gamma)

    # right subinterval: polynomials under a mapped Gauss-Legendre rule
    leg = map_affine(leg_ref, dom.v_reset, dom.v_threshold)
    vals = basis.values_at(leg.nodes)
    ders = basis.derivs_at(leg.nodes)
    w = leg.weights
    H += np.einsum("i,ai,bi->ab", w, vals, vals)
    A += np.einsum("i,ai,bi->ab", w * leg.nodes, ders, vals)
    B += np.einsum("i,ai,bi->ab", w, ders, vals)
    C += np.einsum("i,ai,bi->ab", w, ders, ders)

    F = basis.values_at([dom.v_reset])[:, 0]
    slope = basis.derivs_at([dom.v_threshold])[:, 0]
    D = np.outer(F, slope)

    # one table per decay rate; each row keeps its own dot product
    mass = np.zeros(dim)
    for c_k in dict.fromkeys(c.flat):
        q, _ = basis.left_poly_parts(lag.nodes / c_k)
        for k in np.flatnonzero(c == c_k):
            mass[k] = np.dot(lag.weights, q[k]) / c_k
    mass += vals @ w

    nodes, weights = _projection_rule(basis, projection_ref)
    return GalerkinMatrices(
        basis=basis, n_q=n_q, H=H, A=A, B=B, C=C, D=D, F=F, mass=mass, slope=slope,
        readout=np.column_stack((slope, mass)), projection_nodes=nodes, projection_weights=weights,
    )


@dataclass(frozen=True)
class GaussianIC:
    """Gaussian initial density, normalized to unit mass below the threshold."""

    v0: float
    sigma0_sq: float
    m0: float

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        sigma = math.sqrt(self.sigma0_sq)
        z = (v - self.v0) / sigma
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma * self.m0)


def normalize_gaussian(v0: float, sigma0_sq: float, domain) -> GaussianIC:
    """Normalization factor so the Gaussian integrates to 1 on (-inf, v_threshold]."""
    check_finite("v0", v0)
    check_positive("sigma0_sq", sigma0_sq)
    sigma = math.sqrt(sigma0_sq)
    z = (domain.v_threshold - v0) / sigma
    m0 = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    if m0 < _MIN_INITIAL_MASS:
        raise ConfigurationError(
            f"a Gaussian at v0={v0} with variance {sigma0_sq} has mass {m0:.3g} below the threshold, "
            f"need >= {_MIN_INITIAL_MASS:g}"
        )
    return GaussianIC(v0=v0, sigma0_sq=sigma0_sq, m0=m0)


def _projection_rule(basis: BasisSet, ref):
    """Composite Gauss-Legendre nodes covering [v_reset - span, v_threshold]:
    the reference rule ``ref``, 4M+32 nodes, on each panel."""
    dom = basis.domain
    edges = np.linspace(dom.v_reset - _PROJECTION_SPAN, dom.v_reset, _PROJECTION_PANELS + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panel = map_affine(ref, lo, hi)
        nodes.append(panel.nodes)
        weights.append(panel.weights)
    panel = map_affine(ref, dom.v_reset, dom.v_threshold)
    nodes.append(panel.nodes)
    weights.append(panel.weights)
    return np.concatenate(nodes), np.concatenate(weights)


def project_initial(matrices: GalerkinMatrices, p0) -> np.ndarray:
    """Expansion coefficients of the L2 projection of a density callable
    onto the span of ``matrices.basis``.

    Solves H u = r with r_j = int p0 psi_j dv, followed by one step of
    iterative refinement so the residual sits at rounding level.  A
    projection whose mass is smaller than ``_MIN_INITIAL_MASS`` in size (a
    density the basis does not resolve) is a :class:`ConfigurationError`.
    """
    nodes = matrices.projection_nodes
    vals = matrices.basis.values_at(nodes)
    r = vals @ (matrices.projection_weights * np.asarray(p0(nodes), dtype=float))

    H = matrices.H
    try:
        u = np.linalg.solve(H, r)
        u += np.linalg.solve(H, r - H @ u)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedBasisError(f"mass matrix solve failed: {exc}") from exc
    residual = np.max(np.abs(H @ u - r))
    if residual > 1e-12:
        raise IllConditionedBasisError(f"projection residual {residual:.3e} exceeds 1e-12")
    mass = float(matrices.mass @ u)
    if not abs(mass) >= _MIN_INITIAL_MASS:
        raise ConfigurationError(
            f"the initial density projects to mass {mass:.3g} on the M={matrices.basis.m} basis, "
            f"need |mass| >= {_MIN_INITIAL_MASS:g}: the basis does not resolve it"
        )
    return u


def reconstruct(basis: BasisSet, u_hat: np.ndarray, grid) -> np.ndarray:
    """Pointwise density sum_k u_k psi_k on the given grid."""
    return basis.values_at(grid).T @ np.asarray(u_hat, dtype=float)


def dump_matrices(matrices: GalerkinMatrices, directory: str) -> None:
    """Plain-text CSV dump (row-major, 17 significant digits) for external
    verification."""
    os.makedirs(directory, exist_ok=True)
    items = {
        "H": matrices.H,
        "A": matrices.A,
        "B": matrices.B,
        "C": matrices.C,
        "D": matrices.D,
        "F": matrices.F.reshape(1, -1),
        "mass": matrices.mass.reshape(1, -1),
    }
    for name, arr in items.items():
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            write_rows(fh, np.atleast_2d(arr).T)
