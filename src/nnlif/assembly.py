"""Galerkin matrix assembly, initial projection and reconstruction.

Every integral splits over the two open subintervals.  On the bounded right
subinterval the integrands are plain polynomials, handled by an affinely
mapped Gauss-Legendre rule.  On the semi-infinite left subinterval every
product of basis functions (and derivatives) has the form
exp(-gamma x) * polynomial with gamma in {beta, (beta+1)/2, 1}; substituting
u = gamma x turns each into a Gauss-Laguerre integral, so assembly is exact
up to rounding -- no tail truncation anywhere.

The only inexact quadrature in the build is the initial-condition projection
right-hand side (the Gaussian is not weight-times-polynomial); it uses
oversampled composite panels instead.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, BoundaryTraces
from .errors import ConfigurationError, IllConditionedBasisError, check_finite
from .quadrature import gauss_laguerre, gauss_legendre, map_affine

# width of the composite panels used for projection right-hand sides; the
# integrands decay at least like exp(-x/2), so 20 panels reach amplitudes
# below 1e-17 at the far end
_PROJECTION_SPAN = 80.0
_PROJECTION_PANELS = 20


@dataclass(frozen=True)
class GalerkinMatrices:
    """Dense matrices and functionals of the semi-discrete system.

    H: mass matrix, A: drift (leak) matrix, B: rate-drift matrix,
    C: stiffness matrix, D: threshold-flux coupling (nonzero only in the
    interface row), F: reset-point values, mass: integrals of each basis
    function.  The threshold trace coupling needs no matrix: every basis
    member vanishes at the threshold, so that term is identically zero.
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
    traces: BoundaryTraces


def assemble(basis: BasisSet, n_q: int | None = None) -> GalerkinMatrices:
    """Assemble H, A, B, C, D, F and the mass functional.

    ``n_q`` defaults to 2M+8 which is exact (with margin) for every
    integrand; orders below 2M+6 are rejected.
    """
    m, dim = basis.m, basis.dim
    if n_q is None:
        n_q = 2 * m + 8
    if n_q < 2 * m + 6:
        raise ConfigurationError(f"quadrature order {n_q} too small, need >= {2 * m + 6}")
    dom = basis.domain

    H = np.zeros((dim, dim))
    A = np.zeros((dim, dim))
    B = np.zeros((dim, dim))
    C = np.zeros((dim, dim))

    # left subinterval: ordered pair groups share the decay rate gamma
    lag = gauss_laguerre(n_q)
    idx_g = [0]
    idx_l = list(range(1, m + 1))
    c_g = 0.5 * basis.beta
    c_l = 0.5 * basis.left_scale
    groups = [
        (idx_g, idx_g, 2 * c_g),
        (idx_g, idx_l, c_g + c_l),
        (idx_l, idx_g, c_g + c_l),
        (idx_l, idx_l, 2 * c_l),
    ]
    for rows, cols, gamma in groups:
        x = lag.nodes / gamma
        ww = lag.weights / gamma
        q_r, r_r = basis.left_poly_parts(rows, x)
        if cols == rows:
            q_c, r_c = q_r, r_r
        else:
            q_c, r_c = basis.left_poly_parts(cols, x)
        sel = np.ix_(rows, cols)
        vfac = dom.v_reset - x
        H[sel] += np.einsum("i,ai,bi->ab", ww, q_r, q_c)
        A[sel] += np.einsum("i,ai,bi->ab", ww * vfac, r_r, q_c)
        B[sel] += np.einsum("i,ai,bi->ab", ww, r_r, q_c)
        C[sel] += np.einsum("i,ai,bi->ab", ww, r_r, r_c)

    # right subinterval: polynomials under a mapped Gauss-Legendre rule
    leg = map_affine(gauss_legendre(n_q), dom.v_reset, dom.v_threshold)
    vals = basis.values_at(leg.nodes)
    ders = basis.derivs_at(leg.nodes)
    w = leg.weights
    H += np.einsum("i,ai,bi->ab", w, vals, vals)
    A += np.einsum("i,ai,bi->ab", w * leg.nodes, ders, vals)
    B += np.einsum("i,ai,bi->ab", w, ders, vals)
    C += np.einsum("i,ai,bi->ab", w, ders, ders)

    traces = basis.traces()
    D = np.outer(traces.value_at_reset - traces.value_at_threshold, traces.deriv_at_threshold)
    F = traces.value_at_reset.copy()

    mass = np.zeros(dim)
    for k in range(m + 1):
        c = basis.left_decay(k)
        q, _ = basis.left_poly_parts([k], lag.nodes / c)
        mass[k] = np.dot(lag.weights, q[0]) / c
    mass += vals @ w

    return GalerkinMatrices(
        basis=basis, n_q=n_q, H=H, A=A, B=B, C=C, D=D, F=F, mass=mass, traces=traces
    )


@dataclass(frozen=True)
class GaussianIC:
    """Gaussian initial density, normalized to unit mass below the threshold."""

    v0: float
    sigma0_sq: float
    m0: float
    v_threshold: float

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        sigma = math.sqrt(self.sigma0_sq)
        z = (v - self.v0) / sigma
        return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * sigma * self.m0)


def normalize_gaussian(v0: float, sigma0_sq: float, domain) -> GaussianIC:
    """Normalization factor so the Gaussian integrates to 1 on (-inf, v_threshold]."""
    check_finite("v0", v0)
    check_finite("sigma0_sq", sigma0_sq)
    if sigma0_sq <= 0:
        raise ConfigurationError(f"variance must be positive, got {sigma0_sq}")
    sigma = math.sqrt(sigma0_sq)
    z = (domain.v_threshold - v0) / sigma
    m0 = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return GaussianIC(v0=v0, sigma0_sq=sigma0_sq, m0=m0, v_threshold=domain.v_threshold)


def _projection_nodes(basis: BasisSet, n_q: int):
    """Composite quadrature nodes covering [v_reset - span, v_threshold]."""
    dom = basis.domain
    ref = gauss_legendre(n_q)
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


def project_initial(
    basis: BasisSet,
    matrices: GalerkinMatrices,
    p0,
    n_q: int | None = None,
) -> np.ndarray:
    """Expansion coefficients of the L2 projection of a density callable.

    Solves H u = r with r_j = int p0 psi_j dv, followed by one step of
    iterative refinement so the residual sits at rounding level.
    """
    if n_q is None:
        n_q = 4 * basis.m + 32
    nodes, weights = _projection_nodes(basis, n_q)
    vals = basis.values_at(nodes)
    r = vals @ (weights * np.asarray(p0(nodes), dtype=float))

    H = matrices.H
    try:
        u = np.linalg.solve(H, r)
        u += np.linalg.solve(H, r - H @ u)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedBasisError(
            f"mass matrix solve failed: {exc}", condition_estimate=np.linalg.cond(H)
        ) from exc
    residual = np.max(np.abs(H @ u - r))
    if residual > 1e-12:
        raise IllConditionedBasisError(
            f"projection residual {residual:.3e} exceeds 1e-12",
            condition_estimate=np.linalg.cond(H),
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
            for row in np.atleast_2d(arr):
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
