"""Basis functions for the split-domain spectral expansion.

The trial space on (-inf, V_F] is spanned by one interface function ``g``
(exponential decay left of the reset voltage, linear ramp right of it),
weighted-Laguerre differences on the semi-infinite left subinterval and
Legendre-polynomial differences on the bounded right subinterval.  Every
member is continuous across the reset voltage and vanishes at the firing
threshold, so the essential boundary conditions are built into the space.

Index convention (0-based, dimension 2M+1):

* ``0``           -- interface function g
* ``1 .. M``      -- left-side functions, index k holds degree k-1
* ``M+1 .. 2M``   -- right-side functions, index k holds degree k-M-1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_finite


@dataclass(frozen=True)
class Domain:
    """Geometry shared by every module: reset voltage, firing threshold and
    the decay rate of the interface function's left branch.

    ``beta = None`` (the default) means "match the expansion's left scale",
    which keeps the interface function inside the same weighted family as
    the rest of the left-side basis; an explicit value overrides that.
    """

    v_reset: float = 1.0
    v_threshold: float = 2.0
    beta: float | None = None

    def __post_init__(self):
        check_finite("v_reset", self.v_reset)
        check_finite("v_threshold", self.v_threshold)
        if self.beta is not None:
            check_finite("beta", self.beta)
        if not self.v_reset < self.v_threshold:
            raise ConfigurationError(
                f"need v_reset < v_threshold, got {self.v_reset} >= {self.v_threshold}"
            )
        if self.beta is not None and self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")

    @property
    def width(self) -> float:
        return self.v_threshold - self.v_reset


def _unwrap(res, x):
    return float(res[0]) if np.ndim(x) == 0 else res


def laguerre_fn(n: int, x):
    """Weighted Laguerre function exp(-x/2) * L_n(x) on x >= 0.

    The recurrence is applied to the weighted form directly, which stays
    bounded for any degree and argument.
    """
    return _unwrap(laguerre_fn_table(n, x)[n], x)


def laguerre_fn_deriv(n: int, x):
    """Exact derivative of :func:`laguerre_fn` with respect to x."""
    return _unwrap(laguerre_fn_table(n, x, derivatives=True)[1][n], x)


def laguerre_fn_table(n_max: int, x: np.ndarray, derivatives: bool = False):
    """Weighted Laguerre functions of degrees 0..n_max at the points x.

    Returns ``values`` of shape (n_max+1, len(x)); with ``derivatives`` also
    the derivative table.  The derivative recurrence is carried alongside the
    value recurrence so x = 0 needs no special casing.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((n_max + 1, x.size))
    vals[0] = np.exp(-0.5 * x)
    if n_max >= 1:
        vals[1] = (1.0 - x) * vals[0]
    for k in range(1, n_max):
        vals[k + 1] = ((2 * k + 1 - x) * vals[k] - k * vals[k - 1]) / (k + 1)
    if not derivatives:
        return vals
    ders = np.empty_like(vals)
    ders[0] = -0.5 * vals[0]
    if n_max >= 1:
        ders[1] = -vals[0] - 0.5 * vals[1]
    for k in range(1, n_max):
        ders[k + 1] = ((2 * k + 1 - x) * ders[k] - vals[k] - k * ders[k - 1]) / (k + 1)
    return vals, ders


def laguerre_poly_table(n_max: int, x: np.ndarray):
    """Classical (unweighted) Laguerre polynomials and derivatives, degrees
    0..n_max.  Used where the exp(-x/2) factor is accounted for separately."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((n_max + 1, x.size))
    ders = np.zeros((n_max + 1, x.size))
    vals[0] = 1.0
    if n_max >= 1:
        vals[1] = 1.0 - x
        ders[1] = -1.0
    for k in range(1, n_max):
        vals[k + 1] = ((2 * k + 1 - x) * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ((2 * k + 1 - x) * ders[k] - vals[k] - k * ders[k - 1]) / (k + 1)
    return vals, ders


def legendre_table(n_max: int, x: np.ndarray):
    """Legendre polynomials and derivatives, degrees 0..n_max, on [-1, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.empty((n_max + 1, x.size))
    ders = np.zeros((n_max + 1, x.size))
    vals[0] = 1.0
    if n_max >= 1:
        vals[1] = x
        ders[1] = 1.0
    for k in range(1, n_max):
        vals[k + 1] = ((2 * k + 1) * x * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ((2 * k + 1) * (vals[k] + x * ders[k]) - k * ders[k - 1]) / (k + 1)
    return vals, ders


def legendre(n: int, x):
    return _unwrap(legendre_table(n, x)[0][n], x)


def legendre_deriv(n: int, x):
    return _unwrap(legendre_table(n, x)[1][n], x)


@dataclass(frozen=True)
class BoundaryTraces:
    """Boundary data of every basis function, one entry per index."""

    value_at_reset: np.ndarray
    value_at_threshold: np.ndarray
    deriv_at_threshold: np.ndarray
    deriv_at_reset_minus: np.ndarray
    deriv_at_reset_plus: np.ndarray


def default_left_scale(m: int) -> float:
    """Dilation of the Laguerre coordinate on the left subinterval.

    The scaled nodes of a degree-M rule span roughly 4M / scale in voltage
    units; M/2 keeps that span near the 8-unit comparison window for every
    M, which is what makes the expansion converge at the advertised rate.
    """
    return max(1.0, 0.5 * m)


class BasisSet:
    """The ordered basis family for a given domain and expansion number M.

    ``left_scale`` dilates the Laguerre coordinate: the left-side functions
    are differences of weighted Laguerre functions in scale*(v_reset - v).
    """

    def __init__(self, domain: Domain, m: int, left_scale: float | None = None):
        if m < 1:
            raise ConfigurationError(f"expansion number must be >= 1, got {m}")
        if left_scale is not None and not left_scale > 0:
            raise ConfigurationError(f"left_scale must be positive, got {left_scale}")
        self.domain = domain
        self.m = m
        self.dim = 2 * m + 1
        self.left_scale = float(left_scale) if left_scale is not None else default_left_scale(m)
        self.beta = float(domain.beta) if domain.beta is not None else self.left_scale

    # decay rate of exp(-c x) in each left-branch function (x = v_reset - v)
    def left_decay(self, k: int) -> float:
        if k == 0:
            return 0.5 * self.beta
        if 1 <= k <= self.m:
            return 0.5 * self.left_scale
        raise IndexError(f"index {k} has no left branch (m={self.m})")

    def left_poly_parts(self, indices, x: np.ndarray):
        """Polynomial factors of the left branches at x = v_reset - v >= 0.

        For each requested index returns q with psi(v) = exp(-c x) q(x) and
        r = c q - q', the polynomial factor of d psi / d v.  These make every
        assembly integral on the left subinterval an (exp-weight x polynomial)
        expression, hence exactly Gauss-Laguerre representable.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        scale = self.left_scale
        need_lag = any(k >= 1 for k in indices)
        if need_lag:
            lv, ld = laguerre_poly_table(self.m, scale * x)
        q = np.empty((len(indices), x.size))
        r = np.empty((len(indices), x.size))
        for row, k in enumerate(indices):
            c = self.left_decay(k)
            if k == 0:
                q[row] = 1.0
                r[row] = c
            else:
                deg = k - 1
                qk = lv[deg] - lv[deg + 1]
                dqk = scale * (ld[deg] - ld[deg + 1])
                q[row] = qk
                r[row] = c * qk - dqk
        return q, r

    def _map_to_reference(self, v: np.ndarray) -> np.ndarray:
        dom = self.domain
        return (v - 0.5 * (dom.v_threshold + dom.v_reset)) / (0.5 * dom.width)

    def values_at(self, v) -> np.ndarray:
        """Table psi_k(v_i) of shape (dim, len(v)) for v <= v_threshold.

        Functions native to one subinterval are exactly zero on the other;
        at v = v_reset the shared limits are used (1 for the interface
        function, 0 for the rest).
        """
        v = np.atleast_1d(np.asarray(v, dtype=float))
        dom = self.domain
        if np.any(v > dom.v_threshold + 1e-12):
            raise ValueError("basis evaluation requested beyond the firing threshold")
        out = np.zeros((self.dim, v.size))

        left = v < dom.v_reset
        if np.any(left):
            x = dom.v_reset - v[left]
            out[0, left] = np.exp(-0.5 * self.beta * x)
            lag = laguerre_fn_table(self.m, self.left_scale * x)
            for j in range(self.m):
                out[1 + j, left] = lag[j] - lag[j + 1]

        right = v > dom.v_reset
        if np.any(right):
            vr = v[right]
            out[0, right] = (vr - dom.v_threshold) / (dom.v_reset - dom.v_threshold)
            xr = self._map_to_reference(vr)
            leg, _ = legendre_table(self.m + 1, xr)
            for j in range(self.m):
                out[1 + self.m + j, right] = leg[j] - leg[j + 2]

        at_reset = v == dom.v_reset
        out[0, at_reset] = 1.0
        return out

    def derivs_at(self, v) -> np.ndarray:
        """Table of d psi_k / d v, same layout as :meth:`values_at`.

        At exactly v = v_reset the right-sided limit is returned; one-sided
        derivatives live in :meth:`traces`.
        """
        v = np.atleast_1d(np.asarray(v, dtype=float))
        dom = self.domain
        if np.any(v > dom.v_threshold + 1e-12):
            raise ValueError("basis evaluation requested beyond the firing threshold")
        out = np.zeros((self.dim, v.size))

        left = v < dom.v_reset
        if np.any(left):
            x = dom.v_reset - v[left]
            out[0, left] = 0.5 * self.beta * np.exp(-0.5 * self.beta * x)
            _, lagd = laguerre_fn_table(self.m, self.left_scale * x, derivatives=True)
            for j in range(self.m):
                # chain rule: scale*(v_reset - v) contributes a -scale factor
                out[1 + j, left] = -self.left_scale * (lagd[j] - lagd[j + 1])

        right = ~left
        if np.any(right):
            vr = v[right]
            out[0, right] = 1.0 / (dom.v_reset - dom.v_threshold)
            xr = self._map_to_reference(vr)
            _, legd = legendre_table(self.m + 1, xr)
            scale = 2.0 / dom.width
            for j in range(self.m):
                out[1 + self.m + j, right] = scale * (legd[j] - legd[j + 2])
        return out

    def value(self, k: int, v):
        if not 0 <= k < self.dim:
            raise IndexError(f"basis index {k} out of range [0, {self.dim})")
        return _unwrap(self.values_at(v)[k], v)

    def deriv(self, k: int, v):
        if not 0 <= k < self.dim:
            raise IndexError(f"basis index {k} out of range [0, {self.dim})")
        return _unwrap(self.derivs_at(v)[k], v)

    def traces(self) -> BoundaryTraces:
        dom = self.domain
        dim, m = self.dim, self.m

        value_at_reset = np.zeros(dim)
        value_at_reset[0] = 1.0
        value_at_threshold = np.zeros(dim)

        deriv_at_threshold = np.zeros(dim)
        deriv_at_threshold[0] = 1.0 / (dom.v_reset - dom.v_threshold)
        _, legd1 = legendre_table(m + 1, np.array([1.0]))
        scale = 2.0 / dom.width
        for j in range(m):
            deriv_at_threshold[1 + m + j] = scale * (legd1[j, 0] - legd1[j + 2, 0])

        deriv_at_reset_minus = np.zeros(dim)
        deriv_at_reset_minus[0] = 0.5 * self.beta
        _, lagd0 = laguerre_fn_table(m, np.array([0.0]), derivatives=True)
        for j in range(m):
            deriv_at_reset_minus[1 + j] = -self.left_scale * (lagd0[j, 0] - lagd0[j + 1, 0])

        deriv_at_reset_plus = np.zeros(dim)
        deriv_at_reset_plus[0] = 1.0 / (dom.v_reset - dom.v_threshold)
        _, legdm1 = legendre_table(m + 1, np.array([-1.0]))
        for j in range(m):
            deriv_at_reset_plus[1 + m + j] = scale * (legdm1[j, 0] - legdm1[j + 2, 0])

        return BoundaryTraces(
            value_at_reset=value_at_reset,
            value_at_threshold=value_at_threshold,
            deriv_at_threshold=deriv_at_threshold,
            deriv_at_reset_minus=deriv_at_reset_minus,
            deriv_at_reset_plus=deriv_at_reset_plus,
        )
