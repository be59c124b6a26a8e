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

Each family has one recurrence, streamed one degree at a time
(:func:`laguerre_fn_rows`, :func:`legendre_rows`).  The tables are built from
the stream, and the Gauss rules of :mod:`quadrature` read the few degrees
they need from it.  The Laguerre stream serves both the weighted functions
and, at decay 0, the classical polynomial factors that assembly integrates
(:meth:`BasisSet.left_poly_parts`): left branch k is exp(-c_k x) times a
polynomial in x = v_reset - v, so a pair (j, k) decays at c_j + c_k.  The
boundary data assembly needs are the values at the reset and the slopes at
the threshold, read off :meth:`BasisSet.values_at` and
:meth:`BasisSet.derivs_at`; the values at the threshold are zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_finite, check_positive, check_positive_integer


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
            check_positive("beta", self.beta)
        if not self.v_reset < self.v_threshold:
            raise ConfigurationError(f"v_threshold must exceed v_reset, got {self.v_threshold} <= {self.v_reset}")

    @property
    def width(self) -> float:
        return self.v_threshold - self.v_reset


def laguerre_fn_rows(n_max: int, x, derivatives: bool = False, decay: float = 0.5):
    """Laguerre functions exp(-decay x) L_k(x) at the points x >= 0, streamed
    one degree at a time, k = 0..n_max: the weighted functions at the default
    decay 1/2, the classical polynomials at decay 0.  The recurrence runs on
    the weighted form, which at decay 1/2 stays bounded for any degree and
    argument.

    Yields ``(values, derivatives)`` rows of len(x), with ``derivatives``
    None unless asked for.  The derivative recurrence is carried alongside
    the value recurrence so x = 0 needs no special casing.  Only the last two
    rows are held, so a caller that reads a few degrees keeps O(len(x))
    memory; the rows are the recurrence's own state, not to be written to.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.exp(-decay * x)
    d = -decay * v if derivatives else None
    yield v, d
    if n_max < 1:
        return
    v_prev, v = v, (1.0 - x) * v
    if derivatives:
        d_prev, d = d, -v_prev - decay * v
    yield v, d
    for k in range(1, n_max):
        a = 2 * k + 1 - x
        v_prev, v = v, (a * v - k * v_prev) / (k + 1)
        if derivatives:
            d_prev, d = d, (a * d - v_prev - k * d_prev) / (k + 1)
        yield v, d


def legendre_rows(n_max: int, x, derivatives: bool = False):
    """Legendre polynomials on [-1, 1], streamed like :func:`laguerre_fn_rows`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.ones_like(x)
    d = np.zeros_like(x) if derivatives else None
    yield v, d
    if n_max < 1:
        return
    v_prev, v = v, x
    if derivatives:
        d_prev, d = d, np.ones_like(x)
    yield v, d
    for k in range(1, n_max):
        v_prev, v = v, ((2 * k + 1) * x * v - k * v_prev) / (k + 1)
        if derivatives:
            d_prev, d = d, ((2 * k + 1) * (v_prev + x * d) - k * d_prev) / (k + 1)
        yield v, d


def _table(rows, n_max: int, x: np.ndarray, derivatives: bool):
    """The rows of a stream as a (n_max+1, len(x)) table, or a pair of
    tables with ``derivatives``."""
    vals = np.empty((n_max + 1, x.size))
    ders = np.empty_like(vals) if derivatives else None
    for k, (v, d) in enumerate(rows):
        vals[k] = v
        if derivatives:
            ders[k] = d
    return (vals, ders) if derivatives else vals


def laguerre_fn_table(n_max: int, x, derivatives: bool = False, decay: float = 0.5):
    """:func:`laguerre_fn_rows` as a table: ``values`` of shape
    (n_max+1, len(x)); with ``derivatives`` also the derivative table."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _table(laguerre_fn_rows(n_max, x, derivatives, decay), n_max, x, derivatives)


def legendre_table(n_max: int, x, derivatives: bool = False):
    """:func:`legendre_rows` as a table, laid out like :func:`laguerre_fn_table`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _table(legendre_rows(n_max, x, derivatives), n_max, x, derivatives)


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
        check_positive_integer("expansion number", m)
        if left_scale is not None:
            check_positive("left_scale", left_scale)
        self.domain = domain
        self.m = m
        self.dim = 2 * m + 1
        self.left_scale = float(left_scale) if left_scale is not None else default_left_scale(m)
        self.beta = float(domain.beta) if domain.beta is not None else self.left_scale

    def left_poly_parts(self, x: np.ndarray):
        """Polynomial factors of the M+1 left branches at x = v_reset - v >= 0.

        Returns q with psi_k(v) = exp(-c_k x) q_k(x) and r = c q - q', the
        polynomial factor of d psi / d v; c_k is beta/2 for index 0 and
        left_scale/2 for the rest.  These make every assembly integral on the
        left subinterval an (exp-weight x polynomial) expression, hence
        exactly Gauss-Laguerre representable.
        """
        scale = self.left_scale
        lv, ld = laguerre_fn_table(self.m, scale * np.asarray(x, dtype=float), derivatives=True, decay=0.0)
        q = np.ones_like(lv)
        r = np.full_like(lv, 0.5 * self.beta)
        q[1:] = lv[:-1] - lv[1:]
        r[1:] = 0.5 * scale * q[1:] - scale * (ld[:-1] - ld[1:])
        return q, r

    def _map_to_reference(self, v: np.ndarray) -> np.ndarray:
        # exact at both ends on any domain, so every right-side function is
        # exactly zero at the threshold and its slope there is exact
        dom = self.domain
        return ((v - dom.v_reset) - (dom.v_threshold - v)) / dom.width

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
            out[1:self.m + 1, left] = lag[:-1] - lag[1:]

        right = v > dom.v_reset
        if np.any(right):
            vr = v[right]
            out[0, right] = (vr - dom.v_threshold) / (dom.v_reset - dom.v_threshold)
            xr = self._map_to_reference(vr)
            leg = legendre_table(self.m + 1, xr)
            out[self.m + 1:, right] = leg[:-2] - leg[2:]

        at_reset = v == dom.v_reset
        out[0, at_reset] = 1.0
        return out

    def derivs_at(self, v) -> np.ndarray:
        """Table of d psi_k / d v, same layout as :meth:`values_at`.

        At exactly v = v_reset the right-sided limit is returned.
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
            # chain rule: scale*(v_reset - v) contributes a -scale factor
            out[1:self.m + 1, left] = -self.left_scale * (lagd[:-1] - lagd[1:])

        right = ~left
        if np.any(right):
            vr = v[right]
            out[0, right] = 1.0 / (dom.v_reset - dom.v_threshold)
            xr = self._map_to_reference(vr)
            _, legd = legendre_table(self.m + 1, xr, derivatives=True)
            out[self.m + 1:, right] = 2.0 / dom.width * (legd[:-2] - legd[2:])
        return out
