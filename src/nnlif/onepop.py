"""Semi-implicit time stepping for the single-population model.

One step solves

    (H/dt + A - b N^n B + a^n (C + D)) u^{n+1} = H u^n / dt

with the rate-dependent diffusion a^n = a0 + a1 N^n evaluated explicitly
and the firing rate obtained in closed form from the threshold slope.

:func:`step` is written once for both solvers, over a space that holds the
rows and advances them: :class:`Spectral` or :class:`fdm.FdmGrid`.

The spectral operator is K0 + N^n E with K0 = H/dt + A + a0 (C + D) and
E = a1 (C + D) - b B, so it changes between steps only through the rate.
For a run of more than 2 dim steps, :func:`solve` factors it once before
the loop (:class:`ShiftedSystem`) for the run's stepper, which then solves
each step in O(dim^2), with two real matvecs around one triangular solve;
a shorter run, which the factorisation would not pay for, solves the
assembled system densely at every step (:meth:`Spectral.advance`, which
the two-population step shares).  Only the
factorisation needs scipy (``schur``, and LAPACK ``ztrtrs`` for one row or
``dtrsyl`` for a stack of rows): :class:`ShiftedSystem` imports
``scipy.linalg`` when it is built, so a run that solves densely never
loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .assembly import GalerkinMatrices, project_initial, reconstruct
from .errors import (
    ConfigurationError, LinearSolveError, NonpositiveDiffusionError, SingularFiringRateError, check_finite,
    check_positive,
)
from .integrate import DEFAULT_BLOWUP_THRESHOLD, ONE_POPULATION, RunRecord, check_times, integrate
from .norms import norm_grid

_RATE_DENOM_TOL = 1e-12
# a stacked solve divides by a row's shift unless it is below this: then
# 1 / shift, or the right-hand side over it, could overflow
_SMALL_SHIFT = 1e-8


@dataclass(frozen=True)
class OnePopParams:
    """Baseline diffusion a0, rate-diffusion gain a1 and connectivity b
    (positive excitatory, negative inhibitory)."""

    a0: float
    a1: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        for name in ("a0", "a1", "b"):
            check_finite(name, getattr(self, name))
        if self.a0 <= 0:
            raise ConfigurationError(f"a0 must be positive, got {self.a0}")
        if self.a1 < 0:
            raise ConfigurationError(f"a1 must be nonnegative, got {self.a1}")

    def diffusion(self, rate: float) -> float:
        """The diffusion a0 + a1 N of a step from rate N; raises when it is <= 0."""
        diffusion = self.a0 + self.a1 * rate
        if diffusion <= 0:
            raise NonpositiveDiffusionError(f"diffusion a0 + a1 N is {diffusion:.6g} <= 0 at rate N={rate:.6g}")
        return diffusion

    def rate(self, slope: float) -> float:
        """The firing rate N = -a0 s / (1 + a1 s) from the density's slope s
        at the threshold, the unique solution of N = -(a0 + a1 N) s; raises
        when 1 + a1 s is numerically zero."""
        denom = 1.0 + self.a1 * slope
        if abs(denom) < _RATE_DENOM_TOL:
            raise SingularFiringRateError(f"firing-rate denominator 1 + a1*s = {denom:.3e} is numerically singular")
        return -self.a0 * slope / denom


class PopulationState(NamedTuple):
    """One population's density and its firing rate, the state of both
    one-population solvers: ``u`` holds coefficients (spectral) or cell
    values (finite volumes)."""

    u: np.ndarray
    rate: float


def firing_rate(u: np.ndarray, space, params: OnePopParams) -> float:
    """Mean firing rate (:meth:`OnePopParams.rate`) from the threshold slope
    of the row ``u`` in ``space``."""
    return params.rate(space.slope(u))


def system_matrix(
    matrices: GalerkinMatrices,
    drift_rate: float,
    diffusion: float,
    dt: float,
    flux_shift_implicit: bool = True,
) -> np.ndarray:
    """Left-hand operator of one semi-implicit step.

    ``drift_rate`` is the rate-proportional drift offset (b N for one
    population), ``diffusion`` the frozen diffusion coefficient.  The
    threshold-flux coupling D is folded in implicitly unless the caller
    supplies the reset inflow as an explicit source instead.
    """
    s = matrices.H / dt + matrices.A - drift_rate * matrices.B + diffusion * matrices.C
    if flux_shift_implicit:
        s = s + diffusion * matrices.D
    return s


class ShiftedSystem:
    """Solves (K0 + sigma E) u = H u_old / dt + m F for any scalar shift
    sigma after one factorisation; K0 = H / dt + G.

    A step is solved for its increment: u = u_old - K_sigma^-1 r with
    K_sigma = K0 + sigma E and r = (G + sigma E) u_old - m F, and a Schur
    form K0^-1 E = Z T Z^* gives K_sigma^-1 = Z (I + sigma T)^-1 Z^* K0^-1.
    The build folds the fixed factors together: with R = Z^* K0^-1, it
    stores R [G | E (| -F)] as the transposed matrix ``w`` and Z, or its
    real part, as the transposed matrix ``zr``.  So a step costs one real
    product (x w with x = [u_old, sigma u_old (, m)], the floats of R r),
    the solve with I + sigma T, and one more real product.

    The caller picks one of two forms, each the faster for its rows:

    * one row (``stacked`` false, the one-population step): the complex
      Schur form, whose T is triangular.  R [G | E (| -F)] is complex, so
      its real and imaginary parts fill alternate rows of ``w`` and
      Re Z, -Im Z alternate columns of ``zr``, and the row is solved by
      one LAPACK ``ztrtrs`` on I + sigma T, built as sigma T with 1 added
      to its diagonal in place (``ztrtrs`` reads only the upper triangle,
      where that is the same matrix);
    * a stack of rows (``stacked`` true, the two-population step): the
      real Schur form, whose T is quasi-triangular, with one 2x2 block per
      complex pair of eigenvalues.  ``w`` and ``zr`` are real and dim
      wide.  A row's (I + sigma T) x = y is T x + x / sigma = y / sigma,
      so the rows of a stack, each at its own shift sigma_k, are together
      the Sylvester system T X + X diag(1 / sigma_k) = Y diag(1 / sigma_k),
      which one LAPACK ``dtrsyl`` call solves.  Its right-hand sides come
      straight from the product with x = [u_old / sigma, u_old (, m / sigma)].
      A (K, 2, dim) stack, the rows of the K cells of a lockstep sweep,
      takes one batched product each way, which multiplies each cell's
      (2, dim) slice as its own step would, and one ``dtrsyl`` for all 2K
      rows.

    ``dtrsyl`` solves column by column, and a column's arithmetic reads
    only that column and T as long as the solution is finite: each update
    is a dot product with the zero off-diagonal entries of diag(1 / sigma),
    which a non-finite column turns into NaN for every later column
    (0 inf), and a common ``scale`` < 1, which LAPACK applies to keep a
    column from overflowing, rescales every column.  So when the stack's
    solution is not finite, or not at scale 1, or some row is near
    singular, each row is solved again on its own: every row of a stack
    gets the bytes it gets alone, and a row that goes non-finite touches
    no other.  A row singular on its own raises, naming its shift.  A row
    whose |sigma| is below 1e-8 (sigma = 0: a population with no drift
    offset) has no usable 1 / sigma: it is left out of the call and solved
    on its own as (sigma T) x + x = y, which at sigma = 0 is x = y with no
    LAPACK call, while the other rows of the stack still take one call.

    Two choices keep a long run as close to the dense solve as a second
    dense solver would be:

    * the orthogonal or unitary Z is well conditioned, where an
      eigenvector basis of K0^-1 E is not (condition 1e8 at M = 16 for
      E = a1 (C + D) - b B);
    * the rounding error of the factors, the same at every step, only
      multiplies the increment, which is O(dt).  Applied to u_old itself,
      through a precomputed Z^* K0^-1 H / dt, it adds up step after step.

    At M = 16 (dim 33), on one core of a shared 2-vCPU x86-64 host (best
    of 15 interleaved rounds of 2,000 solves, with a source), a solve
    takes, in the complex form with one ``ztrtrs`` per row and in the real
    form with one ``dtrsyl``:

                        complex     real
        one row          9.3 us       -
        (2, dim)        18.0 us   16.9 us
        (3, 2, dim)     39.1 us   24.9 us
        (11, 2, dim)   123.3 us   55.9 us
        (33, 2, dim)   335.1 us  181.6 us

    ``dtrsyl`` itself takes 6.9 us for 2 rows and 29.1 us for 22: each
    call scans all of T for its largest entry, and each 2x2 block costs
    every row a 2x2 solve, so for one row the complex form's triangular
    solve is the faster, and a (2, dim) stack gains little from the real
    form at M = 16 (and loses at M = 24, where T is larger: 24 against
    21 us).  Of the 56 us of an (11, 2, dim) stack, ``dtrsyl`` takes about
    29 us; the two products, building x and diag(1 / sigma), and the
    finiteness test take the rest.

    T is kept Fortran-ordered, so the f2py wrappers pass it (and sigma T,
    and diag(1 / sigma), made so) to LAPACK without copying it; ``ztrtrs``
    overwrites its right-hand side, fresh at every solve, with the
    solution, and ``dtrsyl`` writes to a copy, so that the right-hand sides
    stay for the solve row by row.  The system keeps no buffers: a solve
    writes only arrays it made.

    ``g`` is the operator without its mass term,
    ``system_matrix(matrices, 0, a, inf)``; ``source`` selects whether the
    inflow m F is part of the right-hand side.
    """

    def __init__(self, g: np.ndarray, e: np.ndarray, matrices: GalerkinMatrices, dt: float, source: bool = False,
                 stacked: bool = False):
        from scipy.linalg import schur
        from scipy.linalg.lapack import dtrsyl, ztrtrs

        self.ztrtrs, self.dtrsyl = ztrtrs, dtrsyl
        try:
            k0_inv = np.linalg.inv(matrices.H / dt + g)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"unshifted step operator singular: {exc}") from exc
        t, z = schur(k0_inv @ e, output="real" if stacked else "complex")
        self.t = np.asfortranarray(t)
        self.source, self.stacked = source, stacked
        # R [G | E (| -F)] = Z^* S with S = K0^-1 [G | E (| -F)] real
        s = k0_inv @ np.column_stack((g, e, -matrices.F) if source else (g, e))
        if stacked:
            w, zr = z.T @ s, z
        else:
            # the real and imaginary parts of Z^* S fill alternate rows of w;
            # Re(Z y) = Re Z Re y - Im Z Im y: Re Z and -Im Z fill alternate
            # columns of zr, as Re y and Im y alternate in the floats of y
            dim = g.shape[0]
            w, zr = np.empty((2 * dim, s.shape[1])), np.empty((dim, 2 * dim))
            w[0::2], w[1::2] = z.real.T @ s, -z.imag.T @ s
            zr[:, 0::2], zr[:, 1::2] = z.real, -z.imag
        # both are kept as transposed views, so that a row or a stack of rows
        # multiplies from the left
        self.w, self.zr = w.T, zr.T

    def solve(self, u_old: np.ndarray, sigma, inflow=0.0) -> np.ndarray:
        """u of the step from ``u_old`` at shift ``sigma`` with reset inflow
        ``inflow``: one row with scalar ``sigma`` and ``inflow``, or, for a
        ``stacked`` system, a (..., dim) stack of rows whose shifts and
        inflows are shaped like its leading axes, one per row.  Raises
        :class:`LinearSolveError` when some row's I + sigma T is singular
        (for a stack: numerically so, when that row is solved alone)."""
        if not self.stacked:
            x = (u_old, sigma * u_old, (inflow,)) if self.source else (u_old, sigma * u_old)
            rhs = (np.concatenate(x) @ self.w).view(np.complex128)
            shifted = sigma * self.t
            # a fresh array is contiguous, so its diagonal is every (dim + 1)-th
            # element in memory order, in C and in Fortran order alike
            shifted.ravel("K")[:: shifted.shape[0] + 1] += 1.0
            # the row is contiguous and complex, so ztrtrs solves in place
            _, info = self.ztrtrs(shifted, rhs, overwrite_b=1)
            if info > 0:
                raise LinearSolveError(f"shifted step system singular at shift {sigma:.6g}")
            return u_old - rhs.view(np.float64) @ self.zr
        sigma = np.array(sigma, dtype=float)
        dim = u_old.shape[-1]
        listed = sigma.ravel().tolist()
        small = [k for k, shift in enumerate(listed) if abs(shift) < _SMALL_SHIFT]
        for k in small:
            sigma.flat[k] = 1.0
        inv = 1.0 / sigma
        # x = [u_old / sigma, u_old (, m / sigma)], filled in place, so that the
        # rows of x w are the right-hand sides R r / sigma; a row at a shift
        # near 0, which has no usable 1 / sigma, takes x = [u_old, sigma u_old
        # (, m)] and so R r itself
        x = np.empty(u_old.shape[:-1] + (self.w.shape[0],))
        np.multiply(inv[..., None], u_old, out=x[..., :dim])
        x[..., dim:2 * dim] = u_old
        if self.source:
            np.multiply(inv, inflow, out=x[..., -1])
        for k in small:
            x.reshape(-1, x.shape[-1])[k, dim:2 * dim] *= listed[k]
        # matmul takes a stack's (2, dim) slices one product each, so each
        # gives the bytes it gives alone (one product of the flattened rows
        # would not)
        rhs = x @ self.w
        rows = rhs.reshape(-1, dim)
        # every other row is one column of one Sylvester system
        rest = np.array([k for k in range(len(listed)) if k not in small], dtype=np.intp) if small else slice(None)
        together = self._columns(rows[rest], inv.ravel()[rest])
        if together is None:
            small = range(len(listed))
        else:
            rows[rest] = together
        # a row solved alone overwrites its right-hand side
        for k in small:
            rows[k] = self._row(rows[k], listed[k])
        return u_old - rhs @ self.zr

    def _columns(self, rows: np.ndarray, inv: np.ndarray) -> np.ndarray | None:
        """The solutions of T x + x inv_k = rows_k for all rows in one
        ``dtrsyl`` call, or None when that call cannot stand for the rows
        solved alone: its solution is not finite or not at scale 1, or some
        row is numerically singular."""
        n = len(inv)
        if not n:
            return rows
        b = np.zeros((n, n), order="F")
        b.flat[:: n + 1] = inv
        # the rows of a C-ordered array are the columns of its Fortran-ordered
        # transpose; dtrsyl writes the solutions to a copy
        solved, scale, info = self.dtrsyl(self.t, b, rows.T)
        y = solved.T
        # a non-finite entry makes the sum of squares non-finite (so may a huge
        # finite one, which costs only the solve row by row)
        return y if info == 0 and scale == 1.0 and math.isfinite(np.vdot(y, y)) else None

    def _row(self, rhs: np.ndarray, shift: float) -> np.ndarray:
        """The solution x of (I + shift T) x = R r for one row of a stack,
        solved alone from its right-hand side ``rhs``: R r / shift, or R r
        itself when the shift is near 0."""
        if abs(shift) >= _SMALL_SHIFT:
            a, b = self.t, 1.0 / shift
        elif shift == 0.0:
            return rhs
        else:
            # no usable 1 / shift: (shift T) x + x = R r
            a, b = shift * self.t, 1.0
        y, scale, info = self.dtrsyl(a, np.array([[b]]), rhs[:, None])
        if info > 0:
            raise LinearSolveError(f"shifted step system singular at shift {shift:.6g}")
        return y[:, 0] / scale


def factor_pays_off(solves: int, matrices: GalerkinMatrices) -> bool:
    """Whether a run of ``solves`` solves (populations times steps) makes
    more than 2 dim of them; one factorisation serves every population.

    At M = 8, 16 and 24 (2 dim = 34, 66 and 98) the one-population
    :class:`ShiftedSystem` (complex Schur form) takes about 0.17, 0.62 and
    1.7 ms to build, and a factored step saves 6-7, 13-16 and 26-30 us over
    a dense one, so the build has paid for itself after 25-29, 46-75 and
    61-69 solves.  The two-population one (real Schur form, ``stacked``)
    takes about 0.10, 0.27 and 0.60 ms, and a factored step, two solves,
    saves 17, 27-30 and 46-47 us, so it has paid for itself after 12,
    18-19 and 25-26 solves (interleaved measurements on one core of a
    shared 2-vCPU x86-64 host).  A run past 2 dim solves therefore gains, and every
    shorter run keeps the dense, factorisation-free path."""
    return solves > 2 * matrices.H.shape[0]


class Spectral:
    """The Galerkin space of ``matrices``: rows of coefficients, with
    threshold slope s = sum u_k psi_k'(V_F), and a dense row solve."""

    def __init__(self, matrices: GalerkinMatrices):
        self.matrices = matrices
        self.out_grid = norm_grid(matrices.basis.domain)
        self._deriv, self._mass = matrices.slope, matrices.mass

    def initial(self, p0) -> np.ndarray:
        return project_initial(self.matrices, p0)

    def slope(self, row: np.ndarray) -> float:
        return float(self._deriv.dot(row))

    def mass(self, row: np.ndarray) -> float:
        return self._mass.dot(row)

    def readout(self, cells) -> list:
        """The [slope, mass] pair of each row of a stack of rows, (..., dim),
        as nested lists, from one product with ``matrices.readout``; matmul
        multiplies a (K, 2, dim) stack slice by slice, so each cell reads
        as it does alone."""
        return (cells @ self.matrices.readout).tolist()

    def density(self, row: np.ndarray) -> np.ndarray:
        return reconstruct(self.matrices.basis, row, self.out_grid)

    def advance(self, row: np.ndarray, dt: float, drift, diffusion, inflow, folded: bool) -> np.ndarray:
        """The row one step later, solved densely; a ``folded`` inflow is the
        rate, folded into the operator through D, else the source ``inflow`` F.
        Raises :class:`LinearSolveError` when the system is singular."""
        mats = self.matrices
        lhs = system_matrix(mats, drift, diffusion, dt, flux_shift_implicit=folded)
        rhs = mats.H @ row / dt
        if not folded:
            rhs = rhs + inflow * mats.F
        try:
            return np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(
                f"step system singular at drift {drift:.6g}, diffusion {diffusion:.6g}: {exc}") from exc

    def stack(self, rows) -> np.ndarray:
        return np.array(rows)


def step(
    state: PopulationState,
    params: OnePopParams,
    space,
    dt: float,
    shifted: ShiftedSystem | None = None,
) -> PopulationState:
    """Advance one time increment in ``space``; raises on singular systems,
    a diffusion <= 0 (:meth:`OnePopParams.diffusion`) and a bad ``dt``
    (:func:`errors.check_positive`), on every path.

    ``state.rate`` must be the firing rate of ``state.u``, as it is for
    every state that :func:`solve` or this function produces.  ``shifted``,
    the run's factored operator, replaces the dense solve; it must have
    been built from the same parameters, matrices and dt.
    """
    check_positive("dt", dt)
    rate = state.rate
    diffusion = params.diffusion(rate)
    if shifted is not None:
        u = shifted.solve(state.u, rate)
    else:
        u = space.advance(state.u, dt, params.b * rate, diffusion, rate, True)
    return PopulationState(u, firing_rate(u, space, params))


@dataclass(frozen=True)
class _OnePop:
    """The single-population model in a space as a :class:`Stepper`, with
    the run's factored operator ``shifted`` (None: solve densely)."""

    layout = ONE_POPULATION

    p0: Callable
    params: OnePopParams
    space: Any
    dt: float
    shifted: ShiftedSystem | None = None

    def start(self, rates) -> PopulationState:
        u0 = self.space.initial(self.p0)
        return PopulationState(u0, firing_rate(u0, self.space, self.params))

    def step(self, state: PopulationState) -> PopulationState:
        return step(state, self.params, self.space, self.dt, self.shifted)

    def observe(self, state: PopulationState):
        return state.rate, self.space.mass(state.u)

    def densities(self, state: PopulationState) -> np.ndarray:
        return self.space.density(state.u)


def solve(
    p0,
    params: OnePopParams,
    matrices: GalerkinMatrices,
    dt: float,
    t_final: float,
    *,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Run the scheme from a density callable up to t_final.

    Records (t, N, mass) at every step and the density on the comparison
    grid at each snapshot time.  Stops early with status
    "blow-up-detected" when the rate passes the threshold or the
    coefficients go non-finite; singular systems stop the run with status
    "solver-failure" instead of raising.
    """
    space, shifted = Spectral(matrices), None
    if factor_pays_off(check_times(dt, t_final, snapshot_times, blowup_threshold), matrices):
        e = params.a1 * (matrices.C + matrices.D) - params.b * matrices.B
        shifted = ShiftedSystem(system_matrix(matrices, 0.0, params.a0, math.inf), e, matrices, dt)
    return integrate([_OnePop(p0, params, space, dt, shifted)], dt, t_final, snapshot_times, blowup_threshold)[0]
