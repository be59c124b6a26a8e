"""Semi-implicit time stepping for the single-population model.

One step solves

    (H/dt + A - b N^n B + a^n (C + D)) u^{n+1} = H u^n / dt

with the rate-dependent diffusion a^n = a0 + a1 N^n evaluated explicitly
and the firing rate obtained in closed form from the threshold slope.

:func:`step` is written once for both solvers, over a space that holds the
rows and advances them: :class:`Spectral` or :class:`fdm.FdmStencil`.

The spectral operator is K0 + N^n E with K0 = H/dt + A + a0 (C + D) and
E = a1 (C + D) - b B, so it changes between steps only through the rate.
For a run of more than 2 dim steps, :func:`solve` factors it once before
the loop (:class:`ShiftedSystem`) for the run's stepper, which then solves
each step in O(dim^2), with two real matvecs around one triangular solve;
a shorter run, which the factorisation would not pay for, solves the
assembled system densely at every step (:meth:`Spectral.advance`, which
the two-population step shares).  Only this factorisation needs scipy
(``schur`` and LAPACK ``ztrtrs``): :class:`ShiftedSystem` imports
``scipy.linalg`` when it is built, so a run that solves densely never
loads it, and neither does a two-population run, whose factor
(:class:`twopop.ModalSystem`) numpy builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .assembly import GalerkinMatrices, project_initial, reconstruct
from .errors import (
    LinearSolveError, NonpositiveDiffusionError, SingularFiringRateError, check_finite, check_nonnegative,
    check_positive,
)
from .integrate import DEFAULT_BLOWUP_THRESHOLD, ONE_POPULATION, RunRecord, check_times, integrate
from .norms import norm_grid

_RATE_DENOM_TOL = 1e-12


@dataclass(frozen=True)
class OnePopParams:
    """Baseline diffusion a0, rate-diffusion gain a1 and connectivity b
    (positive excitatory, negative inhibitory)."""

    a0: float = 1.0
    a1: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        check_positive("a0", self.a0)
        check_nonnegative("a1", self.a1)
        check_finite("b", self.b)

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


def increment_operands(g: np.ndarray, e: np.ndarray, matrices: GalerkinMatrices, dt: float,
                       source: bool) -> tuple[np.ndarray, np.ndarray]:
    """K0^-1 E and S = K0^-1 [G | E (| -F)], K0 = H / dt + G: the matrix a
    factored solve decomposes, and the map from x = [u_old, sigma u_old
    (, m)] to K0^-1 r.  ``source`` selects the column of the inflow m F.
    Raises :class:`LinearSolveError` when K0 is singular."""
    try:
        k0_inv = np.linalg.inv(matrices.H / dt + g)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"unshifted step operator singular: {exc}") from exc
    return k0_inv @ e, k0_inv @ np.column_stack((g, e, -matrices.F) if source else (g, e))


class ShiftedSystem:
    """Solves (K0 + sigma E) u = H u_old / dt for any scalar shift sigma
    after one factorisation; K0 = H / dt + G.

    A step is solved for its increment: u = u_old - K_sigma^-1 r with
    K_sigma = K0 + sigma E and r = (G + sigma E) u_old, and the complex
    Schur form K0^-1 E = Z T Z^* gives
    K_sigma^-1 = Z (I + sigma T)^-1 Z^* K0^-1.  The build folds the fixed
    factors together: with R = Z^* K0^-1, it stores R [G | E] as the
    transposed matrix ``w`` and Z as the transposed real matrix ``zr``.
    R [G | E] is complex, so its real and imaginary parts fill alternate
    rows of ``w``, and Re Z, -Im Z alternate columns of ``zr``.  So a step
    costs one real product (x w with x = [u_old, sigma u_old], the floats
    of R r), one LAPACK ``ztrtrs`` on the triangular
    I + sigma T, built as sigma T with 1 added to its diagonal in place
    (``ztrtrs`` reads only the upper triangle, where that is the same
    matrix), and one more real product.

    Two choices keep a long run as close to the dense solve as a second
    dense solver would be:

    * the unitary Z is well conditioned, where an eigenvector basis of
      K0^-1 E need not be (condition 8e7 at M = 16 and dt = 1e-3 for
      E = a1 (C + D) - b B with a1 = 0.1 and b = 0.5; at most 31 with one
      term; the two-population E = -B is mostly better behaved, and its
      :class:`twopop.ModalSystem` solves in an eigenvector basis);
    * the rounding error of the factors, the same at every step, only
      multiplies the increment, which is O(dt).  Applied to u_old itself,
      through a precomputed Z^* K0^-1 H / dt, it adds up step after step.

    At M = 16 (dim 33), on one core of a shared 2-vCPU x86-64 host (best
    of 21 rounds of 2,000 solves, five processes), a solve takes 9.1 to
    9.5 us.

    T is kept Fortran-ordered, so the f2py wrapper passes it (and sigma T,
    made so) to LAPACK without copying it; ``ztrtrs`` overwrites its
    right-hand side, fresh at every solve, with the solution.  The system
    keeps no buffers: a solve writes only arrays it made.

    ``g`` is the operator without its mass term,
    ``system_matrix(matrices, 0, a, inf)``.
    """

    def __init__(self, g: np.ndarray, e: np.ndarray, matrices: GalerkinMatrices, dt: float):
        from scipy.linalg import schur
        from scipy.linalg.lapack import ztrtrs

        self.ztrtrs = ztrtrs
        # R [G | E] = Z^* S with S = K0^-1 [G | E] real
        k0_inv_e, s = increment_operands(g, e, matrices, dt, False)
        t, z = schur(k0_inv_e, output="complex")
        self.t = np.asfortranarray(t)
        # the real and imaginary parts of Z^* S fill alternate rows of w;
        # Re(Z y) = Re Z Re y - Im Z Im y: Re Z and -Im Z fill alternate
        # columns of zr, as Re y and Im y alternate in the floats of y
        dim = g.shape[0]
        w, zr = np.empty((2 * dim, s.shape[1])), np.empty((dim, 2 * dim))
        w[0::2], w[1::2] = z.real.T @ s, -z.imag.T @ s
        zr[:, 0::2], zr[:, 1::2] = z.real, -z.imag
        # both are kept as transposed views, so that a row multiplies from
        # the left
        self.w, self.zr = w.T, zr.T

    def solve(self, u_old: np.ndarray, sigma: float) -> np.ndarray:
        """u of the step from the row ``u_old`` at shift ``sigma``.  Raises
        :class:`LinearSolveError` when I + sigma T is singular."""
        rhs = (np.concatenate((u_old, sigma * u_old)) @ self.w).view(np.complex128)
        shifted = sigma * self.t
        # a fresh array is contiguous, so its diagonal is every (dim + 1)-th
        # element in memory order, in C and in Fortran order alike
        shifted.ravel("K")[:: shifted.shape[0] + 1] += 1.0
        # the row is contiguous and complex, so ztrtrs solves in place
        _, info = self.ztrtrs(shifted, rhs, overwrite_b=1)
        if info > 0:
            raise LinearSolveError(f"shifted step system singular at shift {sigma:.6g}")
        return u_old - rhs.view(np.float64) @ self.zr


def factor_pays_off(solves: int, matrices: GalerkinMatrices) -> bool:
    """Whether a run of ``solves`` solves (populations times steps) makes
    more than 2 dim of them; one factorisation serves every population.

    At M = 8, 16 and 24 (2 dim = 34, 66 and 98) the one-population
    :class:`ShiftedSystem` (complex Schur form) takes about 0.17, 0.62 and
    1.7 ms to build, and a factored step saves 6-7, 13-16 and 26-30 us over
    a dense one, so the build has paid for itself after 25-29, 46-75 and
    61-69 solves (interleaved measurements on one core of a shared 2-vCPU
    x86-64 host).  The two-population :class:`twopop.ModalSystem` takes
    about 0.35-0.46, 0.62-1.0 and 1.4-1.8 ms, and a factored step, two
    solves, saves 21-41, 37-67 and 65-69 us, so it has paid for itself after
    23-29, 31-33 and 42-52 solves (three processes on the same host, whose
    speed moved the build and the saving together).  A run
    past 2 dim solves therefore gains, and every shorter run keeps the
    dense, factorisation-free path, although from M = 16 on a
    two-population run of about dim to 2 dim solves would gain too."""
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

    def readout(self, rows) -> list:
        """The [slope, mass] pair of each row of one cell's (2, dim) stack,
        as lists, from one product with ``matrices.readout``."""
        return (rows @ self.matrices.readout).tolist()

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
