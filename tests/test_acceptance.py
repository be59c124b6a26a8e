"""Acceptance gate: one test per criterion, run at its stated tolerance.

Each test prints a single ``criterion N: PASS`` line (shown with ``-s`` or in
captured stdout) and asserts its runtime cap.  The finite-difference
reference densities are session fixtures shared by the criteria that compare
against them; their one-time construction cost (~2 min total) is excluded
from the per-criterion timers.
"""

import math
import time

import numpy as np

from nnlif.assembly import assemble, project_initial
from nnlif.basis import BasisSet
from nnlif.fdm import FdmGrid, fdm_solve, reference_timestep
from nnlif.norms import l2_distance, linf_distance, norm_grid
from nnlif.onepop import OnePopParams, PopulationState, Spectral, firing_rate, solve, step
from nnlif.quadrature import gauss_laguerre, gauss_legendre
from nnlif.experiments import classify_regime
from nnlif.twopop import TwoPopParams, TwoPopState, solve_twopop, step_twopop

_TABLE1_L2 = (4.58e-3, 2.36e-3, 1.20e-3, 6.09e-4)
_TABLE1_L2_ORDERS = (0.95, 0.97, 0.98)
_TABLE1_LINF_ORDERS = (0.95, 0.97, 0.96)
_DT_LADDER = (0.04, 0.02, 0.01, 0.005)


def _report(number, elapsed, cap, detail):
    print(f"criterion {number:2d}: PASS ({elapsed:5.1f}s < {cap:.0f}s) {detail}")
    assert elapsed < cap


def _regimes_params(b_e_to_e):
    return TwoPopParams(
        b_e_to_e=b_e_to_e, b_e_to_i=4.0, b_i_to_e=0.75, b_i_to_i=3.0,
        nu_ext=20.0, tau_e=0.025, tau_i=0.025,
        delay_e_to_e=0.1, delay_e_to_i=0.1, delay_i_to_e=0.1, delay_i_to_i=0.1,
        diffusion_mode="constant", diffusion_constant=1.0,
        refractory_mode="exponential",
    )


def test_criterion_01_quadrature_and_basis_properties(domain, rng):
    t0 = time.perf_counter()

    # weighted-Laguerre orthonormality, n, m <= 20, via the exactness of the
    # semi-infinite rule on the polynomial factors
    rule = gauss_laguerre(32)
    x = rule.nodes
    table = [np.ones_like(x), 1.0 - x]
    for k in range(1, 21):
        table.append(((2 * k + 1 - x) * table[k] - k * table[k - 1]) / (k + 1))
    worst_orth = 0.0
    for n in range(21):
        for m in range(n, 21):
            val = float(np.dot(rule.weights, table[n] * table[m]))
            worst_orth = max(worst_orth, abs(val - (1.0 if n == m else 0.0)))
    assert worst_orth < 1e-10

    # rule exactness to degree 2 n_q - 1, relative 1e-12
    worst_exact = 0.0
    for n_q in range(1, 33):
        leg, lag = gauss_legendre(n_q), gauss_laguerre(n_q)
        for d in range(2 * n_q):
            e_leg = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            worst_exact = max(
                worst_exact,
                abs(leg.integrate(lambda t: t**d) - e_leg) / max(1.0, abs(e_leg)),
            )
            e_lag = math.factorial(d)
            worst_exact = max(worst_exact, abs(lag.integrate(lambda t: t**d) - e_lag) / e_lag)
    assert worst_exact < 1e-12

    # exact boundary traces
    basis = BasisSet(domain, 16)
    value_at_reset, value_at_threshold = basis.values_at([domain.v_reset, domain.v_threshold]).T
    assert value_at_reset[0] == 1.0
    assert np.array_equal(value_at_reset[1:], np.zeros(basis.dim - 1))
    assert np.array_equal(value_at_threshold, np.zeros(basis.dim))
    at_reset = basis.values_at(np.array([domain.v_reset]))[:, 0]
    assert at_reset[0] == 1.0 and np.array_equal(at_reset[1:], np.zeros(basis.dim - 1))

    # derivatives against central differences at 100 random interior points
    h = 1e-6
    vs = np.concatenate(
        [
            rng.uniform(-6.0, domain.v_reset - 1e-3, 50),
            rng.uniform(domain.v_reset + 1e-3, domain.v_threshold - 1e-3, 50),
        ]
    )
    fd = (basis.values_at(vs + h) - basis.values_at(vs - h)) / (2 * h)
    worst_fd = float(np.max(np.abs(basis.derivs_at(vs) - fd)))
    assert worst_fd < 1e-6

    _report(1, time.perf_counter() - t0, 5.0,
            f"orthonormality {worst_orth:.1e}, exactness {worst_exact:.1e}, fd {worst_fd:.1e}")


def test_criterion_02_assembly_matches_brute_force(domain):
    t0 = time.perf_counter()
    basis = BasisSet(domain, 8)
    mats = assemble(basis)

    def simpson(a, b, panels):
        n = 2 * panels
        xs = np.linspace(a, b, n + 1)
        ws = np.ones(n + 1)
        ws[1:-1:2] = 4.0
        ws[2:-1:2] = 2.0
        ws *= (b - a) / n / 3.0
        return xs, ws

    xl, wl = simpson(domain.v_reset - 120.0, domain.v_reset - 1e-13, 120_000)
    xr, wr = simpson(domain.v_reset + 1e-13, domain.v_threshold, 20_000)
    xs = np.concatenate([xl, xr])
    ws = np.concatenate([wl, wr])
    vals = basis.values_at(xs)
    ders = basis.derivs_at(xs)
    oracle = {
        "H": (vals * ws) @ vals.T,
        "A": (ders * (ws * xs)) @ vals.T,
        "B": (ders * ws) @ vals.T,
        "C": (ders * ws) @ ders.T,
    }
    # independent D: psi_j(V_R) = delta_j0, psi_j(V_F) = 0 and the classical
    # endpoint identity L'_n(1) = n(n+1)/2 give the threshold slopes
    width = domain.v_threshold - domain.v_reset
    slopes = np.zeros(basis.dim)
    slopes[0] = 1.0 / (domain.v_reset - domain.v_threshold)
    for j in range(basis.m):
        slopes[basis.m + 1 + j] = (2.0 / width) * (
            j * (j + 1) / 2.0 - (j + 2) * (j + 3) / 2.0
        )
    e0 = np.zeros(basis.dim)
    e0[0] = 1.0
    oracle["D"] = np.outer(e0, slopes)
    worst = 0.0
    for name in ("H", "A", "B", "C", "D"):
        worst = max(worst, float(np.max(np.abs(getattr(mats, name) - oracle[name]))))
    assert worst < 1e-8

    np.linalg.cholesky(mats.H)
    left = slice(1, basis.m + 1)
    right = slice(basis.m + 1, basis.dim)
    for mat in (mats.H, mats.A, mats.B, mats.C):
        assert np.all(mat[left, right] == 0.0) and np.all(mat[right, left] == 0.0)

    _report(2, time.perf_counter() - t0, 30.0, f"max entry deviation {worst:.1e}")


def test_criterion_03_temporal_order_one_population(domain, linear_params, gaussian_ic, onepop_reference):
    t0 = time.perf_counter()
    grid = norm_grid(domain)
    mats = assemble(BasisSet(domain, 16))
    l2s, linfs = [], []
    for dt in _DT_LADDER:
        rec = solve(gaussian_ic, linear_params, mats, dt=dt, t_final=0.2, snapshot_times=(0.2,))
        l2s.append(l2_distance(rec.snapshots[0].density, onepop_reference, grid))
        linfs.append(linf_distance(rec.snapshots[0].density, onepop_reference))
    orders_l2 = [math.log2(a / b) for a, b in zip(l2s[:-1], l2s[1:])]
    orders_linf = [math.log2(a / b) for a, b in zip(linfs[:-1], linfs[1:])]

    assert all(0.9 <= o <= 1.05 for o in orders_l2), orders_l2
    assert all(0.9 <= o <= 1.05 for o in orders_linf), orders_linf
    for got, published in zip(orders_l2, _TABLE1_L2_ORDERS):
        assert abs(got - published) <= 0.1
    for got, published in zip(orders_linf, _TABLE1_LINF_ORDERS):
        assert abs(got - published) <= 0.1
    for got, published in zip(l2s, _TABLE1_L2):
        assert published / 5.0 <= got <= published * 5.0

    _report(3, time.perf_counter() - t0, 120.0,
            f"L2 errors {['%.2e' % e for e in l2s]}, orders {['%.2f' % o for o in orders_l2]}")


def test_criterion_04_spectral_spatial_convergence(domain, linear_params, gaussian_ic, onepop_reference):
    t0 = time.perf_counter()
    grid = norm_grid(domain)
    errs = {}
    for m in range(3, 13):
        mats = assemble(BasisSet(domain, m))
        rec = solve(gaussian_ic, linear_params, mats, dt=1e-3, t_final=0.2, snapshot_times=(0.2,))
        errs[m] = l2_distance(rec.snapshots[0].density, onepop_reference, grid)
    slopes = {}
    for label, ms in (("odd", [3, 5, 7, 9, 11]), ("even", [4, 6, 8, 10, 12])):
        slopes[label] = float(
            np.polyfit(np.asarray(ms, float), np.log([errs[m] for m in ms]), 1)[0]
        )
        assert slopes[label] < 0.0
    assert errs[12] < 1e-3

    _report(4, time.perf_counter() - t0, 120.0,
            f"slopes odd {slopes['odd']:.2f} / even {slopes['even']:.2f}, err(M=12)={errs[12]:.2e}")


def test_criterion_05_temporal_order_two_population(domain, twopop_ladder_params, twopop_ics, twopop_reference):
    t0 = time.perf_counter()
    grid = norm_grid(domain)
    mats = assemble(BasisSet(domain, 16))
    ic_e, ic_i = twopop_ics
    ref_e, ref_i = twopop_reference
    errs = {"e": [], "i": []}
    for dt in _DT_LADDER:
        rec = solve_twopop(ic_e, ic_i, twopop_ladder_params, mats, dt=dt, t_final=0.2,
                           snapshot_times=(0.2,))
        errs["e"].append(l2_distance(rec.snapshots[0].density[0], ref_e, grid))
        errs["i"].append(l2_distance(rec.snapshots[0].density[1], ref_i, grid))
    orders = {
        tag: [math.log2(a / b) for a, b in zip(series[:-1], series[1:])]
        for tag, series in errs.items()
    }
    for tag in ("e", "i"):
        assert all(0.9 <= o <= 1.05 for o in orders[tag]), (tag, orders[tag])

    _report(5, time.perf_counter() - t0, 240.0,
            f"E orders {['%.2f' % o for o in orders['e']]}, I orders {['%.2f' % o for o in orders['i']]}")


def test_criterion_06_stability_grid(domain, linear_params, gaussian_ic, onepop_reference):
    t0 = time.perf_counter()
    grid = norm_grid(domain)
    worst = 0.0
    for m in range(3, 14):
        mats = assemble(BasisSet(domain, m))
        for k in range(6):
            dt = 0.1 / 2**k
            rec = solve(gaussian_ic, linear_params, mats, dt=dt, t_final=0.2,
                        snapshot_times=(0.2,))
            assert rec.status == "completed", (m, dt, rec.status)
            err = l2_distance(rec.snapshots[0].density, onepop_reference, grid)
            assert math.isfinite(err), (m, dt)
            worst = max(worst, err)
    assert worst <= 0.2

    _report(6, time.perf_counter() - t0, 300.0, f"max error over 66 cells {worst:.3e}")


def test_criterion_07_mass_and_refractory_bookkeeping(domain, gaussian_ic):
    t0 = time.perf_counter()
    mats = assemble(BasisSet(domain, 16))

    rec = solve(gaussian_ic, OnePopParams(a0=1.0, a1=0.1, b=0.0), mats, dt=1e-4, t_final=0.5)
    drift_one = float(np.max(np.abs(rec.columns["mass"] - 1.0)))
    assert drift_one <= 1e-2

    rec2 = solve_twopop(gaussian_ic, gaussian_ic, _regimes_params(3.5), mats, dt=1e-4, t_final=0.5)
    assert rec2.status == "completed"
    drift_e = float(np.max(np.abs(rec2.columns["mass_e"] + rec2.columns["refractory_e"] - 1.0)))
    drift_i = float(np.max(np.abs(rec2.columns["mass_i"] + rec2.columns["refractory_i"] - 1.0)))
    assert drift_e <= 1e-2 and drift_i <= 1e-2

    # the refractory update is exactly the forward-Euler balance
    for r_series, n_series, tau in (
        (rec2.columns["refractory_e"], rec2.columns["rate_e"], 0.025),
        (rec2.columns["refractory_i"], rec2.columns["rate_i"], 0.025),
    ):
        replay = np.empty_like(r_series)
        replay[0] = 0.0
        for n in range(r_series.size - 1):
            replay[n + 1] = replay[n] + 1e-4 * (n_series[n] - replay[n] / tau)
        assert np.array_equal(replay, r_series)

    _report(7, time.perf_counter() - t0, 60.0,
            f"one-pop drift {drift_one:.1e}, combined drifts {drift_e:.1e}/{drift_i:.1e}")


def test_criterion_08_blowup_regimes(domain, gaussian_ic):
    t0 = time.perf_counter()
    mats = assemble(BasisSet(domain, 16))
    grid = norm_grid(domain)

    # the discrete rate spike is finite (the semi-implicit step regularizes
    # the singularity), so the detection threshold for this experiment sits
    # at 5: far above every pre-event rate, below both populations' spikes
    rec = solve(gaussian_ic, OnePopParams(a0=1.0, a1=0.0, b=3.0), mats, dt=1e-3,
                t_final=3.5, snapshot_times=(2.95, 3.15, 3.35), blowup_threshold=5.0)
    assert rec.status == "blow-up-detected"
    assert rec.trips["blowup_time"] is not None and rec.trips["blowup_time"] < 3.5
    window = (grid >= domain.v_reset - 0.2) & (grid <= domain.v_reset + 0.2)
    peaks = [float(s.density[window].max()) for s in rec.snapshots]
    assert len(peaks) == 3
    assert peaks[0] < peaks[1] < peaks[2]

    params2 = TwoPopParams(
        b_e_to_e=3.0, b_e_to_i=0.5, b_i_to_e=0.75, b_i_to_i=0.25,
        diffusion_mode="constant", diffusion_constant=1.0,
        refractory_mode="pass-through",
    )
    rec2 = solve_twopop(gaussian_ic, gaussian_ic, params2, mats, dt=1e-3, t_final=6.0,
                        blowup_threshold=5.0)
    assert rec2.status == "blow-up-detected"
    assert rec2.trips["trip_time_e"] is not None and rec2.trips["trip_time_i"] is not None
    gap = abs(rec2.trips["trip_time_e"] - rec2.trips["trip_time_i"])
    assert gap <= 0.5

    _report(8, time.perf_counter() - t0, 180.0,
            f"one-pop trip {rec.trips['blowup_time']:.2f}, two-pop gap {gap:.3f}")


def test_criterion_09_regime_transitions(domain, gaussian_ic):
    t0 = time.perf_counter()
    mats = assemble(BasisSet(domain, 16))
    # one lockstep batch; each cell's record is that of its run alone
    # (tests/test_harness.py::test_lockstep_sweep_cells_are_their_runs_alone)
    sweep = (3.5, 3.82, 4.0)
    records = solve_twopop(gaussian_ic, gaussian_ic, [_regimes_params(b_e_to_e) for b_e_to_e in sweep], mats,
                           dt=1e-4, t_final=10.0, blowup_threshold=1e3)
    labels = {b_e_to_e: classify_regime(rec)["regime"] for b_e_to_e, rec in zip(sweep, records)}
    assert labels[3.5] == "periodic", labels
    assert labels[3.82] == "steady", labels
    assert labels[4.0] == "blow-up", labels

    _report(9, time.perf_counter() - t0, 600.0, f"labels {labels}")


def test_criterion_10_reduction_equivalence(domain, gaussian_ic):
    t0 = time.perf_counter()
    basis = BasisSet(domain, 16)
    mats = assemble(basis)
    params1 = OnePopParams(a0=1.0, a1=0.0, b=0.5)
    params2 = TwoPopParams(
        b_e_to_e=0.5, diffusion_mode="constant", diffusion_constant=1.0,
        refractory_mode="pass-through",
    )
    dt = 1e-3
    u0 = project_initial(mats, gaussian_ic)
    one = PopulationState(u0, firing_rate(u0, Spectral(mats), params1))
    # constant diffusion: N = -a s for each population
    rate0 = -params2.diffusion_constant * float(np.dot(mats.slope, u0))
    two = TwoPopState(
        u=(u0.copy(), u0.copy()), mass=(float(mats.mass @ u0),) * 2, r=(0.0, 0.0), step_index=0,
        rate=(rate0, rate0),
    )
    lags = params2.delay_lags(dt)
    worst = 0.0
    for _ in range(100):
        one = step(one, params1, Spectral(mats), dt)
        two = step_twopop(two, params2, Spectral(mats), dt, lags)
        worst = max(worst, float(np.max(np.abs(two.u[0] - one.u))))
    assert worst <= 1e-10

    _report(10, time.perf_counter() - t0, 10.0, f"max per-step coefficient gap {worst:.1e}")


def test_criterion_11_cross_method_agreement_and_speed(domain, linear_params, gaussian_ic, onepop_reference):
    t0 = time.perf_counter()
    grid = norm_grid(domain)
    mats = assemble(BasisSet(domain, 16))
    rec = solve(gaussian_ic, linear_params, mats, dt=1e-4, t_final=0.2, snapshot_times=(0.2,))
    err_spec = l2_distance(rec.snapshots[0].density, onepop_reference, grid)
    assert err_spec < 5e-3

    # matched-error configuration for the grid solver: first order at
    # h = 1/512 lands at the same ~1e-4 error level; a single timing each is
    # enough at the observed margin
    fgrid = FdmGrid.build(domain, v_min=-6.0, h=1.0 / 512.0)
    frec = fdm_solve(gaussian_ic, linear_params, fgrid, reference_timestep(fgrid, linear_params, 0.2), 0.2,
                     snapshot_times=(0.2,))
    err_fdm = l2_distance(frec.snapshots[0].density, onepop_reference, grid)
    assert err_fdm < 5e-4  # both methods sit at the ~1e-4 level
    assert frec.wall_time >= 2.0 * rec.wall_time

    _report(11, time.perf_counter() - t0, 300.0,
            f"cross L2 {err_spec:.2e}, fdm err {err_fdm:.2e}, "
            f"speedup {frec.wall_time / rec.wall_time:.0f}x")
