"""Experiment harness: config parsing, suite runners and regime detection.

Each experiment kind reads a JSON config (schema below), runs its ladder or
grid of deterministic cells, and writes CSV tables via :mod:`records`.
The config is parsed once into typed model parameters and initial
densities, and each runner assembles the Galerkin matrices once per
distinct expansion number before any reference run; every cell receives
the parsed config and its prebuilt matrices.  Independent cells can execute
in a process pool; aggregation is keyed, so results are identical for any
worker count.

Config schema (version 1)::

    {
      "schema": 1,
      "kind": "convergence-time" | "convergence-space" | "stability-grid" |
              "efficiency" | "blowup" | "twopop-regimes" | "compare-fdm",
      "domain":    {"v_reset": 1.0, "v_threshold": 2.0},          # optional
      "model":     one-population {"population": "one", "a0", "a1", "b"}
                   or two-population {"population": "two", "b_e_to_e", ...},
      "initial":   {"v0", "sigma0_sq"} or {"e": {...}, "i": {...}},
      "numerics":  {"m", "dt", "t_final", "dt_values", "m_values", "n_q", ...},
      "reference": {"method": "fdm"|"self", "h", "richardson", "v_min"},
      "snapshot_times": [...],
      "blowup_threshold": ...,
      "bound": ...,                                      # stability-grid only
      "detection": {"warmup_fraction", "steady_window_fraction",
                    "steady_fluctuation", "peak_amplitude_fraction",
                    "peak_spacing_tolerance"},
      "sweep":     {"b_e_to_e": [...]}                  # twopop-regimes only
    }

Values mirror the canonical experiment tables; every default used is echoed
into the output headers.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import find_peaks

from .assembly import GaussianIC, assemble, normalize_gaussian
from .basis import BasisSet, Domain
from .errors import ConfigurationError, NnlifError, check_finite
from .fdm import FdmGrid, fdm_reference, fdm_solve, reference_timestep
from .integrate import STATUS_COMPLETED
from .norms import l2_distance, linf_distance, norm_grid
from .onepop import OnePopParams, solve
from .records import emit_run_record, emit_snapshot, emit_table, emit_twopop_record
from .twopop import TwoPopParams, solve_twopop

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "convergence-time",
    "convergence-space",
    "stability-grid",
    "efficiency",
    "blowup",
    "twopop-regimes",
    "compare-fdm",
)

# kinds whose runners only know the one-population model
_ONE_POPULATION_KINDS = ("convergence-space", "stability-grid", "efficiency", "compare-fdm")

_DETECTION_DEFAULTS = {
    "warmup_fraction": 0.2,
    "steady_window_fraction": 0.2,
    "steady_fluctuation": 0.01,
    "peak_amplitude_fraction": 0.05,
    "peak_spacing_tolerance": 0.2,
}

# numerics keys each experiment kind reads without a default
_REQUIRED_NUMERICS = {
    "convergence-time": ("dt_values", "t_final"),
    "convergence-space": ("m_values", "dt", "t_final"),
    "stability-grid": ("m_values", "dt_values", "t_final"),
    "efficiency": ("dt", "t_final"),
    "blowup": ("dt", "t_final"),
    "twopop-regimes": ("dt", "t_final"),
    "compare-fdm": ("dt", "t_final"),
}


@dataclass
class ExperimentConfig:
    """A validated config.  ``params`` and ``ic`` are the parsed model: for
    two populations TwoPopParams and an (E, I) pair of initial densities.
    ``model`` is the model section as given, echoed into output headers."""

    kind: str
    domain: Domain
    model: dict
    params: OnePopParams | TwoPopParams
    ic: GaussianIC | tuple
    numerics: dict
    reference: dict
    snapshot_times: tuple
    blowup_threshold: float
    bound: float
    detection: dict
    sweep: dict

    @property
    def two_population(self) -> bool:
        return isinstance(self.params, TwoPopParams)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported config schema {raw.get('schema')!r}")
    kind = raw.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigurationError(f"unknown experiment kind {kind!r}")

    dom_raw = raw.get("domain", {})
    domain = Domain(
        v_reset=dom_raw.get("v_reset", 1.0),
        v_threshold=dom_raw.get("v_threshold", 2.0),
        beta=dom_raw.get("beta"),
    )
    model = dict(raw.get("model", {}))
    initial = raw.get("initial", {})
    if model.get("population") == "one":
        params, ic = _onepop_params(model), _initial_one(initial, domain)
    elif model.get("population") == "two":
        params, ic = _twopop_params(model), _initial_two(initial, domain)
    else:
        raise ConfigurationError("model.population must be 'one' or 'two'")
    blowup_threshold = raw.get("blowup_threshold", 1e3)
    _positive(blowup_threshold, "blowup_threshold")
    bound = raw.get("bound", 0.2)
    check_finite("bound", bound)

    cfg = ExperimentConfig(
        kind=kind,
        domain=domain,
        model=model,
        params=params,
        ic=ic,
        numerics=dict(raw.get("numerics", {})),
        reference=dict(raw.get("reference", {"method": "fdm", "h": 1.0 / 512.0, "richardson": True})),
        snapshot_times=tuple(raw.get("snapshot_times", ())),
        blowup_threshold=float(blowup_threshold),
        bound=float(bound),
        detection={**_DETECTION_DEFAULTS, **raw.get("detection", {})},
        sweep=dict(raw.get("sweep", {})),
    )
    _validate(cfg)
    return cfg


def _positive(value, what: str) -> None:
    check_finite(what, value)
    if value <= 0:
        raise ConfigurationError(f"{what} must be positive, got {value}")


def _count(value, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{what} must be a positive integer, got {value!r}")


# the check for every numerics key a runner reads; *_values keys are lists
_NUMERICS_CHECKS = {
    "dt": _positive, "t_final": _positive, "fdm_h": _positive, "dt_values": _positive,
    "h_values": _positive, "m": _count, "reference_m": _count, "repetitions": _count, "m_values": _count,
    "n_q": _count,
}


def _validate(cfg: ExperimentConfig) -> None:
    num, ref = cfg.numerics, cfg.reference
    if cfg.two_population and cfg.kind in _ONE_POPULATION_KINDS:
        raise ConfigurationError(f"{cfg.kind} needs a one-population model")
    if cfg.two_population and cfg.kind == "convergence-time" and _reference_m(cfg):
        raise ConfigurationError("two-population ladders use the fdm reference")
    for key in _REQUIRED_NUMERICS[cfg.kind]:
        if key not in num:
            raise ConfigurationError(f"{cfg.kind} needs numerics.{key}")
    for key, check in _NUMERICS_CHECKS.items():
        if key not in num:
            continue
        values = num[key] if key.endswith("_values") else [num[key]]
        if not (isinstance(values, list) and values):
            raise ConfigurationError(f"numerics.{key} must be a non-empty list")
        for value in values:
            check(value, f"numerics.{key}")
    for key in ("h", "dt"):
        if key in ref:
            _positive(ref[key], f"reference.{key}")
    check_finite("reference.v_min", ref.get("v_min", -6.0))
    for ts in cfg.snapshot_times:
        check_finite("snapshot time", ts)

    dt = num.get("dt")
    t_final = num.get("t_final")
    if cfg.kind == "convergence-time":
        ladder = num["dt_values"]
        # equal neighbours are tolerated and yield a NaN order sentinel
        for a, b in zip(ladder[:-1], ladder[1:]):
            if b > a:
                raise ConfigurationError("dt_values must be non-increasing")
    if cfg.kind == "twopop-regimes" and not (cfg.two_population and cfg.sweep.get("b_e_to_e")):
        raise ConfigurationError("twopop-regimes needs a two-population model and sweep.b_e_to_e")
    if dt is not None and t_final is not None:
        _check_divisible(dt, t_final, "t_final")
        for ts in cfg.snapshot_times:
            _check_divisible(dt, ts, f"snapshot time {ts}")
            if ts > t_final:
                raise ConfigurationError(f"snapshot time {ts} exceeds t_final={t_final}")
    if t_final is not None:
        for dtv in num.get("dt_values", ()):
            _check_divisible(dtv, t_final, "t_final")
    if cfg.two_population:
        for b_e_to_e in cfg.sweep.get("b_e_to_e", ()):
            replace(cfg.params, b_e_to_e=b_e_to_e)
        for dtv in ([dt] if dt is not None else []) + list(num.get("dt_values", ())):
            cfg.params.delay_lags(dtv)


def _check_divisible(dt: float, t: float, what: str) -> None:
    k = round(t / dt)
    if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigurationError(f"{what}={t} is not an integer multiple of dt={dt}")


def _onepop_params(model: dict) -> OnePopParams:
    return OnePopParams(a0=model.get("a0", 1.0), a1=model.get("a1", 0.0), b=model.get("b", 0.0))


def _twopop_params(model: dict) -> TwoPopParams:
    kwargs = {key: value for key, value in model.items() if key != "population"}
    try:
        return TwoPopParams(**kwargs)
    except TypeError as exc:  # unknown or missing model keys
        raise ConfigurationError(f"model: {exc}") from exc


def _initial_one(initial: dict, domain: Domain) -> GaussianIC:
    return normalize_gaussian(initial.get("v0", -1.0), initial.get("sigma0_sq", 0.5), domain)


def _initial_two(initial: dict, domain: Domain) -> tuple:
    e = initial.get("e", {"v0": -1.0, "sigma0_sq": 0.5})
    i = initial.get("i", {"v0": -1.0, "sigma0_sq": 0.5})
    for spec in (e, i):
        if not (isinstance(spec, dict) and "v0" in spec and "sigma0_sq" in spec):
            raise ConfigurationError("initial.e and initial.i each need v0 and sigma0_sq")
    return (
        normalize_gaussian(e["v0"], e["sigma0_sq"], domain),
        normalize_gaussian(i["v0"], i["sigma0_sq"], domain),
    )


def _provenance(cfg: ExperimentConfig) -> dict:
    meta = {"schema": SCHEMA_VERSION, "kind": cfg.kind}
    for key, value in sorted(cfg.model.items()):
        meta[f"model.{key}"] = value
    for key, value in sorted(cfg.numerics.items()):
        meta[f"numerics.{key}"] = value
    for key, value in sorted(cfg.reference.items()):
        meta[f"reference.{key}"] = value
    meta["blowup_threshold"] = cfg.blowup_threshold
    return meta


# ---------------------------------------------------------------------------
# spectral runs and reference solutions


def _matrices(cfg: ExperimentConfig, m_values) -> dict:
    """Galerkin matrices for each distinct expansion number, assembled once
    with the config's quadrature order."""
    n_q = cfg.numerics.get("n_q")
    return {m: assemble(BasisSet(cfg.domain, m), n_q) for m in dict.fromkeys(m_values)}


def _run(cfg: ExperimentConfig, mats, dt: float, t_final: float, snapshot_times=()):
    """The spectral run of the config's model on prebuilt matrices."""
    options = dict(dt=dt, t_final=t_final, snapshot_times=snapshot_times, blowup_threshold=cfg.blowup_threshold)
    if cfg.two_population:
        return solve_twopop(*cfg.ic, cfg.params, mats, **options)
    return solve(cfg.ic, cfg.params, mats, **options)


def _spectral_reference(cfg: ExperimentConfig, mats, dt: float, t_final: float):
    """Density at t_final of a one-population spectral reference run."""
    rec = _run(cfg, mats, dt, t_final, (t_final,))
    if rec.status != STATUS_COMPLETED:
        raise NnlifError(f"reference run at dt={dt} ended with status {rec.status}")
    return rec.snapshots[0].density


def _reference_m(cfg: ExperimentConfig) -> list:
    """The expansion number of the self reference, if the config uses one."""
    return [] if cfg.reference.get("method", "fdm") == "fdm" else [cfg.numerics.get("m", 16)]


def _reference_density(cfg: ExperimentConfig, t_final: float, mats: dict):
    """Reference density on the comparison grid; for two populations an
    (E, I) pair.  ``mats`` holds the matrices of :func:`_reference_m`."""
    ref = cfg.reference
    if ref.get("method", "fdm") == "fdm":
        return fdm_reference(
            cfg.ic,
            cfg.params,
            cfg.domain,
            t_final,
            h=ref.get("h", 1.0 / 512.0),
            v_min=ref.get("v_min", -6.0),
            richardson=ref.get("richardson", True),
        )
    # self reference: the scheme itself at dt/16 of the finest step in play
    ladder = cfg.numerics.get("dt_values") or [cfg.numerics["dt"]]
    dt_ref = ref.get("dt", min(ladder) / 16.0)
    return _spectral_reference(cfg, mats[cfg.numerics.get("m", 16)], dt_ref, t_final)


# ---------------------------------------------------------------------------
# experiment cells (top level so they can cross a process boundary)


def _cell_final(cfg: ExperimentConfig, mats, dt: float, t_final: float):
    """One run to t_final; the final density of each population, or None
    for a run that stopped before it."""
    rec = _run(cfg, mats, dt, t_final, (t_final,))
    snapshots = (rec.snapshots_e, rec.snapshots_i) if cfg.two_population else (rec.snapshots,)
    densities = [snaps[0].density if snaps else None for snaps in snapshots]
    return {"status": rec.status, "densities": densities, "wall_time": rec.wall_time}


def _cell_regime(cfg: ExperimentConfig, mats):
    num = cfg.numerics
    rec = _run(cfg, mats, num["dt"], num["t_final"])
    result = classify_regime(rec, **cfg.detection)
    result["b_e_to_e"] = cfg.params.b_e_to_e
    result["record"] = rec
    return result


def _map_cells(fn, tasks, workers: int):
    """Deterministic keyed map over cells, optionally in processes."""
    if workers <= 1:
        return [fn(*args) for args in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# regime classification


def classify_regime(
    record,
    warmup_fraction: float = 0.2,
    steady_window_fraction: float = 0.2,
    steady_fluctuation: float = 0.01,
    peak_amplitude_fraction: float = 0.05,
    peak_spacing_tolerance: float = 0.2,
) -> dict:
    """Label a two-population run as blow-up, periodic, steady or ambiguous.

    Pure function of the recorded series, so labels can be recomputed
    offline from the emitted CSVs.

    * blow-up: the run tripped the rate threshold.
    * periodic: after the warm-up window, the inhibitory rate has >= 3 local
      maxima of prominence >= ``peak_amplitude_fraction`` * mean whose mean
      height exceeds the series mean by the same fraction, with successive
      peak spacings within ``peak_spacing_tolerance`` of their mean.
    * steady: both rates fluctuate by less than ``steady_fluctuation``
      (relative) over the trailing window.
    """
    if record.status == "blow-up-detected":
        return {"regime": "blow-up", "trip_time_e": record.trip_time_e,
                "trip_time_i": record.trip_time_i}
    if record.status != "completed":
        return {"regime": "ambiguous", "reason": record.status}

    t = record.times
    start = int(math.floor(warmup_fraction * (t.size - 1)))
    sig = record.rate_i[start:]
    mean = float(np.mean(sig))
    prominence = peak_amplitude_fraction * abs(mean)
    peaks, props = find_peaks(sig, prominence=prominence if prominence > 0 else None)
    periodic = False
    spacing_spread = float("nan")
    amplitude = float("nan")
    if peaks.size >= 3:
        spacings = np.diff(t[start:][peaks])
        spacing_spread = float(np.max(np.abs(spacings - spacings.mean())) / spacings.mean())
        amplitude = float(np.mean(sig[peaks]) - mean)
        periodic = spacing_spread <= peak_spacing_tolerance and amplitude >= peak_amplitude_fraction * abs(mean)
    if periodic:
        return {
            "regime": "periodic",
            "n_peaks": int(peaks.size),
            "spacing_spread": spacing_spread,
            "amplitude": amplitude,
        }

    tail = int(math.floor((1.0 - steady_window_fraction) * (t.size - 1)))
    steady = True
    fluctuations = {}
    for name, series in (("e", record.rate_e), ("i", record.rate_i)):
        window = series[tail:]
        mean_w = float(np.mean(window))
        flux = float((np.max(window) - np.min(window)) / max(abs(mean_w), 1e-300))
        fluctuations[name] = flux
        steady = steady and flux < steady_fluctuation
    if steady:
        return {"regime": "steady", "fluctuation_e": fluctuations["e"],
                "fluctuation_i": fluctuations["i"]}
    return {
        "regime": "ambiguous",
        "n_peaks": int(peaks.size),
        "spacing_spread": spacing_spread,
        "fluctuation_e": fluctuations["e"],
        "fluctuation_i": fluctuations["i"],
    }


# ---------------------------------------------------------------------------
# experiment suites


def _orders(errors):
    out = [float("nan")]
    for prev, cur in zip(errors[:-1], errors[1:]):
        if prev > 0 and cur > 0 and prev != cur:
            out.append(math.log2(prev / cur))
        else:
            out.append(float("nan"))
    return out


def run_convergence_time(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Temporal-order ladder against the configured reference."""
    num = cfg.numerics
    ladder = list(num["dt_values"])
    t_final = num["t_final"]
    m = num.get("m", 16)
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, [m, *_reference_m(cfg)])
    ref = _reference_density(cfg, t_final, mats)
    cells = _map_cells(_cell_final, [(cfg, mats[m], dt, t_final) for dt in ladder], workers)
    # (result key, output file, reference) per population
    series = (
        [("e", "convergence_time_e.csv", ref[0]), ("i", "convergence_time_i.csv", ref[1])]
        if cfg.two_population
        else [("one", "convergence_time.csv", ref)]
    )
    results: dict = {}
    for k, (tag, name, ref_k) in enumerate(series):
        l2 = [l2_distance(c["densities"][k], ref_k, grid) for c in cells]
        linf = [linf_distance(c["densities"][k], ref_k) for c in cells]
        table = {
            "dt": ladder,
            "l2_error": l2,
            "order_l2": _orders(l2),
            "linf_error": linf,
            "order_linf": _orders(linf),
        }
        emit_table(os.path.join(out_dir, name), table, _provenance(cfg))
        results[tag] = table
    return results


def run_convergence_space(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Expansion-number ladder at fixed dt; odd and even series separately."""
    num = cfg.numerics
    m_values = list(num["m_values"])
    dt = num["dt"]
    t_final = num["t_final"]
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, m_values + _reference_m(cfg))
    ref = _reference_density(cfg, t_final, mats)
    cells = _map_cells(_cell_final, [(cfg, mats[m], dt, t_final) for m in m_values], workers)
    errors = {m: l2_distance(c["densities"][0], ref, grid) for m, c in zip(m_values, cells)}

    results = {}
    for parity, label in ((1, "odd"), (0, "even")):
        ms = [m for m in m_values if m % 2 == parity]
        errs = [errors[m] for m in ms]
        lns = [math.log(e) for e in errs]
        slope = float("nan")
        if len(ms) >= 2:
            slope = float(np.polyfit(np.asarray(ms, float), np.asarray(lns), 1)[0])
        emit_table(
            os.path.join(out_dir, f"convergence_space_{label}.csv"),
            {"m": ms, "l2_error": errs, "ln_l2_error": lns},
            {**_provenance(cfg), "fit_slope": slope},
        )
        results[label] = {"m": ms, "l2_error": errs, "slope": slope}
    return results


def run_stability_grid(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Full (M, dt) error matrix; per-cell failures recorded, not fatal."""
    num = cfg.numerics
    m_values = list(num["m_values"])
    t_final = num["t_final"]
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, m_values + _reference_m(cfg))
    ref = _reference_density(cfg, t_final, mats)

    keys = [(m, dt) for m in m_values for dt in num["dt_values"]]
    cells = _map_cells(_cell_final, [(cfg, mats[m], dt, t_final) for m, dt in keys], workers)

    errs, statuses, flags = [], [], []
    for cell in cells:
        density = cell["densities"][0]
        statuses.append(cell["status"])
        if density is None or cell["status"] != STATUS_COMPLETED:
            errs.append(float("nan"))
            flags.append(1)
        else:
            e = l2_distance(density, ref, grid)
            errs.append(e)
            flags.append(int(not math.isfinite(e) or e > cfg.bound))
    rows_m = [m for m, _ in keys]
    rows_dt = [dt for _, dt in keys]
    emit_table(
        os.path.join(out_dir, "stability_grid.csv"),
        {"m": rows_m, "dt": rows_dt, "l2_error": errs, "status": statuses, "exceeds_bound": flags},
        {**_provenance(cfg), "bound": cfg.bound},
    )
    return {"m": rows_m, "dt": rows_dt, "l2_error": errs, "flags": flags}


def run_blowup(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Blow-up study: full rate series plus density snapshots."""
    num = cfg.numerics
    m = num.get("m", 16)
    rec = _run(cfg, _matrices(cfg, [m])[m], num["dt"], num["t_final"], cfg.snapshot_times)
    path = os.path.join(out_dir, "blowup_run.csv")
    if cfg.two_population:
        emit_twopop_record(path, rec, _provenance(cfg))
        populations = (("e_", rec.snapshots_e), ("i_", rec.snapshots_i))
    else:
        emit_run_record(path, rec, _provenance(cfg))
        populations = (("", rec.snapshots),)
    for tag, snaps in populations:
        for snap in snaps:
            emit_snapshot(os.path.join(out_dir, f"density_{tag}t{snap.t:g}.csv"), snap)
    return {"record": rec}


def run_twopop_regimes(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Sweep the excitatory self-coupling and classify each run."""
    values = list(cfg.sweep["b_e_to_e"])
    m = cfg.numerics.get("m", 16)
    mats = _matrices(cfg, [m])[m]
    tasks = [(replace(cfg, params=replace(cfg.params, b_e_to_e=v)), mats) for v in values]
    cells = _map_cells(_cell_regime, tasks, workers)
    regimes, trips_e, trips_i = [], [], []
    for cell in cells:
        regimes.append(cell["regime"])
        trips_e.append(cell.get("trip_time_e") or float("nan"))
        trips_i.append(cell.get("trip_time_i") or float("nan"))
        emit_twopop_record(
            os.path.join(out_dir, f"regime_b{cell['b_e_to_e']:g}.csv"),
            cell["record"],
            {**_provenance(cfg), "regime": cell["regime"]},
        )
    emit_table(
        os.path.join(out_dir, "regimes.csv"),
        {"b_e_to_e": values, "regime": regimes, "trip_time_e": trips_e, "trip_time_i": trips_i},
        _provenance(cfg),
    )
    return {v: c for v, c in zip(values, cells)}


def _median_wall_time(run_once, repetitions: int = 3) -> tuple:
    times, out = [], None
    for _ in range(repetitions):
        out = run_once()
        times.append(out.wall_time)
    return statistics.median(times), out


def run_efficiency(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Error-versus-time frontier: spectral M ladder and grid h ladder, each
    against its own refined reference; loop wall times are medians of 3."""
    num = cfg.numerics
    dt = num["dt"]
    t_final = num["t_final"]
    m_values = list(num.get("m_values", [4, 8, 12, 16]))
    h_values = list(num.get("h_values", [1.0 / 32, 1.0 / 64, 1.0 / 128]))
    reps = int(num.get("repetitions", 3))
    m_ref = int(num.get("reference_m", max(m_values) + 8))
    v_min = cfg.reference.get("v_min", -6.0)
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, [m_ref, *m_values])
    spectral_ref = _spectral_reference(cfg, mats[m_ref], dt, t_final)

    methods, resolutions, errors, walls = [], [], [], []
    for m in m_values:
        wall, rec = _median_wall_time(lambda: _run(cfg, mats[m], dt, t_final, (t_final,)), reps)
        methods.append("spectral")
        resolutions.append(m)
        errors.append(l2_distance(rec.snapshots[0].density, spectral_ref, grid))
        walls.append(wall)

    fdm_ref = fdm_reference(cfg.ic, cfg.params, cfg.domain, t_final, h=min(h_values) / 2.0,
                            v_min=v_min, richardson=True)
    for h in h_values:
        fgrid = FdmGrid.build(cfg.domain, v_min=v_min, h=h)
        dt_f = reference_timestep(fgrid, cfg.params, t_final)
        wall, rec = _median_wall_time(
            lambda: fdm_solve(cfg.ic, cfg.params, fgrid, dt_f, t_final, blowup_threshold=cfg.blowup_threshold),
            reps,
        )
        methods.append("fdm")
        resolutions.append(h)
        errors.append(l2_distance(rec.final_density, fdm_ref, grid))
        walls.append(wall)

    table = {"method": methods, "resolution": resolutions, "l2_error": errors, "wall_time_s": walls}
    emit_table(os.path.join(out_dir, "efficiency.csv"), table, _provenance(cfg))
    return table


def run_compare_fdm(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Cross-method agreement and matched-error timing comparison."""
    num = cfg.numerics
    dt = num["dt"]
    t_final = num["t_final"]
    m = num.get("m", 16)
    fdm_h = num.get("fdm_h", 1.0 / 512.0)
    reps = int(num.get("repetitions", 3))
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, [m, *_reference_m(cfg)])
    ref = _reference_density(cfg, t_final, mats)

    wall_s, rec_s = _median_wall_time(lambda: _run(cfg, mats[m], dt, t_final, (t_final,)), reps)
    p_spec = rec_s.snapshots[0].density

    fgrid = FdmGrid.build(cfg.domain, v_min=cfg.reference.get("v_min", -6.0), h=fdm_h)
    dt_f = reference_timestep(fgrid, cfg.params, t_final)
    wall_f, rec_f = _median_wall_time(
        lambda: fdm_solve(cfg.ic, cfg.params, fgrid, dt_f, t_final, blowup_threshold=cfg.blowup_threshold),
        reps,
    )

    table = {
        "method": ["spectral", "fdm"],
        "resolution": [m, fdm_h],
        "l2_error_vs_reference": [
            l2_distance(p_spec, ref, grid),
            l2_distance(rec_f.final_density, ref, grid),
        ],
        "cross_l2_distance": [l2_distance(p_spec, rec_f.final_density, grid)] * 2,
        "wall_time_s": [wall_s, wall_f],
    }
    emit_table(os.path.join(out_dir, "compare_fdm.csv"), table, _provenance(cfg))
    return table


RUNNERS = {
    "convergence-time": run_convergence_time,
    "convergence-space": run_convergence_space,
    "stability-grid": run_stability_grid,
    "efficiency": run_efficiency,
    "blowup": run_blowup,
    "twopop-regimes": run_twopop_regimes,
    "compare-fdm": run_compare_fdm,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    result = RUNNERS[cfg.kind](cfg, out_dir, workers)
    result["_elapsed_s"] = time.perf_counter() - t0
    return result
