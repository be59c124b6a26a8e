"""Experiment harness: config parsing, suite runners and regime detection.

Each experiment kind reads a JSON config, runs its ladder or grid of
deterministic cells, and writes CSV tables via :mod:`records`.
The config is parsed once into typed model parameters and initial
densities, and each runner assembles the Galerkin matrices once per
distinct expansion number before any reference run.  Every cell is one
spectral run of the parsed config on its prebuilt matrices, and returns
its run record: :func:`_run`, or for the cells of a sweep, which step in
lockstep groups, :func:`_run_sweep`, each cell's record the same as
alone.  One completion rule decides every density at t_final: a run has
one only if its status is "completed"
(:meth:`~nnlif.integrate.RunRecord.final_density`), so a ladder cell,
reference or timed run that stopped or tripped is a run failure;
stability-grid records such a cell with a NaN error and its status instead.
Independent cells can execute in a process pool; aggregation is keyed, so
results are identical for any worker count.  The pool is imported where it
is used, so a serial run does not load it, and the regime classifier finds
its peaks with numpy alone (:func:`_find_peaks`), so classifying loads no
scipy module.

The config format (schema version 1) is the table :data:`SCHEMA`: every key
of every section, with its check and its default.  A key the table does not
name, in any section, is a configuration error, and a JSON boolean is not a
number.  Values mirror the canonical experiment tables.  The output headers
echo the model, numerics and reference sections as given, plus
``blowup_threshold``; defaults the config leaves out, ``domain`` and
``detection`` are not echoed.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .assembly import GaussianIC, assemble, normalize_gaussian
from .basis import BasisSet, Domain
from .errors import (ConfigurationError, check_finite, check_nonnegative, check_one_of, check_positive,
                     check_positive_integer, check_within)
from .fdm import DEFAULT_V_MIN, FdmGrid, fdm_reference, reference_run, reference_timestep
from .integrate import DEFAULT_BLOWUP_THRESHOLD, STATUS_BLOWUP, STATUS_COMPLETED, check_times
from .norms import l2_distance, linf_distance, norm_grid
from .onepop import OnePopParams, solve
from .records import emit_run_record, emit_snapshot, emit_table
from .twopop import TwoPopParams, solve_twopop

SCHEMA_VERSION = 1

# every experiment kind: the numerics keys it reads without a default, and
# the population model its runner knows, "one", "two" or None for either
_KINDS = {
    "convergence-time": (("dt_values", "t_final"), None),
    "convergence-space": (("m_values", "dt", "t_final"), "one"),
    "stability-grid": (("m_values", "dt_values", "t_final"), "one"),
    "efficiency": (("dt", "t_final"), "one"),
    "blowup": (("dt", "t_final"), None),
    "twopop-regimes": (("dt", "t_final"), "two"),
    "compare-fdm": (("dt", "t_final"), "one"),
}
EXPERIMENT_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# regime classification


def _find_peaks(x, prominence: float | None) -> np.ndarray:
    """Indices of the local maxima of ``x`` whose prominence is >= ``prominence``
    (every maximum when it is None), by the rules of scipy's
    ``find_peaks(x, prominence=prominence)[0]``; see :func:`classify_regime`."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])  # runs of equal samples
    ends = np.r_[starts[1:], x.size] - 1
    v = x[starts]
    run = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[run] + ends[run]) // 2
    if prominence is None or peaks.size == 0:
        return peaks
    # Between a peak and the nearest strictly higher sample on one side, the
    # lowest sample is the lowest of the stretches between the peaks passed
    # on the way to the nearest strictly higher peak: a monotone stack over
    # the peaks, fed each peak's stretch minimum.
    heights = x[peaks].tolist()
    stretches = np.minimum.reduceat(x, np.r_[0, peaks]).tolist()
    left = _side_minima(heights, stretches[:-1])
    right = _side_minima(heights[::-1], stretches[:0:-1])[::-1]
    prominences = x[peaks] - np.maximum(left, right)
    return peaks[prominences >= prominence]


def _side_minima(heights: list, stretches: list) -> list:
    """For each peak, the lowest sample back to its nearest strictly higher
    peak (or the signal's start); ``stretches[k]`` is the lowest sample
    between peak k - 1 and peak k."""
    out, stack = [], []
    for h, low in zip(heights, stretches):
        while stack and stack[-1][0] <= h:
            low = min(low, stack.pop()[1])
        out.append(low)
        stack.append((h, low))
    return out


def classify_regime(
    record,
    *,
    warmup_fraction: float = 0.2,
    steady_window_fraction: float = 0.2,
    steady_fluctuation: float = 0.01,
    peak_amplitude_fraction: float = 0.05,
    peak_spacing_tolerance: float = 0.2,
) -> dict:
    """Label a run as blow-up, periodic, steady or ambiguous.

    Pure function of the recorded series, so labels can be recomputed
    offline from the emitted CSVs.  The keyword defaults are those of a
    config's ``detection`` section.

    * blow-up: the run tripped the rate threshold.
    * periodic: after the warm-up window, the last population's rate (the
      inhibitory one of two) has >= 3 local maxima of prominence >=
      ``peak_amplitude_fraction`` * mean whose mean height exceeds the series
      mean by the same fraction, with successive peak spacings within
      ``peak_spacing_tolerance`` of their mean.  A local maximum is a strict
      rise, a run of equal samples and a strict fall, at the run's midpoint
      ``(left + right) // 2``; the first and last samples never are.  Its
      prominence is its height less the higher of the two side minima, each
      taken up to the nearest strictly higher sample or the end of the
      series.  When the mean is 0 every local maximum counts.  These are the
      rules of scipy's ``find_peaks(x, prominence=p)``.
    * steady: every rate fluctuates by less than ``steady_fluctuation``
      (relative) over the trailing window.
    """
    if record.status == STATUS_BLOWUP:
        return {"regime": "blow-up", **record.trips}
    if record.status != STATUS_COMPLETED:
        return {"regime": "ambiguous", "reason": record.status}

    suffixes = _population_suffixes(record)
    t = record.times
    start = int(math.floor(warmup_fraction * (t.size - 1)))
    sig = record.columns["rate" + suffixes[-1]][start:]
    mean = float(np.mean(sig))
    prominence = peak_amplitude_fraction * abs(mean)
    peaks = _find_peaks(sig, prominence if prominence > 0 else None)
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
    fluctuations = {}
    for suffix in suffixes:
        window = record.columns["rate" + suffix][tail:]
        mean_w = float(np.mean(window))
        fluctuations["fluctuation" + suffix] = float((np.max(window) - np.min(window)) / max(abs(mean_w), 1e-300))
    if all(flux < steady_fluctuation for flux in fluctuations.values()):
        return {"regime": "steady", **fluctuations}
    return {"regime": "ambiguous", "n_peaks": int(peaks.size), "spacing_spread": spacing_spread, **fluctuations}


# ---------------------------------------------------------------------------
# config schema and parsing: a check is called as check(key_path, value) and
# raises ConfigurationError naming the key path; the single-value rules are
# those of errors.py


def _boolean(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigurationError(f"{name} must be true or false, got {value!r}")


def _list(item, name: str, value, non_empty: bool = True) -> None:
    """A JSON array whose every element passes the check ``item``."""
    if not isinstance(value, list) or (non_empty and not value):
        raise ConfigurationError(f"{name} must be a {'non-empty ' * non_empty}list, got {value!r}")
    for element in value:
        item(name, element)


# the default of a key the config must give
_REQUIRED = object()
# the FDM grid spacing of the reference and of compare-fdm's timed run
_FDM_H = 1.0 / 512.0
_GAUSSIAN = {"v0": (check_finite, -1.0), "sigma0_sq": (check_positive, 0.5)}
# the regime classifier's keyword defaults are the detection defaults
_DETECTION = classify_regime.__kwdefaults__

# Every config key: section -> key -> (check, default), a nested dict being a
# section.  A key the config leaves out takes its default; a default of None
# means "not set": the kind needs the key (_KINDS), or it has a
# default derived from other values where it is read (reference_m,
# reference.dt, n_q, beta).  This is the one-population form; see
# _TWO_POPULATION_SCHEMA for the other.
SCHEMA = {
    "schema": (partial(check_one_of, allowed=(SCHEMA_VERSION,)), _REQUIRED),
    "kind": (partial(check_one_of, allowed=EXPERIMENT_KINDS), _REQUIRED),
    "domain": {
        "v_reset": (check_finite, Domain.v_reset),
        "v_threshold": (check_finite, Domain.v_threshold),
        # null, the default, matches the expansion's left scale (see Domain)
        "beta": (lambda name, value: value is None or check_positive(name, value), Domain.beta),
    },
    "model": {
        "population": (partial(check_one_of, allowed=("one", "two")), _REQUIRED),
        "a0": (check_finite, 1.0),
        "a1": (check_finite, OnePopParams.a1),
        "b": (check_finite, OnePopParams.b),
    },
    "initial": _GAUSSIAN,
    "numerics": {
        "m": (check_positive_integer, 16),
        "dt": (check_positive, None),
        "t_final": (check_positive, None),
        "dt_values": (partial(_list, check_positive), None),
        "m_values": (partial(_list, check_positive_integer), [4, 8, 12, 16]),
        "h_values": (partial(_list, check_positive), [1.0 / 32, 1.0 / 64, 1.0 / 128]),
        "fdm_h": (check_positive, _FDM_H),
        "reference_m": (check_positive_integer, None),
        "repetitions": (check_positive_integer, 3),
        "n_q": (check_positive_integer, None),
    },
    "reference": {
        "method": (partial(check_one_of, allowed=("fdm", "self")), "fdm"),
        "h": (check_positive, _FDM_H),
        "richardson": (_boolean, True),
        "v_min": (check_finite, DEFAULT_V_MIN),
        "dt": (check_positive, None),
    },
    "snapshot_times": (partial(_list, check_finite, non_empty=False), []),
    "blowup_threshold": (check_positive, DEFAULT_BLOWUP_THRESHOLD),
    "bound": (check_finite, 0.2),
    "detection": {
        "warmup_fraction": (partial(check_within, interval="[0, 1)"), _DETECTION["warmup_fraction"]),
        "steady_window_fraction": (partial(check_within, interval="(0, 1]"), _DETECTION["steady_window_fraction"]),
        "steady_fluctuation": (check_positive, _DETECTION["steady_fluctuation"]),
        "peak_amplitude_fraction": (check_nonnegative, _DETECTION["peak_amplitude_fraction"]),
        "peak_spacing_tolerance": (check_nonnegative, _DETECTION["peak_spacing_tolerance"]),
    },
    "sweep": {"b_e_to_e": (partial(_list, check_finite, non_empty=False), [])},
}

# two populations: TwoPopParams checks the model's fields itself, and the
# initial section holds one Gaussian per population
_TWO_POPULATION_SCHEMA = {
    **SCHEMA,
    "model": (lambda name, value: None, {}),
    "initial": {"e": _GAUSSIAN, "i": _GAUSSIAN},
}


@dataclass
class ExperimentConfig:
    """A parsed config whose sections hold every key of :data:`SCHEMA`,
    defaults filled in.  ``params`` and ``ic`` are the parsed model: for two
    populations TwoPopParams and an (E, I) pair of initial densities.
    ``header`` is the provenance every output table starts with."""

    kind: str
    domain: Domain
    params: OnePopParams | TwoPopParams
    ic: GaussianIC | tuple
    numerics: dict
    reference: dict
    snapshot_times: tuple
    blowup_threshold: float
    bound: float
    detection: dict
    sweep: dict
    header: dict

    @property
    def two_population(self) -> bool:
        return isinstance(self.params, TwoPopParams)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {type(raw).__name__}")
    two = isinstance(raw.get("model"), dict) and raw["model"].get("population") == "two"
    resolved = _resolve(raw, _TWO_POPULATION_SCHEMA if two else SCHEMA, "")
    domain = Domain(**resolved["domain"])
    model = {key: value for key, value in resolved["model"].items() if key != "population"}
    try:
        params = (TwoPopParams if two else OnePopParams)(**model)
    except TypeError as exc:  # unknown two-population model keys
        raise ConfigurationError(f"model: {exc}") from exc
    initial = resolved["initial"]
    if two:
        ic = tuple(normalize_gaussian(**initial[p], domain=domain) for p in ("e", "i"))
    else:
        ic = normalize_gaussian(**initial, domain=domain)

    header = {"schema": SCHEMA_VERSION, "kind": resolved["kind"]}
    for section in ("model", "numerics", "reference"):
        for key, value in sorted(raw.get(section, {}).items()):
            header[f"{section}.{key}"] = value
    header["blowup_threshold"] = float(resolved["blowup_threshold"])

    cfg = ExperimentConfig(
        kind=resolved["kind"], domain=domain, params=params, ic=ic, numerics=resolved["numerics"],
        reference=resolved["reference"], snapshot_times=tuple(resolved["snapshot_times"]),
        blowup_threshold=float(resolved["blowup_threshold"]), bound=float(resolved["bound"]),
        detection=resolved["detection"], sweep=resolved["sweep"], header=header,
    )
    _validate(cfg, raw.get("numerics", {}))
    return cfg


def _resolve(given, table: dict, where: str) -> dict:
    """The config section ``given`` at key path ``where`` ("" for the top
    level) checked against ``table``, with each key it leaves out set to its
    default."""
    if not isinstance(given, dict):
        raise ConfigurationError(f"config section {where!r} must be a JSON object, got {given!r}")
    for key in given:
        if key not in table:
            raise ConfigurationError(f"unknown {where or 'top-level'} key {key!r}; known keys are {sorted(table)}")
    resolved = {}
    for key, entry in table.items():
        path = f"{where}.{key}" if where else key
        if isinstance(entry, dict):
            resolved[key] = _resolve(given.get(key, {}), entry, path)
            continue
        check, default = entry
        if key in given or default is _REQUIRED:
            check(path, given.get(key))
        resolved[key] = given.get(key, default)
    return resolved


def _validate(cfg: ExperimentConfig, given_numerics: dict) -> None:
    """The rules that tie keys together, on a config whose every key passed
    its own check."""
    num = cfg.numerics
    required, population = _KINDS[cfg.kind]
    if population not in (None, "two" if cfg.two_population else "one"):
        raise ConfigurationError(f"{cfg.kind} needs a {population}-population model")
    if cfg.two_population and cfg.kind == "convergence-time" and cfg.reference["method"] == "self":
        raise ConfigurationError("two-population ladders use the fdm reference")
    for key in required:
        if key not in given_numerics:
            raise ConfigurationError(f"{cfg.kind} needs numerics.{key}")

    dt, t_final, ladder = num["dt"], num["t_final"], num["dt_values"] or []
    if cfg.kind == "convergence-time":
        # equal neighbours are tolerated and yield a NaN order sentinel
        for a, b in zip(ladder[:-1], ladder[1:]):
            if b > a:
                raise ConfigurationError("dt_values must be non-increasing")
    if cfg.kind == "twopop-regimes" and not cfg.sweep["b_e_to_e"]:
        raise ConfigurationError("twopop-regimes needs sweep.b_e_to_e")
    # the loop's own time checks, so a run it would refuse fails here
    if dt is not None:
        check_times(dt, t_final, cfg.snapshot_times)
    for step in ladder:
        check_times(step, t_final)
    # every finite-volume run the config implies, at its reference timestep
    ref, fv_h = cfg.reference, []
    if ref["method"] == "fdm" and cfg.kind not in ("efficiency", "blowup", "twopop-regimes"):
        fv_h += [ref["h"], ref["h"] / 2.0] if ref["richardson"] else [ref["h"]]
    if cfg.kind == "compare-fdm":
        fv_h.append(num["fdm_h"])
    if cfg.kind == "efficiency":
        fv_h += num["h_values"] + [min(num["h_values"]) / 2.0, min(num["h_values"]) / 4.0]
    for h in fv_h:
        grid = FdmGrid.build(cfg.domain, v_min=ref["v_min"], h=h)
        check_times(reference_timestep(grid, cfg.params, t_final), t_final)
    # each sweep value names its output, regime_b<value:g>.csv, and keys its
    # result; each snapshot time names its density_t<t:g>.csv
    for key, values, name in (("sweep.b_e_to_e", cfg.sweep["b_e_to_e"], "regime_b<value:g>.csv"),
                              ("snapshot_times", cfg.snapshot_times, "density_t<t:g>.csv")):
        if len(set(values)) < len(values) or len({f"{v:g}" for v in values}) < len(values):
            raise ConfigurationError(f"{key} repeats a value or a name {name}, got {list(values)}")
    if cfg.two_population:
        for b_e_to_e in cfg.sweep["b_e_to_e"]:
            replace(cfg.params, b_e_to_e=b_e_to_e)
        for step in ([dt] if dt is not None else []) + ladder:
            cfg.params.delay_lags(step)


# ---------------------------------------------------------------------------
# spectral runs, reference solutions and cells


def _matrices(cfg: ExperimentConfig, m_values) -> dict:
    """Galerkin matrices for each distinct expansion number, assembled once
    with the config's quadrature order, in one :func:`assemble` call."""
    ms = list(dict.fromkeys(m_values))
    mats = assemble(*(BasisSet(cfg.domain, m) for m in ms), n_q=cfg.numerics["n_q"])
    return dict(zip(ms, mats if len(ms) > 1 else (mats,)))


def _run(cfg: ExperimentConfig, mats, dt: float, t_final: float, snapshot_times=()):
    """The spectral run of the config's model on prebuilt matrices.  Every
    spectral run but a sweep's starts here, and it is the cell of every
    ladder and grid (top level, so it can cross a process boundary)."""
    options = dict(dt=dt, t_final=t_final, snapshot_times=snapshot_times, blowup_threshold=cfg.blowup_threshold)
    if cfg.two_population:
        return solve_twopop(*cfg.ic, cfg.params, mats, **options)
    return solve(cfg.ic, cfg.params, mats, **options)


def _reference_m(cfg: ExperimentConfig) -> list:
    """The expansion number of the self reference, if the config uses one."""
    return [cfg.numerics["m"]] if cfg.reference["method"] == "self" else []


def _reference_density(cfg: ExperimentConfig, t_final: float, mats: dict):
    """Reference density on the comparison grid, (2, n) with rows E, I for
    two populations.  ``mats`` holds the matrices of :func:`_reference_m`."""
    ref, num = cfg.reference, cfg.numerics
    if ref["method"] == "fdm":
        return fdm_reference(cfg.ic, cfg.params, cfg.domain, t_final, h=ref["h"], v_min=ref["v_min"],
                             richardson=ref["richardson"])
    # self reference: the scheme itself, by default at dt/16 of the finest
    # step in play
    dt_ref = ref["dt"] or min(num["dt_values"] or [num["dt"]]) / 16.0
    return _run(cfg, mats[num["m"]], dt_ref, t_final, (t_final,)).final_density(f"reference run at dt={dt_ref}")


def _cells(cfg: ExperimentConfig, keys, workers: int) -> tuple:
    """The reference density and the run record of each (M, dt) cell in
    ``keys``, run to t_final with t_final as its snapshot; the matrices are
    assembled once per distinct M, the reference's included, first."""
    t_final = cfg.numerics["t_final"]
    mats = _matrices(cfg, [m for m, _ in keys] + _reference_m(cfg))
    ref = _reference_density(cfg, t_final, mats)
    return ref, _map_cells(_run, [(cfg, mats[m], dt, t_final, (t_final,)) for m, dt in keys], workers)


def _population_suffixes(record) -> list[str]:
    """"" for one population, "_e" and "_i" for two: the record's rate
    columns, which come first, without their "rate" prefix."""
    return [name.removeprefix("rate") for name in list(record.columns)[: len(record.trips)]]


def _map_cells(fn, tasks, workers: int):
    """Deterministic keyed map over cells, optionally in processes, at most
    one per cell."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*args) for args in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in tasks]
        return [f.result() for f in futures]


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
    ladder = list(cfg.numerics["dt_values"])
    ref, records = _cells(cfg, [(cfg.numerics["m"], dt) for dt in ladder], workers)
    grid = norm_grid(cfg.domain)
    # one table per population, from the rows of a two-population density
    files = (
        {"e": "convergence_time_e.csv", "i": "convergence_time_i.csv"}
        if cfg.two_population
        else {"one": "convergence_time.csv"}
    )
    refs = np.atleast_2d(ref)
    densities = [np.atleast_2d(rec.final_density(f"cell at dt={dt}")) for dt, rec in zip(ladder, records)]
    results: dict = {}
    for k, (tag, name) in enumerate(files.items()):
        l2 = [l2_distance(d[k], refs[k], grid) for d in densities]
        linf = [linf_distance(d[k], refs[k]) for d in densities]
        table = {
            "dt": ladder,
            "l2_error": l2,
            "order_l2": _orders(l2),
            "linf_error": linf,
            "order_linf": _orders(linf),
        }
        emit_table(os.path.join(out_dir, name), table, cfg.header)
        results[tag] = table
    return results


def run_convergence_space(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Expansion-number ladder at fixed dt; odd and even series separately."""
    m_values = list(cfg.numerics["m_values"])
    ref, records = _cells(cfg, [(m, cfg.numerics["dt"]) for m in m_values], workers)
    grid = norm_grid(cfg.domain)
    errors = {m: l2_distance(rec.final_density(f"cell at M={m}"), ref, grid) for m, rec in zip(m_values, records)}

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
            {**cfg.header, "fit_slope": slope},
        )
        results[label] = {"m": ms, "l2_error": errs, "slope": slope}
    return results


def run_stability_grid(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Full (M, dt) error matrix; a cell that did not complete is recorded
    with a NaN error and its status, not fatal."""
    num = cfg.numerics
    keys = [(m, dt) for m in num["m_values"] for dt in num["dt_values"]]
    ref, records = _cells(cfg, keys, workers)
    grid = norm_grid(cfg.domain)
    errs = [
        l2_distance(rec.final_density(f"cell at M={m}, dt={dt}"), ref, grid)
        if rec.status == STATUS_COMPLETED
        else float("nan")
        for (m, dt), rec in zip(keys, records)
    ]
    flags = [int(not math.isfinite(e) or e > cfg.bound) for e in errs]
    rows_m = [m for m, _ in keys]
    rows_dt = [dt for _, dt in keys]
    emit_table(
        os.path.join(out_dir, "stability_grid.csv"),
        {"m": rows_m, "dt": rows_dt, "l2_error": errs, "status": [rec.status for rec in records],
         "exceeds_bound": flags},
        {**cfg.header, "bound": cfg.bound},
    )
    return {"m": rows_m, "dt": rows_dt, "l2_error": errs, "flags": flags}


def run_blowup(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Blow-up study: full rate series plus density snapshots."""
    num = cfg.numerics
    rec = _run(cfg, _matrices(cfg, [num["m"]])[num["m"]], num["dt"], num["t_final"], cfg.snapshot_times)
    emit_run_record(os.path.join(out_dir, "blowup_run.csv"), rec, cfg.header)
    # density_t*.csv, or density_e_t*.csv and density_i_t*.csv
    for snap in rec.snapshots:
        for suffix, density in zip(_population_suffixes(rec), np.atleast_2d(snap.density)):
            emit_snapshot(os.path.join(out_dir, f"density{suffix}_t{snap.t:g}.csv"), replace(snap, density=density),
                          cfg.header)
    return {"record": rec}


def _run_sweep(cfg: ExperimentConfig, values, mats):
    """The records of the sweep cells at b_e_to_e ``values``, stepped as one
    lockstep batch (top level, so it can cross a process boundary)."""
    num = cfg.numerics
    return solve_twopop(*cfg.ic, [replace(cfg.params, b_e_to_e=v) for v in values], mats, num["dt"], num["t_final"],
                        blowup_threshold=cfg.blowup_threshold)


def run_twopop_regimes(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Sweep the excitatory self-coupling and classify each run.  The cells
    run as min(workers, cells) contiguous groups, each one lockstep batch in
    one process; a cell's record is the same in any group."""
    values = list(cfg.sweep["b_e_to_e"])
    num = cfg.numerics
    mats = _matrices(cfg, [num["m"]])[num["m"]]
    k, groups = len(values), min(workers, len(values))
    tasks = [(cfg, values[g * k // groups:(g + 1) * k // groups], mats) for g in range(groups)]
    records = [rec for group in _map_cells(_run_sweep, tasks, workers) for rec in group]
    cells = [{**classify_regime(rec, **cfg.detection), "record": rec} for rec in records]
    for v, cell in zip(values, cells):
        emit_run_record(
            os.path.join(out_dir, f"regime_b{v:g}.csv"),
            cell["record"],
            {**cfg.header, "regime": cell["regime"]},
        )
    # a trip time is reported for a blow-up only
    trips = {key: [cell.get(key) or float("nan") for cell in cells] for key in records[0].trips}
    emit_table(
        os.path.join(out_dir, "regimes.csv"),
        {"b_e_to_e": values, "regime": [cell["regime"] for cell in cells], **trips},
        cfg.header,
    )
    return dict(zip(values, cells))


def _timed_run(cfg: ExperimentConfig, method: str, resolution, mats=None) -> tuple:
    """Median loop wall time of ``numerics.repetitions`` identical runs to
    t_final, and the t_final density of the last: the "spectral" scheme on
    ``mats``, whose M is ``resolution``, or the :func:`fdm.reference_run`
    at grid spacing ``resolution``."""
    num = cfg.numerics
    t_final = num["t_final"]
    if method == "spectral":
        what, run = f"spectral run at M={resolution}", partial(_run, cfg, mats, num["dt"], t_final, (t_final,))
    else:
        what, run = f"fdm run at h={resolution:g}", partial(
            reference_run, cfg.ic, cfg.params, cfg.domain, t_final, resolution, cfg.reference["v_min"],
            cfg.blowup_threshold)
    walls = []
    for _ in range(num["repetitions"]):
        rec = run()
        walls.append(rec.wall_time)
    return statistics.median(walls), rec.final_density(what)


def run_efficiency(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Error-versus-time frontier: spectral M ladder and grid h ladder, each
    against its own refined reference; loop wall times are medians of
    ``numerics.repetitions`` runs."""
    num = cfg.numerics
    t_final = num["t_final"]
    m_values, h_values = num["m_values"], num["h_values"]
    m_ref = num["reference_m"] or max(m_values) + 8
    grid = norm_grid(cfg.domain)
    mats = _matrices(cfg, [m_ref, *m_values])
    spectral_ref = _run(cfg, mats[m_ref], num["dt"], t_final, (t_final,)).final_density(
        f"reference run at M={m_ref}"
    )
    fdm_ref = fdm_reference(cfg.ic, cfg.params, cfg.domain, t_final, h=min(h_values) / 2.0,
                            v_min=cfg.reference["v_min"], richardson=True)
    runs = [("spectral", m, mats[m], spectral_ref) for m in m_values] + [("fdm", h, None, fdm_ref) for h in h_values]

    table = {"method": [], "resolution": [], "l2_error": [], "wall_time_s": []}
    for method, resolution, matrices, ref in runs:
        wall, density = _timed_run(cfg, method, resolution, matrices)
        for key, value in zip(table, (method, resolution, l2_distance(density, ref, grid), wall)):
            table[key].append(value)
    emit_table(os.path.join(out_dir, "efficiency.csv"), table, cfg.header)
    return table


def run_compare_fdm(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> dict:
    """Cross-method agreement and matched-error timing comparison."""
    m, fdm_h = cfg.numerics["m"], cfg.numerics["fdm_h"]
    mats = _matrices(cfg, [m, *_reference_m(cfg)])
    ref = _reference_density(cfg, cfg.numerics["t_final"], mats)
    wall_s, p_spec = _timed_run(cfg, "spectral", m, mats[m])
    wall_f, p_fdm = _timed_run(cfg, "fdm", fdm_h)
    grid = norm_grid(cfg.domain)

    table = {
        "method": ["spectral", "fdm"],
        "resolution": [m, fdm_h],
        "l2_error_vs_reference": [
            l2_distance(p_spec, ref, grid),
            l2_distance(p_fdm, ref, grid),
        ],
        "cross_l2_distance": [l2_distance(p_spec, p_fdm, grid)] * 2,
        "wall_time_s": [wall_s, wall_f],
    }
    emit_table(os.path.join(out_dir, "compare_fdm.csv"), table, cfg.header)
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
    check_positive_integer("workers", workers)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    result = RUNNERS[cfg.kind](cfg, out_dir, workers)
    result["_elapsed_s"] = time.perf_counter() - t0
    return result
