"""nnlif benchmark: one experiment workload, end to end or traced by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regimes --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload grid --trace 1          # per-layer table
    python3 perfbench/run.py --workload oracle --smoke --seconds 1
    python3 perfbench/run.py --write-goldens                    # re-record goldens

The benchmark writes the workload's generated config, then drives
``nnlif.experiments.load_config`` / ``run_experiment`` (the path of the
``nnlif <kind>`` CLI) with ``workers=1`` in a closed loop: one run at a time,
the next starting when the previous one has written its CSVs, until
``--seconds`` have passed.  Set-up time is measured separately in fresh
processes.  Every run's outputs are checked (goldens at the default seed,
invariants at every seed, byte-identical repeats); one experiment cell is
one operation.  The first run warms up caches and lazy imports: it is
checked but not timed.  With ``--trace 1`` untraced and traced runs alternate
after it and the per-layer metrics come from the traced ones.

Times are reported at a reference speed: a fixed calibration kernel is timed
right before and after every run and every set-up process, and each wall
time is scaled by ``REF_KERNEL_S / kernel time`` (see ``speed.py``).  The
process pins itself to one CPU so that the kernel and the run share a core.

Human-readable tables go to stdout; the last stdout line is the JSON result.
All files go under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import compare_goldens, record_goldens
from envinfo import environment
from speed import kernel_s, timed, to_ref
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"

# float64 array passes (reads + writes) per cell of one fdm_step, counted
# from its numpy expressions: ~39 passes x 8 bytes.  Computed, not measured.
FDM_BYTES_PER_CELL = 314

SETUP_SAMPLES = 4

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import nnlif.cli
t1 = time.perf_counter()
from nnlif.experiments import load_config
load_config(sys.argv[1])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing program or broken set-up)."""


def _import_program():
    if not (SRC / "nnlif" / "__init__.py").is_file():
        raise BenchError(f"program source not found: {SRC / 'nnlif'} does not exist")
    sys.path.insert(0, str(SRC))
    import nnlif
    from nnlif import experiments

    if Path(nnlif.__file__).resolve().parent != (SRC / "nnlif").resolve():
        raise BenchError(f"imported nnlif from {nnlif.__file__}, not from {SRC}")
    return experiments


def _benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


# ---------------------------------------------------------------------------
# set-up: fresh-process import + load_config, as every CLI invocation pays


def measure_setup(cfg_path: Path, samples: int):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = []
    for _ in range(samples):
        proc, _, kernel = timed(
            subprocess.run,
            [sys.executable, "-c", _SETUP_CHILD, str(cfg_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["kernel_s"] = kernel
        sample["ref_s"] = to_ref(sample["import_s"] + sample["load_s"], kernel)
        out.append(sample)
    return out


def pin_to_one_cpu() -> int:
    """Keep this process, and the set-up processes it starts, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ---------------------------------------------------------------------------
# checking one run's outputs


def _digests(out_dir: Path, layout: dict) -> dict:
    digests = {}
    for name in layout:
        path = out_dir / name
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return digests


class RunChecker:
    """Checks every run: the first run fully (goldens at the default seed,
    invariants always), later runs by requiring byte-identical outputs."""

    def __init__(self, workload, raw, goldens, n_cells):
        self.workload = workload
        self.raw = raw
        self.layout = workload.layout(raw)
        self.goldens = goldens
        self.n_cells = n_cells
        self.reference = None
        self.verdict = None
        self.golden_status = "not compared (seed is not the default)"
        self.nondeterministic = False

    def full_check(self, out_dir: Path) -> dict:
        failed = dict(self.workload.invariants(self.raw, str(out_dir)))
        if self.goldens is not None:
            gold_failed, identical = compare_goldens(
                str(out_dir), self.layout, self.goldens, self.n_cells)
            for cell, reason in gold_failed.items():
                failed.setdefault(cell, "golden: " + reason)
            if gold_failed:
                self.golden_status = "mismatch"
            else:
                self.golden_status = "bit-identical" if identical else "within tolerance"
        return failed

    def check(self, out_dir: Path) -> dict:
        digests = _digests(out_dir, self.layout)
        if self.reference is None:
            self.reference = digests
            self.verdict = self.full_check(out_dir)
            return dict(self.verdict)
        if digests == self.reference:
            return dict(self.verdict)
        self.nondeterministic = True
        failed = self.full_check(out_dir)
        for name, owner in self.layout.items():
            if digests[name] != self.reference[name]:
                cells = range(self.n_cells) if owner == "rows" else [owner]
                for c in cells:
                    failed.setdefault(c, f"{name} differs from the first run")
        return failed


# ---------------------------------------------------------------------------
# the closed loop


def run_loop(experiments, workload, raw, cfg_path, seconds, trace, goldens):
    cells = workload.cells(raw)
    checker = RunChecker(workload, raw, goldens, len(cells))
    work_dir = cfg_path.parent / "run"
    tracer = Tracer() if trace else None
    times = {False: [], True: []}
    attempted = failed_count = 0
    failures = {}
    runs = 0
    start = time.perf_counter()
    while True:
        warmup = runs == 0
        traced = bool(trace) and runs % 2 == 0 and not warmup
        shutil.rmtree(work_dir, ignore_errors=True)
        gc.collect()
        error = None
        try:
            cfg = experiments.load_config(str(cfg_path))
            if traced:
                tracer.install()
            if traced:
                _, wall, kernel = timed(tracer.call_run, runs, experiments.run_experiment,
                                        cfg, str(work_dir), 1)
            else:
                _, wall, kernel = timed(experiments.run_experiment, cfg, str(work_dir),
                                        workers=1)
        except Exception as exc:  # a failed run is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            if not failures:
                traceback.print_exc()
        finally:
            if traced:
                tracer.uninstall()
        if error is None:
            if not warmup:
                times[traced].append({"wall_s": wall, "kernel_s": kernel,
                                      "ref_s": to_ref(wall, kernel)})
            failed = checker.check(work_dir)
        else:
            failed = {c: error for c in range(len(cells))}
        attempted += len(cells)
        failed_count += len(failed)
        for c, reason in failed.items():
            failures.setdefault(cells[c], reason)
        runs += 1
        if time.perf_counter() - start >= seconds and runs >= (3 if trace else 2):
            break
    return {
        "times": times[False],
        "traced_times": times[True],
        "attempted": attempted,
        "failed": failed_count,
        "failures": failures,
        "golden": checker.golden_status,
        "nondeterministic": checker.nondeterministic,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# metrics


def _col(samples, key):
    return [s[key] for s in samples]


def end_to_end_metrics(loop, setup):
    return {
        "run_s": _median(_col(loop["times"], "ref_s")),
        "setup_s": _median(_col(setup, "ref_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(loop, setup):
    tracer = loop["tracer"]
    per_run, counts_by_run = tracer.per_run()
    run_ids = sorted(per_run)
    metrics = {}

    def med(fn):
        return _median([fn(r) for r in run_ids]) if run_ids else 0.0

    for label in tracer.labels:
        metrics[f"{label}.calls"] = med(lambda r: per_run[r][label][0])
        metrics[f"{label}.incl_s"] = med(lambda r: per_run[r][label][1])
        metrics[f"{label}.self_s"] = med(lambda r: per_run[r][label][2])

    def per_call_us(label):
        calls = metrics[f"{label}.calls"]
        return metrics[f"{label}.incl_s"] / calls * 1e6 if calls else 0.0

    def count(key):
        return med(lambda r: counts_by_run.get(r, {}).get(key, 0.0))

    metrics["onepop.step_us"] = per_call_us("onepop.step")
    metrics["twopop.step_us"] = per_call_us("twopop.step_twopop")
    metrics["fdm.fdm_step_us"] = per_call_us("fdm.fdm_step")
    cells_stepped = count("fdm.cells_stepped")
    fdm_s = metrics["fdm.fdm_step.incl_s"]
    fdm_calls = metrics["fdm.fdm_step.calls"]
    metrics["fdm.cell_updates_per_s"] = cells_stepped / fdm_s if fdm_s else 0.0
    metrics["fdm.bytes_per_step"] = (
        FDM_BYTES_PER_CELL * cells_stepped / fdm_calls if fdm_calls else 0.0)
    metrics["records.rows_written"] = count("records.rows_written")
    metrics["records.bytes_written"] = count("records.bytes_written")
    metrics["setup.import_s"] = _median(_col(setup, "import_s"))
    metrics["run.wall_s"] = _median(_col(loop["times"], "wall_s"))
    metrics["calib.kernel_s"] = _median(_col(loop["times"] + loop["traced_times"], "kernel_s"))
    metrics["trace.spans_per_run"] = med(
        lambda r: sum(per_run[r][label][0] for label in tracer.labels))
    untraced = _median(_col(loop["times"], "ref_s"))
    metrics["trace.overhead_ratio"] = _median(_col(loop["traced_times"], "ref_s")) / untraced
    return metrics


# ---------------------------------------------------------------------------
# output


def _print_table(title, rows, header):
    print(f"\n{title}")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_report(args, env, loop, e2e, layers, setup):
    print(f"nnlif benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("environment: " + json.dumps(env, sort_keys=True))
    ref = _col(loop["times"], "ref_s")
    ratio = loop["failed"] / loop["attempted"]
    rows = [
        ["run_s", _fmt(e2e["run_s"]), "s",
         f"median of {len(ref)} runs at reference speed (min {_fmt(min(ref, default=float('nan')))}, "
         f"max {_fmt(max(ref, default=float('nan')))}; wall median "
         f"{_fmt(_median(_col(loop['times'], 'wall_s')))} s, kernel median "
         f"{_fmt(_median(_col(loop['times'], 'kernel_s')))} s)"],
        ["setup_s", _fmt(e2e["setup_s"]), "s",
         f"median of {len(setup)} fresh processes at reference speed (wall median "
         f"{_fmt(_median([s['import_s'] + s['load_s'] for s in setup]))} s)"],
        ["peak_rss_mb", _fmt(e2e["peak_rss_mb"]), "MB", "peak resident memory of the run process"
         + (" (with trace buffers)" if args.trace else "")],
        ["failed_ratio", _fmt(ratio), "ratio",
         f"{loop['failed']} failed of {loop['attempted']} attempted cells"],
    ]
    _print_table("end to end", rows, ["metric", "value", "unit", "note"])
    print(f"  outputs vs goldens: {loop['golden']}; repeated runs byte-identical: "
          f"{not loop['nondeterministic']}")
    for cell, reason in sorted(loop["failures"].items()):
        print(f"  FAILED {cell}: {reason}")
    if layers is None:
        return
    tracer = loop["tracer"]
    total = _median(_col(loop["traced_times"], "wall_s"))
    rows = []
    for label in tracer.labels:
        calls = layers[f"{label}.calls"]
        if not calls:
            continue
        own = layers[f"{label}.self_s"]
        rows.append([label, _fmt(calls), _fmt(layers[f"{label}.incl_s"]), _fmt(own),
                     f"{100.0 * own / total:.1f}%"])
    rows.sort(key=lambda r: -float(r[3]))
    _print_table(f"per layer (median of {len(loop['traced_times'])} traced runs, per run)",
                 rows, ["span", "calls", "incl_s", "self_s", "self share"])
    extra = [[k, _fmt(layers[k]) + (" (computed)" if k == "fdm.bytes_per_step" else "")]
             for k in ("onepop.step_us", "twopop.step_us", "fdm.fdm_step_us",
                       "fdm.cell_updates_per_s", "fdm.bytes_per_step", "records.rows_written",
                       "records.bytes_written", "setup.import_s", "run.wall_s",
                       "calib.kernel_s", "trace.spans_per_run",
                       "trace.overhead_ratio")]
    _print_table("derived", extra, ["metric", "value"])
    if tracer.missing:
        print("  not traced (not found in this version): " + ", ".join(tracer.missing))


def _selected(spec_metrics, values):
    out = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} is not produced by the benchmark")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------


def _goldens_path(name):
    return BENCH_DIR / "goldens" / f"{name}.json"


def write_goldens(experiments):
    for name, workload in WORKLOADS.items():
        entry = {}
        for size, smoke in (("full", False), ("smoke", True)):
            raw = workload.config(DEFAULT_SEED, smoke=smoke)
            out_dir = OUT / "goldens" / name / size
            shutil.rmtree(out_dir, ignore_errors=True)
            experiments.run_experiment(experiments.parse_config(raw), str(out_dir), workers=1)
            entry[size] = record_goldens(str(out_dir), workload.layout(raw))
        path = _goldens_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up sample")
    parser.add_argument("--write-goldens", action="store_true",
                        help="re-record the goldens of every workload at the default seed")
    args = parser.parse_args(argv)

    try:
        spec = _benchmark_spec()
        experiments = _import_program()
        if args.write_goldens:
            write_goldens(experiments)
            return 0
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        raw = workload.config(args.seed, smoke=args.smoke)
        tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        cfg_path = OUT / tag / "config.json"
        cfg_path.parent.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")

        goldens = None
        if args.seed == DEFAULT_SEED:
            gpath = _goldens_path(args.workload)
            goldens = json.loads(gpath.read_text(encoding="utf-8"))["smoke" if args.smoke else "full"]

        env = environment(ROOT)
        env["pinned_cpu"] = pin_to_one_cpu()
        kernel_s()  # warm the calibration kernel before its first timed pass
        setup = measure_setup(cfg_path, 1 if args.smoke else SETUP_SAMPLES)
        loop = run_loop(experiments, workload, raw, cfg_path, args.seconds, args.trace, goldens)
        e2e = end_to_end_metrics(loop, setup)
        layers = per_layer_metrics(loop, setup) if args.trace else None
        if args.trace:
            spans = OUT / "trace" / f"{tag}.npz"
            n_spans = loop["tracer"].dump(str(spans))
            print(f"wrote {n_spans} spans to {spans.relative_to(ROOT)}")
        metrics = _selected(spec["per_layer"] if args.trace else spec["end_to_end"],
                            {**e2e, **(layers or {})})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print_report(args, env, loop, e2e, layers, setup)
    result = {
        "correct": loop["failed"] == 0 and not loop["nondeterministic"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": metrics,
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": env, "golden": loop["golden"],
              "run_samples": loop["times"], "traced_run_samples": loop["traced_times"],
              "setup_samples": setup, "failures": loop["failures"],
              "all_metrics": {**e2e, **(layers or {})}}
    results = OUT / "results" / f"{tag}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
