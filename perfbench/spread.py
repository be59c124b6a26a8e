"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, as the acceptance check computes them.

    python3 perfbench/spread.py --workloads grid oracle --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out .bench_out/spread.json
    python3 perfbench/spread.py --seeds 0 --seconds 5      # every workload once, at the goldens

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; it is compared with a
third of the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the raw results and the summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, raw = {}, {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.4g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} failed_ratio="
                  f"{result['failed'] / result['attempted']:g} "
                  f"({result['failed']}/{result['attempted']}) {values} wall={wall:.1f}s",
                  flush=True)
            ok = ok and result["correct"]
        raw[workload] = results
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry = {"median": statistics.median(values), "min": min(values), "max": max(values),
                     "n": len(values), "bound": bound}
            if len(values) >= 2:
                entry["spread"] = spread(values)
                entry["within_third_of_bound"] = entry["spread"] < bound / 3
            summary[workload][name] = entry
    print("\nworkload      metric        median      spread   bound/3")
    for workload, metrics in summary.items():
        for name, e in metrics.items():
            print(f"{workload:<13} {name:<13} {e['median']:<11.5g} "
                  f"{e.get('spread', float('nan')):<8.4f} {e['bound'] / 3:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds,
                                              "summary": summary, "results": raw},
                                             indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
