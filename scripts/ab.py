"""Compare the benchmark of two checkouts on one workload, in alternating
pairs of runs.

    python scripts/ab.py --parent TREE --change TREE --workload regimes [--seeds 0 [2 ...]] [--pairs 10]
                         [--seconds 8]

Each ``TREE`` is the root of a checkout (it holds ``perfbench/run.py`` and
``src/nnlif``).  For each seed S of ``--seeds`` in turn, pair p runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each checkout, from that checkout's root: the parent first when p is even,
the change first when p is odd.  For each seed and each end-to-end metric
of the parent's ``BENCHMARK.json`` the script prints each side's median
and quartiles (``statistics.quantiles``, n = 4), in how many pairs the
change was better, and whether a claimed gain holds: the change better in
at least 9 of every 10 pairs, and its median better than the parent's by
more than the parent's interquartile range.  It also prints each side's
failed operations and whether every run was correct, and at the end one
verdict line per seed and metric.  The script only reads the checkouts;
each run writes its own ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run(tree: Path, args, seed: int) -> dict:
    """The JSON result line of one benchmark run in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of ``values``; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def claim_holds(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[int, bool]:
    """The pairs in which the change is better, and whether the gain holds:
    better in at least 9 of every 10 pairs, with a median gap larger than
    the parent's interquartile range."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (median - statistics.median(change))
    return wins, 10 * wins >= 9 * len(parent) and gap > q3 - q1


def compare(trees: dict, spec: dict, args, seed: int) -> dict:
    """Run ``args.pairs`` alternating pairs at ``seed``, print their report,
    and return whether a claimed gain holds, per end-to-end metric."""
    results = {side: [] for side in trees}
    for p in range(args.pairs):
        for side in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
            results[side].append(run(trees[side], args, seed))
        line = " ".join(f"{side} {m['name']}={results[side][-1]['metrics'][m['name']]['value']:.4g}"
                        for side in trees for m in spec["end_to_end"])
        print(f"seed {seed} pair {p}: {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {seed}, {args.pairs} pairs of {args.seconds:g}-s runs")
    verdicts = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in trees}
        print(f"{name} ({metric['unit']}, {metric['better']} is better)")
        for side in trees:
            q1, median, q3 = quartiles(values[side])
            print(f"  {side}: median {median:.4g} [quartiles {q1:.4g}-{q3:.4g}]")
        wins, holds = claim_holds(values["parent"], values["change"], lower)
        gap = statistics.median(values["change"]) / statistics.median(values["parent"]) - 1.0
        print(f"  change better in {wins}/{args.pairs} pairs, median {100.0 * gap:+.1f}%; "
              f"gain holds (>= 9/10 pairs, median gap > parent IQR): {holds}")
        verdicts[name] = holds
    for side in trees:
        failed = [r["failed"] for r in results[side]]
        print(f"{side}: failed {sum(failed)} of {sum(r['attempted'] for r in results[side])} operations, "
              f"every run correct: {all(r['correct'] for r in results[side])}")
    return verdicts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", "--seed", type=int, nargs="+", default=[0], help="seeds, one A/B each")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0, help="--seconds of each run")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdicts = {seed: compare(trees, spec, args, seed) for seed in args.seeds}
    for seed, holds in verdicts.items():
        print(f"verdict, seed {seed}: " + ", ".join(f"{name} gain holds: {held}" for name, held in holds.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
