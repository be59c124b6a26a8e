"""Time the steps of one or more source trees: the two-population cost per
cell-step of a lockstep batch and per step of a lone cell, and the cost per
step of a lone one- and two-population finite-volume (FV) run.

    python scripts/sweep_cost.py --src TREE [--src TREE ...] [--processes 8]

Each ``--src`` is the root of a checkout (it holds ``src/nnlif``).  The
script starts ``--processes`` fresh processes per tree, pinned to one core
(``--cpu``), and alternates the trees between rounds: round r runs them in
order when r is even and in reverse order when r is odd.  Each process
loads the model of ``configs/twopop_regimes.json`` (from this script's
checkout, so every tree runs the same model) and prints these figures:

* the loop time per cell-step of a lockstep batch of K cells, for each K
  of ``--cells`` (b_e_to_e evenly spaced over [3.5, 3.82], to
  ``--batch-t``), best of ``--repeats`` batches;
* the loop time per step of a lone cell at b_e_to_e = 3.82 (to
  ``--lone-t``), best of ``--lone-repeats`` runs;
* the loop time per step of a lone one-population FV run of the ``oracle``
  benchmark workload's model (a0 = 1, a1 = 0.1, b = 0, from a Gaussian at
  v0 = -1 with variance 0.5, v_min = -6, the domain of the config) at
  h = 1/160 (1,280 cells) and h = 1/1024 (8,192 cells): a fixed number of
  steps (``FV_RUNS``) at the grid's reference timestep, best of
  ``FV_REPEATS`` runs;
* the same figures for a lone two-population FV run of the model and
  initial densities of ``configs/convergence_time_twopop.json``, whose
  reference runs take this path, on the same grids.

Loop time is the records' ``wall_time``, the stepping loop alone, so
neither assembly nor the factor's build is counted.  It is given at the
benchmark's reference speed: each run is timed between two passes of the
calibration kernel of ``perfbench/speed.py`` and scaled by
``REF_KERNEL_S / kernel time``, which takes out most of the drift of a
core shared with other tenants.  A tree whose
``solve_twopop`` runs no lockstep batch (a single ``params`` only) reports
only the lone figure.  For each figure the script prints each tree's
median and range over its processes and, for every tree after the first,
in how many rounds it was cheaper than the first tree.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "twopop_regimes.json"
FV_TWOPOP_CONFIG = ROOT / "configs" / "convergence_time_twopop.json"
B_RANGE = (3.5, 3.82)
LONE_B = 3.82
# (cells per unit voltage, steps) of each lone FV run, and runs per process
FV_RUNS = ((160, 10_000), (1024, 2_000))
FV_REPEATS = 5


def _per_step(run, speed) -> float:
    """Loop time per cell-step of the runs that ``run`` returns, in us at
    the reference speed of the kernel module ``speed``."""
    records, _, kernel = speed.timed(run)
    records = records if isinstance(records, list) else [records]
    if any(rec.status != "completed" for rec in records):
        raise SystemExit("a timed run did not complete")
    steps = sum(rec.times.size - 1 for rec in records)
    return 1e6 * speed.to_ref(sum(rec.wall_time for rec in records), kernel) / steps


def measure(args) -> dict:
    """The figures of one process, in the tree at ``args.worker``."""
    os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(Path(args.worker) / "src"), str(ROOT / "perfbench")]
    from dataclasses import replace

    import numpy as np
    import speed

    from nnlif import experiments
    from nnlif.assembly import normalize_gaussian
    from nnlif.fdm import FdmGrid, fdm_solve, reference_timestep
    from nnlif.onepop import OnePopParams
    from nnlif.twopop import solve_twopop

    cfg = experiments.load_config(str(CONFIG))
    m, dt = cfg.numerics["m"], cfg.numerics["dt"]
    mats = experiments._matrices(cfg, [m])[m]
    lone = replace(cfg.params, b_e_to_e=LONE_B)
    # an untimed run and kernel pass first: the first of each in a process
    # pays for lazy imports and cold caches
    solve_twopop(*cfg.ic, lone, mats, dt, args.batch_t)
    speed.kernel_s()
    figures = {"lone": min(_per_step(lambda: solve_twopop(*cfg.ic, lone, mats, dt, args.lone_t), speed)
                           for _ in range(args.lone_repeats))}
    # a tree whose solve_twopop takes one cell only has no lockstep batch
    batched = "list" in str(inspect.signature(solve_twopop).parameters["params"].annotation)
    for k in args.cells:
        cells = [replace(cfg.params, b_e_to_e=b) for b in np.linspace(*B_RANGE, k)] if k > 1 else [lone]
        figures[f"K={k}"] = min(_per_step(lambda: solve_twopop(*cfg.ic, cells, mats, dt, args.batch_t), speed)
                                for _ in range(args.repeats)) if batched else None
    ladder = experiments.load_config(str(FV_TWOPOP_CONFIG))
    for population, p0, params in (("one", normalize_gaussian(-1.0, 0.5, cfg.domain), OnePopParams(a0=1.0, a1=0.1)),
                                   ("two", ladder.ic, ladder.params)):
        for cells_per_unit, n_steps in FV_RUNS:
            grid = FdmGrid.build(cfg.domain, v_min=-6.0, h=1.0 / cells_per_unit)
            fv_dt = reference_timestep(grid, params, 1.0)
            figures[_fv_key(population, cells_per_unit)] = min(
                _per_step(lambda: fdm_solve(p0, params, grid, fv_dt, n_steps * fv_dt), speed)
                for _ in range(FV_REPEATS))
    return figures


def _fv_key(population: str, cells_per_unit: int) -> str:
    return f"{population}-population FV run, h=1/{cells_per_unit}"


def _label(key: str) -> str:
    if key == "lone":
        return "lone b = 3.82, us per step"
    if "FV" in key:
        return f"lone {key}, us per step"
    return f"{key}, us per cell-step"


def _spawn(tree: str, args) -> dict:
    cmd = [sys.executable, __file__, "--worker", tree, "--cpu", str(args.cpu), "--cells", *map(str, args.cells),
           "--repeats", str(args.repeats), "--batch-t", str(args.batch_t), "--lone-t", str(args.lone_t),
           "--lone-repeats", str(args.lone_repeats)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], help="root of a source tree (repeatable)")
    parser.add_argument("--processes", type=int, default=8, help="processes per tree")
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)), help="core to pin to")
    parser.add_argument("--cells", type=int, nargs="+", default=[1, 3, 11, 33], help="batch sizes K")
    parser.add_argument("--repeats", type=int, default=2, help="batches per K in a process (best is kept)")
    parser.add_argument("--batch-t", type=float, default=0.2, help="t_final of a batch")
    parser.add_argument("--lone-t", type=float, default=1.0, help="t_final of a lone run")
    parser.add_argument("--lone-repeats", type=int, default=5, help="lone runs in a process (best is kept)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args)))
        return 0
    if not args.src:
        parser.error("give at least one --src")
    trees = [str(Path(src).resolve()) for src in args.src]
    runs = {tree: [] for tree in trees}
    for r in range(args.processes):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            runs[tree].append(_spawn(tree, args))
            print(f"round {r}: {tree}: {runs[tree][-1]}", file=sys.stderr)
    first = trees[0]
    fv_keys = [_fv_key(population, n) for population in ("one", "two") for n, _ in FV_RUNS]
    for key in ["lone", *(f"K={k}" for k in args.cells), *fv_keys]:
        print(f"{_label(key)} (reference speed)")
        for tree in trees:
            values = [run[key] for run in runs[tree]]
            if None in values:
                print(f"  {tree}: no lockstep batch")
                continue
            line = f"  {tree}: median {statistics.median(values):.1f} (min {min(values):.1f}, max {max(values):.1f})"
            if tree != first and None not in (base := [run[key] for run in runs[first]]):
                wins = sum(v < b for v, b in zip(values, base))
                line += f", cheaper than the first tree in {wins}/{len(values)} rounds"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
