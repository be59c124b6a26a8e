"""Compare the output files of two source trees on their shipped configs.

    python scripts/same_outputs.py --src PARENT --src CHANGE [--quick] [--rtol 1e-9]

Each ``--src`` is the root of a checkout (it holds ``src/nnlif`` and
``configs/``).  Every ``configs/*.json`` of a tree runs through
``python -m nnlif.cli <kind> --config F --out D --workers 1`` in a fresh
process, with that tree's ``src`` first on the path.  Then each output file
of CHANGE is compared with its namesake from PARENT:

* byte-identical files pass;
* otherwise the file must be a table (``nnlif.records``): its provenance
  keys, header row and row count must be equal, and so must every cell of
  a non-numeric column (labels, statuses), every non-numeric provenance
  value and every non-finite cell.  Each numeric column, and each numeric
  provenance value (``# fit_slope=...``) as a column of one cell, moves by
  max |a - b| over the column's largest |b|, with b the parent's value; it
  passes at most ``--rtol``.  The ``wall_time_s`` columns, measured loop
  times, are skipped.

The script prints one verdict per file and one overall line, and exits 1
when a config's run fails in either tree, a file is in one tree only, or
a file differs past the rules above.  With the defaults this takes about
three minutes per tree; the finite-volume (FV) references dominate.

``--quick`` runs every config with its FV spacings (``reference.h``,
``numerics.fdm_h`` and ``numerics.h_values``) 16 times coarser, so the two
trees run in seconds.  Every spectral run keeps its M, dt and factor
decision, so the spectral arithmetic is still compared in full; left out
are the FV references and FV runs at their shipped spacings, and so every
error column measured against them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the measured loop times, the one column a repeated run may change
TIMING_COLUMN = "wall_time_s"
# how much coarser --quick makes every FV spacing
QUICK_FACTOR = 16


def quick(raw: dict) -> dict:
    """``raw`` with each FV spacing ``QUICK_FACTOR`` times coarser."""
    raw = json.loads(json.dumps(raw))
    numerics, reference = raw.get("numerics", {}), raw.get("reference") or {}
    if "h" in reference:
        reference["h"] *= QUICK_FACTOR
    if "fdm_h" in numerics:
        numerics["fdm_h"] *= QUICK_FACTOR
    if "h_values" in numerics:
        numerics["h_values"] = [h * QUICK_FACTOR for h in numerics["h_values"]]
    return raw


def run_config(tree: Path, config: Path, out: Path) -> tuple[int, str, float]:
    """(exit code, stderr, wall seconds) of one config's CLI run in a fresh
    process on the source of ``tree``, writing to ``out``."""
    kind = json.loads(config.read_text(encoding="utf-8"))["kind"]
    cmd = [sys.executable, "-m", "nnlif.cli", kind, "--config", str(config), "--out", str(out), "--workers", "1"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr, time.perf_counter() - t0


def read_table(path: Path) -> tuple[list[str], list[str], list[list[str]]]:
    """(provenance lines, header row, data rows) of a table file, as text,
    so that labels and non-finite cells compare as written."""
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [line.split(",") for line in lines if line and not line.startswith("# ")]
    return [line for line in lines if line.startswith("# ")], body[0] if body else [], body[1:]


def _floats(cells: list[str]) -> list[float] | None:
    try:
        return [float(cell) for cell in cells]
    except ValueError:
        return None


def column_change(parent: list[str], change: list[str]) -> float | None:
    """max |a - b| over max |b| of one column, b the parent's cells; None
    when the cells are not all numbers, or a non-finite cell moved: such
    a column must be equal as text."""
    b, a = _floats(parent), _floats(change)
    if a is None or b is None or any(
            not (math.isfinite(x) and math.isfinite(y)) and str(x) != str(y) for x, y in zip(b, a)):
        return None
    pairs = [(x, y) for x, y in zip(b, a) if math.isfinite(x)]
    gap = max((abs(y - x) for x, y in pairs), default=0.0)
    scale = max((abs(x) for x, _ in pairs), default=0.0)
    return gap / scale if scale > 0 else (0.0 if gap == 0 else math.inf)


def compare_file(parent: Path, change: Path, rtol: float) -> tuple[bool, str, float]:
    """(passes, verdict, largest column change) of one output file."""
    if parent.read_bytes() == change.read_bytes():
        return True, "byte-identical", 0.0
    try:
        (meta_b, head_b, rows_b), (meta_a, head_a, rows_a) = read_table(parent), read_table(change)
    except UnicodeDecodeError:
        return False, "differs (not a table)", math.inf
    if [line.partition("=")[0] for line in meta_b] != [line.partition("=")[0] for line in meta_a] \
            or head_b != head_a or len(rows_b) != len(rows_a) or any(len(row) != len(head_b) for row in rows_b + rows_a):
        return False, "provenance keys, header or shape differ", math.inf
    # each provenance value is a column of one cell
    columns = [(line.partition("=")[0], [line.partition("=")[2]], [other.partition("=")[2]])
               for line, other in zip(meta_b, meta_a)]
    columns += [(name, [row[j] for row in rows_b], [row[j] for row in rows_a])
                for j, name in enumerate(head_b) if name != TIMING_COLUMN]
    moved = {}
    for name, cells_b, cells_a in columns:
        if cells_b != cells_a:
            moved[name] = column_change(cells_b, cells_a)
            if moved[name] is None:
                return False, f"{name} differs as text", math.inf
    if not moved:
        return True, f"identical but for {TIMING_COLUMN}", 0.0
    worst = max(moved.values())
    listing = ", ".join(f"{name} {value:.2g}" for name, value in moved.items())
    return worst <= rtol, f"{'within' if worst <= rtol else 'PAST'} rtol {rtol:g}: {listing}", worst


def compare_dirs(parent: Path, change: Path, rtol: float) -> list[tuple[str, bool, str, float]]:
    """(file name, passes, verdict, largest column change) of each file of
    one config's two output directories."""
    names = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    return [(name, *(compare_file(parent / name, change / name, rtol)
                     if (parent / name).is_file() and (change / name).is_file()
                     else (False, "in one tree only", math.inf))) for name in names]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[], help="root of a source tree: the parent, then the change")
    parser.add_argument("--quick", action="store_true", help="coarsen the FV spacings 16 times (see the module doc)")
    parser.add_argument("--rtol", type=float, default=1e-9, help="largest numeric column change that passes")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src twice: the parent, then the change")
    trees = [Path(src).resolve() for src in args.src]
    configs = [sorted(p.name for p in (tree / "configs").glob("*.json")) for tree in trees]
    ok = configs[0] == configs[1]
    if not ok:
        print(f"config sets differ: {sorted(set(configs[0]) ^ set(configs[1]))}")
    results = []
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(set(configs[0]) & set(configs[1])):
            outs, codes = [], []
            for i, tree in enumerate(trees):
                config = tree / "configs" / name
                if args.quick:
                    config = Path(work, f"{i}-{name}")
                    config.write_text(json.dumps(quick(json.loads(
                        (tree / "configs" / name).read_text(encoding="utf-8")))), encoding="utf-8")
                outs.append(Path(work, f"{i}-{Path(name).stem}"))
                code, err, wall = run_config(tree, config, outs[-1])
                codes.append(code)
                print(f"{name} in {tree}: exit {code}, {wall:.1f} s", file=sys.stderr)
                if code != 0:
                    print(f"{Path(name).stem}: the run in {tree} exited {code}: {err.strip().splitlines()[-1:]}")
            if any(codes):
                ok = False
                continue
            for file, *verdict in compare_dirs(*outs, args.rtol):
                results.append((f"{Path(name).stem}/{file}", *verdict))
                print(f"{results[-1][0]}: {verdict[1]}")
    passed = sum(r[1] for r in results)
    identical = sum(r[2] == "byte-identical" for r in results)
    worst = max(results, key=lambda r: r[3], default=("-", True, "", 0.0))
    ok = ok and passed == len(results)
    print(f"overall: {len(results)} files, {identical} byte-identical, {passed - identical} more within rtol "
          f"{args.rtol:g}, {len(results) - passed} past it; largest column change {worst[3]:.2g} ({worst[0]}); "
          f"{'same outputs' if ok else 'OUTPUTS DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
