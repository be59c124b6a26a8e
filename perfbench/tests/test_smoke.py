"""Smoke tests for the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the layer each workload was chosen to exercise
DOMINANT_CALLS = {
    "regimes": "twopop.step_twopop.calls",
    "oracle": "fdm.fdm_step.calls",
    "grid": "assembly.assemble.calls",
    "onepop-long": "onepop.step.calls",
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_shape(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_goldens(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0.5",
                  "--trace", "0", "--smoke")
    result = _result(proc)
    _check_shape(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "outputs vs goldens: bit-identical" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_at_another_seed(workload):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "0.5",
                            "--trace", "1", "--smoke"))
    _check_shape(result, SPEC["per_layer"])
    assert result["metrics"][DOMINANT_CALLS[workload]]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_golden_comparison_flags_a_changed_cell(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from checks import compare_goldens
        from nnlif.experiments import parse_config, run_experiment
        from workloads import WORKLOADS as DEFS
    finally:
        del sys.path[:2]

    workload = DEFS["oracle"]
    raw = workload.config(0, smoke=True)
    run_experiment(parse_config(raw), str(tmp_path), workers=1)
    layout = workload.layout(raw)
    goldens = json.loads((BENCH / "goldens" / "oracle.json").read_text())["smoke"]
    n_cells = len(workload.cells(raw))
    assert compare_goldens(str(tmp_path), layout, goldens, n_cells) == ({}, True)
    assert workload.invariants(raw, str(tmp_path)) == {}

    path = tmp_path / "convergence_time.csv"
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    row = lines[header + 3].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-12))  # l2_error of cell 2, within tolerance
    lines[header + 3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert compare_goldens(str(tmp_path), layout, goldens, n_cells) == ({}, False)

    row[1] = repr(float(row[1]) * 1.01)
    lines[header + 3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    failed, identical = compare_goldens(str(tmp_path), layout, goldens, n_cells)
    assert list(failed) == [2] and not identical
