"""Output checks: CSV reading, golden recording and golden comparison.

A golden holds, for every output file of a workload at the default seed, its
label header lines (``status``, ``regime``) and every column: string columns
in full, numeric columns as the SHA-256 of their float64 bytes plus count,
sum, min, max and a strided sample (all values for tables of at most
``MAX_SAMPLES`` rows).  Equal hashes mean bit-identical outputs; otherwise
the sample and the aggregates must agree within ``RTOL`` of the column's
scale, and the run is reported as within tolerance.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

LABEL_KEYS = ("status", "regime")
MAX_SAMPLES = 200
RTOL = 1e-8


def read_csv(path: str):
    """(meta, columns) of a table written by ``nnlif.records.emit_table``;
    numeric columns become float arrays, others lists of strings."""
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    columns = {}
    for j, name in enumerate(header or []):
        values = [row[j] for row in rows]
        try:
            columns[name] = np.array(values, dtype=float)
        except ValueError:
            columns[name] = values
    return meta, columns


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def _column_golden(values):
    if isinstance(values, list):
        return {"values": values}
    n = int(values.size)
    stride = max(1, math.ceil(n / MAX_SAMPLES))
    finite = values[np.isfinite(values)]
    return {
        "sha256": _digest(values),
        "count": n,
        "sum": float(np.sum(finite)),
        "abs_sum": float(np.sum(np.abs(finite))),
        "min": float(np.min(finite)) if finite.size else float("nan"),
        "max": float(np.max(finite)) if finite.size else float("nan"),
        "stride": stride,
        "sample": values[::stride].tolist(),
        "last": float(values[-1]) if n else float("nan"),
    }


def record_goldens(out_dir: str, layout: dict) -> dict:
    files = {}
    for name in layout:
        meta, cols = read_csv(os.path.join(out_dir, name))
        files[name] = {
            "labels": {k: meta[k] for k in LABEL_KEYS if k in meta},
            "columns": {c: _column_golden(v) for c, v in cols.items()},
        }
    return files


def _close(a, b, scale) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    same_nan = np.isnan(a) == np.isnan(b)
    diff = np.abs(np.where(np.isnan(a), 0.0, a) - np.where(np.isnan(b), 0.0, b))
    return bool(np.all(same_nan) and np.all(diff <= RTOL * scale))


def _numeric_row_mismatches(got: np.ndarray, gold: dict):
    """Rows (of a fully sampled column) outside tolerance; None when the row
    count differs."""
    ref = np.asarray(gold["sample"], dtype=float)
    if got.size != ref.size:
        return None
    scale = max(float(np.max(np.abs(ref[np.isfinite(ref)]), initial=0.0)), 1e-300)
    return [i for i in range(ref.size) if not _close(got[i], ref[i], scale)]


def _numeric_column_ok(got: np.ndarray, gold: dict) -> bool:
    if got.size != gold["count"]:
        return False
    ref = np.asarray(gold["sample"], dtype=float)
    scale = max(abs(gold["min"]), abs(gold["max"]), 1e-300)
    finite = got[np.isfinite(got)]
    return (
        _close(got[:: gold["stride"]], ref, scale)
        and _close(got[-1], gold["last"], scale)
        and _close(np.sum(finite), gold["sum"], max(gold["abs_sum"], 1e-300))
        and _close(np.min(finite, initial=np.inf), gold["min"], scale)
        and _close(np.max(finite, initial=-np.inf), gold["max"], scale)
    )


def compare_goldens(out_dir: str, layout: dict, goldens: dict, n_cells: int):
    """Compare a run's outputs with its goldens.

    Returns (failed, identical): ``failed`` maps cell index to a reason,
    ``identical`` is True when every compared column is bit-identical.
    Files the goldens do not list (for example a manifest) are ignored.
    """
    failed, identical = {}, True

    def fail(owner, rows, reason):
        cells = range(n_cells) if owner == "rows" and rows is None else (
            rows if owner == "rows" else [owner])
        for c in cells:
            failed.setdefault(c, reason)

    for name, owner in layout.items():
        gold = goldens.get(name)
        path = os.path.join(out_dir, name)
        if gold is None:
            fail(owner, None, f"no golden for {name}")
            continue
        if not os.path.exists(path):
            fail(owner, None, f"{name} missing")
            continue
        meta, cols = read_csv(path)
        for key, value in gold["labels"].items():
            if meta.get(key) != value:
                fail(owner, None, f"{name}: {key}={meta.get(key)!r}, golden {value!r}")
        for col, g in gold["columns"].items():
            got = cols.get(col)
            if got is None:
                fail(owner, None, f"{name}: column {col} missing")
            elif "values" in g:
                if isinstance(got, list) and len(got) == len(g["values"]):
                    bad = [i for i, (a, b) in enumerate(zip(got, g["values"])) if a != b]
                    fail(owner, bad, f"{name}: {col} differs from golden")
                else:
                    fail(owner, None, f"{name}: {col} has the wrong type or length")
            elif isinstance(got, list):
                fail(owner, None, f"{name}: {col} is not numeric")
            elif _digest(got) != g["sha256"]:
                identical = False
                if owner == "rows" and g["stride"] == 1:
                    fail(owner, _numeric_row_mismatches(got, g), f"{name}: {col} outside tolerance")
                elif not _numeric_column_ok(got, g):
                    fail(owner, None, f"{name}: {col} outside tolerance")
    return failed, identical
