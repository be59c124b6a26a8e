"""In-memory span tracer for the traced benchmark run.

The tracer rebinds module-level names of the ``nnlif`` package where they are
looked up (``nnlif.experiments.assemble``, ``nnlif.onepop.step``, ...) to
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans live in flat arrays while the benchmark runs and are written
out once at the end.  A layer's self time is its spans' durations minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

RUN_SPAN = "run"


def _rows_written(args, kwargs, result, counts):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    first = next(iter(columns.values()), ())
    counts["records.rows_written"] += len(first)
    path = args[0] if args else kwargs["path"]
    counts["records.bytes_written"] += os.path.getsize(path)


def _cells_stepped(args, kwargs, result, counts):
    p = args[0] if args else kwargs["p"]
    counts["fdm.cells_stepped"] += p.size


# (label, defining module, attribute, namespaces to rebind or None for every
# nnlif module that binds the function, per-call counter)
TARGETS = (
    ("quadrature.gauss_laguerre", "nnlif.quadrature", "gauss_laguerre", None, None),
    ("quadrature.gauss_legendre", "nnlif.quadrature", "gauss_legendre", None, None),
    ("assembly.assemble", "nnlif.assembly", "assemble", None, None),
    ("assembly.project_initial", "nnlif.assembly", "project_initial", None, None),
    ("assembly.reconstruct", "nnlif.assembly", "reconstruct", None, None),
    ("basis.values_at", "nnlif.basis", "BasisSet.values_at", None, None),
    ("experiments.parse_config", "nnlif.experiments", "parse_config", None, None),
    ("experiments.classify_regime", "nnlif.experiments", "classify_regime", None, None),
    ("onepop.step", "nnlif.onepop", "step", None, None),
    ("onepop.firing_rate", "nnlif.onepop", "firing_rate", None, None),
    # one function, looked up by both solvers: split by caller
    ("onepop.system_matrix", "nnlif.onepop", "system_matrix", ("nnlif.onepop",), None),
    ("twopop.system_matrix", "nnlif.onepop", "system_matrix", ("nnlif.twopop",), None),
    ("twopop.step_twopop", "nnlif.twopop", "step_twopop", None, None),
    ("twopop._resolve_rates", "nnlif.twopop", "_resolve_rates", None, None),
    ("twopop.coefficients", "nnlif.twopop", "coefficients", None, None),
    ("fdm.fdm_step", "nnlif.fdm", "fdm_step", None, _cells_stepped),
    ("records.emit_table", "nnlif.records", "emit_table", None, _rows_written),
    ("norms.l2_distance", "nnlif.norms", "l2_distance", None, None),
)


class Tracer:
    """Records spans for the wrapped functions between install() and
    uninstall(); ``call_run`` opens the root span of one experiment run."""

    def __init__(self):
        self.labels = [RUN_SPAN] + [t[0] for t in TARGETS]
        self.missing = []
        self.counts = defaultdict(float)
        self._name = array("H")
        self._run = array("I")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._run_id = 0
        self._counts_by_run = {}
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _wrap(self, fn, name_id, counter):
        names, runs, parents, starts, ends = (
            self._name, self._run, self._parent, self._start, self._end)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            runs.append(tracer._run_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result, tracer.counts)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def call_run(self, run_id, fn, *args):
        """Call fn(*args) inside the root span of experiment run ``run_id``."""
        self._run_id = run_id
        self.counts = defaultdict(float)
        try:
            return self._wrap(fn, 0, None)(*args)
        finally:
            self._counts_by_run[run_id] = dict(self.counts)

    # -- installation ---------------------------------------------------------

    def install(self):
        # resolve every target before patching any, so that a function
        # traced under two labels is found unwrapped both times
        resolved = []
        self.missing = []
        for name_id, (label, module, attr, namespaces, counter) in enumerate(TARGETS, start=1):
            owner_name, _, fn_name = attr.rpartition(".")
            try:
                mod = importlib.import_module(module)
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, fn_name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            resolved.append((name_id, owner_name, owner, fn_name, fn, namespaces, counter))
        for name_id, owner_name, owner, fn_name, fn, namespaces, counter in resolved:
            wrapper = self._wrap(fn, name_id, counter)
            if owner_name:
                self._patch(owner, fn_name, fn, wrapper)
                continue
            for ns in namespaces or [m for m in list(sys.modules) if m.split(".")[0] == "nnlif"]:
                target = sys.modules.get(ns)
                if target is not None and vars(target).get(fn_name) is fn:
                    self._patch(target, fn_name, fn, wrapper)

    def _patch(self, obj, name, original, wrapper):
        setattr(obj, name, wrapper)
        self._patches.append((obj, name, original))

    def uninstall(self):
        while self._patches:
            obj, name, original = self._patches.pop()
            setattr(obj, name, original)

    # -- results --------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "run": np.frombuffer(self._run, dtype=np.uint32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def dump(self, path: str) -> int:
        """Write every span to an .npz file; returns the span count."""
        spans = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, labels=np.array(self.labels), **spans)
        return int(spans["start"].size)

    def per_run(self):
        """{run id: {label: (calls, inclusive s, self s)}} plus the counters
        recorded in each run."""
        s = self.arrays()
        n = s["start"].size
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        out = {}
        n_labels = len(self.labels)
        for run_id in np.unique(s["run"]):
            sel = s["run"] == run_id
            names = s["name"][sel]
            calls = np.bincount(names, minlength=n_labels)
            incl = np.bincount(names, weights=dur[sel], minlength=n_labels)
            own = np.bincount(names, weights=self_time[sel], minlength=n_labels)
            out[int(run_id)] = {
                label: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, label in enumerate(self.labels)
            }
        return out, self._counts_by_run
