"""The benchmark's span tracer finds every function it traces.

``perfbench/tracing.py`` rebinds module-level ``nnlif`` functions by name; a
renamed or moved target would otherwise only be reported as not traced.
"""

import importlib.util
import os

import pytest

import nnlif.experiments  # noqa: F401  (imports every traced module)
from nnlif import OnePopParams, TwoPopParams, experiments, normalize_gaussian, twopop
from nnlif.fdm import FdmGrid, fdm_solve, reference_timestep

_TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target():
    tracing = _load_tracing()
    original = twopop.step_twopop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert twopop.step_twopop is not original
    finally:
        tracer.uninstall()
    assert twopop.step_twopop is original


@pytest.mark.parametrize("two", [False, True], ids=["one-population", "two-population"])
def test_fdm_step_metrics_count_every_population_step(domain, two):
    # the benchmark's fdm.* layer metrics divide by these two counts
    grid = FdmGrid.build(domain, h=1.0 / 16.0)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    p0, params = ((ic, ic), TwoPopParams(b_e_to_e=0.5, b_i_to_e=0.25)) if two else (ic, OnePopParams(a0=1.0))
    t_final = 0.01
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        rec = tracer.call_run(1, fdm_solve, p0, params, grid, reference_timestep(grid, params, t_final), t_final)
    finally:
        tracer.uninstall()
    spans, counts = tracer.per_run()
    calls = spans[1]["fdm.fdm_step"][0]
    assert calls == (2 if two else 1) * (rec.times.size - 1) > 0
    assert counts[1]["fdm.cells_stepped"] == calls * grid.n_cells


def test_workload_smoke_runs_reach_every_traced_layer(tmp_path, perfbench_workloads):
    # every per-layer metric of the benchmark reads a traced function that
    # some workload calls; parse_config is the exception: the benchmark
    # parses each config outside the traced run, so it reads 0 calls
    workloads = perfbench_workloads
    configs = {
        name: experiments.parse_config(workload.config(workloads.DEFAULT_SEED, smoke=True))
        for name, workload in workloads.WORKLOADS.items()
    }
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for run_id, (name, cfg) in enumerate(configs.items(), start=1):
            tracer.call_run(run_id, experiments.run_experiment, cfg, str(tmp_path / name))
    finally:
        tracer.uninstall()
    spans, _ = tracer.per_run()
    reached = {label for run in spans.values() for label, (calls, _, _) in run.items() if calls}
    assert set(tracer.labels) - reached <= {"experiments.parse_config"}


def test_grid_run_builds_its_rules_in_one_pass(tmp_path, perfbench_workloads):
    # one assemble call per run, and in it one call per rule family for
    # every basis and projection rule of the run
    cfg = experiments.parse_config(perfbench_workloads.WORKLOADS["grid"].config(perfbench_workloads.DEFAULT_SEED,
                                                                                 smoke=True))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.call_run(1, experiments.run_experiment, cfg, str(tmp_path / "grid"))
    finally:
        tracer.uninstall()
    spans, _ = tracer.per_run()
    for label in ("quadrature.gauss_legendre", "quadrature.gauss_laguerre", "assembly.assemble"):
        assert spans[1][label][0] == 1


def test_regimes_run_calls_the_traced_steps_once_per_step(tmp_path, perfbench_workloads):
    # the benchmark's twopop.* per-layer metrics sum over calls: one
    # step_twopop, one coefficients and one _resolve_rates call per step of
    # the sweep's one lockstep batch, which steps its cells as arrays, plus
    # one _resolve_rates call for each cell's initial rates
    cfg = experiments.parse_config(
        perfbench_workloads.WORKLOADS["regimes"].config(perfbench_workloads.DEFAULT_SEED, smoke=True)
    )
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        result = tracer.call_run(1, experiments.run_experiment, cfg, str(tmp_path / "regimes"))
    finally:
        tracer.uninstall()
    records = [cell["record"] for key, cell in result.items() if key != "_elapsed_s"]
    steps = sum(rec.times.size - 1 for rec in records)
    assert len(records) == len(cfg.sweep["b_e_to_e"]) and steps > 0
    spans, _ = tracer.per_run()
    batch_steps = max(rec.times.size - 1 for rec in records)
    assert spans[1]["twopop.step_twopop"][0] == batch_steps
    assert spans[1]["twopop.coefficients"][0] == batch_steps
    assert spans[1]["twopop._resolve_rates"][0] == batch_steps + len(records)
