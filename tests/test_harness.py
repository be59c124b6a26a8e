import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nnlif import assembly, cli, errors, experiments, onepop, records, twopop
from nnlif.basis import BasisSet, Domain
from nnlif.assembly import assemble, normalize_gaussian
from nnlif.cli import main
from nnlif.errors import ConfigurationError, SingularFiringRateError
from nnlif.experiments import (
    SCHEMA,
    classify_regime,
    load_config,
    parse_config,
    run_experiment,
)
from nnlif.fdm import FdmGrid, fdm_solve, reference_timestep
from nnlif.integrate import ONE_POPULATION, TWO_POPULATIONS, RunRecord, integrate, whole_steps
from nnlif.norms import norm_grid
from nnlif.onepop import OnePopParams, Spectral, _OnePop, solve
from nnlif.quadrature import gauss_legendre
from nnlif.records import _format, emit_run_record, emit_table, parse_table, write_rows
from nnlif.twopop import TwoPopParams, _TwoPop, solve_twopop


def _shipped_config(name):
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", name)) as f:
        return json.load(f)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_onepop(**overrides):
    cfg = {
        "schema": 1,
        "kind": "blowup",
        "model": {"population": "one", "a0": 1.0, "a1": 0.0, "b": 3.0},
        "initial": {"v0": -1.0, "sigma0_sq": 0.5},
        "numerics": {"m": 8, "dt": 0.01, "t_final": 0.1},
        "blowup_threshold": 5.0,
    }
    cfg.update(overrides)
    return cfg


# --- records -----------------------------------------------------------------


def test_emit_parse_roundtrip(tmp_path, rng):
    path = str(tmp_path / "table.csv")
    cols = {
        "t": rng.standard_normal(20),
        "value": rng.standard_normal(20) * 1e-7,
        "label": [f"row{i}" for i in range(20)],
    }
    emit_table(path, cols, {"alpha": 0.1, "name": "demo"})
    meta, parsed = parse_table(path)
    assert meta["name"] == "demo"
    assert float(meta["alpha"]) == 0.1
    assert np.array_equal(parsed["t"], cols["t"])
    assert np.array_equal(parsed["value"], cols["value"])
    assert parsed["label"] == cols["label"]


def test_emit_empty_record_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_table(path, {"t": [], "rate": [], "mass": []})
    meta, parsed = parse_table(path)
    assert list(parsed.keys()) == ["t", "rate", "mass"]
    assert all(len(v) == 0 for v in parsed.values())


# float64 values whose 17-digit text is easy to get wrong: signed zeros,
# infinities, nan, subnormals and values near the ends of the exponent range
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1e300, 1e-300, -1e-300, 0.1, 1 / 3, 123456789.0]
_cell_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _tables(draw):
    """(columns, n_rows): float64 array columns mixed with int, str, Python
    float list and float32 columns."""
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(["float64", "int", "str", "list", "float32"]), min_size=1, max_size=6))
    columns = {}
    for j, kind in enumerate(kinds):
        if kind == "float64":
            col = np.array(draw(st.lists(_cell_floats, min_size=n_rows, max_size=n_rows)), dtype=np.float64)
        elif kind == "int":
            col = np.array(draw(st.lists(st.integers(-(2**40), 2**40), min_size=n_rows, max_size=n_rows)))
        elif kind == "str":
            col = draw(st.lists(st.sampled_from(["completed", "blow-up-detected", "a b", ""]),
                                min_size=n_rows, max_size=n_rows))
        elif kind == "list":
            col = draw(st.lists(_cell_floats, min_size=n_rows, max_size=n_rows))
        else:
            col = np.array(draw(st.lists(st.floats(width=32), min_size=n_rows, max_size=n_rows)),
                           dtype=np.float32)
        columns[f"c{j}_{kind}"] = col
    return columns, n_rows


def _check_per_cell_format(tmp_path_factory, table):
    columns, n_rows = table
    path = tmp_path_factory.mktemp("emit") / "table.csv"
    meta = {"dt": 0.001, "status": "completed"}
    emit_table(str(path), columns, meta)
    want = "".join(f"# {key}={_format(meta[key])}\n" for key in sorted(meta)) + ",".join(columns) + "\n"
    want += "".join(",".join(_format(col[i]) for col in columns.values()) + "\n" for i in range(n_rows))
    assert path.read_bytes() == want.encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(table=_tables())
def test_emit_table_matches_per_cell_format(tmp_path_factory, table):
    _check_per_cell_format(tmp_path_factory, table)


@settings(max_examples=50, deadline=None)
@given(table=_tables())
def test_emit_table_matches_per_cell_format_across_row_blocks(tmp_path_factory, table):
    # up to 8 rows in blocks of 3: empty, partial and full last blocks
    with mock.patch.object(records, "_BLOCK_ROWS", 3):
        _check_per_cell_format(tmp_path_factory, table)


def test_write_rows_holds_one_block_of_cells():
    # 2 x 200,000 floats as Python objects (whole-column tolist) peak at
    # about 12.8 MB; one 65,536-row block of them at about 4.2 MB
    columns = [np.linspace(0.0, 1.0, 200_000), np.linspace(1.0, 2.0, 200_000)]
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            write_rows(fh, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8e6


def test_emit_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="lengths differ"):
        emit_table(str(tmp_path / "x.csv"), {"a": [1, 2], "b": [1]})


def test_snapshot_file_matches_reconstruction(tmp_path, domain):
    basis = BasisSet(domain, 8)
    mats = assemble(basis)
    ic = normalize_gaussian(-1.0, 0.5, domain)
    rec = solve(ic, OnePopParams(a0=1.0), mats, dt=0.01, t_final=0.1, snapshot_times=(0.1,))
    from nnlif.records import emit_snapshot

    path = str(tmp_path / "snap.csv")
    emit_snapshot(path, rec.snapshots[0])
    _, cols = parse_table(path)
    grid = norm_grid(domain)
    assert cols["v"].size == 2001
    assert np.array_equal(cols["v"], grid)
    assert np.array_equal(cols["density"], rec.snapshots[0].density)


@pytest.mark.parametrize(
    "solver, layout",
    [
        ("solve", ONE_POPULATION),
        ("solve_twopop", TWO_POPULATIONS),
        ("fdm_solve", ONE_POPULATION),
        ("fdm_solve_twopop", TWO_POPULATIONS),
    ],
    ids=["solve", "solve_twopop", "fdm_solve", "fdm_solve_twopop"],
)
@pytest.mark.parametrize("blowup_threshold", [1e3, 1e-6], ids=["completed", "tripped"])
def test_emit_run_record_writes_the_layout(tmp_path, domain, solver, layout, blowup_threshold):
    ic = normalize_gaussian(-1.0, 0.5, domain)
    one, two = OnePopParams(a0=1.0), TwoPopParams(b_e_to_e=0.5, b_e_to_i=0.5, b_i_to_e=0.25)
    mats = assemble(BasisSet(domain, 6))
    grid = FdmGrid.build(domain, h=1.0 / 16.0)
    t_final = 0.1
    runs = {
        "solve": lambda: solve(ic, one, mats, 0.01, t_final, blowup_threshold=blowup_threshold),
        "solve_twopop": lambda: solve_twopop(ic, ic, two, mats, 0.01, t_final, blowup_threshold=blowup_threshold),
        "fdm_solve": lambda: fdm_solve(
            ic, one, grid, reference_timestep(grid, one, t_final), t_final, blowup_threshold=blowup_threshold
        ),
        "fdm_solve_twopop": lambda: fdm_solve(
            (ic, ic), two, grid, reference_timestep(grid, two, t_final), t_final, blowup_threshold=blowup_threshold
        ),
    }
    rec = runs[solver]()
    path = str(tmp_path / "run.csv")
    emit_run_record(path, rec, {"kind": "demo"})
    meta, cols = parse_table(path)
    assert list(cols) == ["t", *layout.columns]
    assert np.array_equal(cols["t"], rec.times)
    for name in layout.columns:
        assert np.array_equal(cols[name], rec.columns[name]), name
    assert (meta["kind"], meta["status"], float(meta["dt"])) == ("demo", rec.status, rec.dt)
    written = {key: float(meta[key]) for key in layout.trips if key in meta}
    if blowup_threshold < 1.0:
        assert rec.status == "blow-up-detected"
        assert written == rec.trips and None not in written.values()
    else:
        assert rec.status == "completed"
        assert written == {} and set(rec.trips.values()) == {None}


# --- config parsing ----------------------------------------------------------


def test_config_schema_and_kind_validation():
    with pytest.raises(ConfigurationError, match="schema"):
        parse_config({"schema": 99})
    with pytest.raises(ConfigurationError, match="kind"):
        parse_config({"schema": 1, "kind": "nonsense", "model": {"population": "one"}})
    with pytest.raises(ConfigurationError, match="population"):
        parse_config({"schema": 1, "kind": "blowup", "model": {}})
    twopop = {"population": "two", "b_e_to_e": 0.5}
    with pytest.raises(ConfigurationError, match="one-population"):
        parse_config(_base_onepop(kind="compare-fdm", model=twopop, initial=_TWOPOP_INITIAL))
    with pytest.raises(ConfigurationError, match="two-population"):
        parse_config(_base_onepop(kind="twopop-regimes", sweep={"b_e_to_e": [0.5]}))


def test_config_errors_name_the_key():
    with pytest.raises(ConfigurationError, match="unknown top-level key 'snapshot_time'"):
        parse_config(_base_onepop(snapshot_time=[0.05]))
    with pytest.raises(ConfigurationError, match="unknown numerics key 'dt_vaules'"):
        parse_config(_base_onepop(numerics={"m": 8, "dt": 0.01, "t_final": 0.1, "dt_vaules": [0.01]}))
    with pytest.raises(ConfigurationError, match="unknown model key 'B'"):
        parse_config(_base_onepop(model={"population": "one", "B": 3.0}))
    with pytest.raises(ConfigurationError, match="reference.method must be 'fdm' or 'self', got 'FDM'"):
        parse_config(_base_onepop(reference={"method": "FDM"}))
    with pytest.raises(ConfigurationError, match="reference.richardson must be true or false, got 1"):
        parse_config(_base_onepop(reference={"richardson": 1}))


_TWOPOP_INITIAL = {"e": {"v0": -1.0, "sigma0_sq": 0.5}, "i": {"v0": 0.0, "sigma0_sq": 0.25}}
_EXPONENTIAL = {"population": "two", "refractory_mode": "exponential", "tau_e": 0.1, "tau_i": 0.1}


@pytest.mark.parametrize(
    "raw, message",
    [
        (_base_onepop(model={"population": "one", "a0": 0.0}), "model.a0 must lie in (0, inf), got 0.0"),
        (_base_onepop(model={**_EXPONENTIAL, "tau_e": -1.0}, initial=_TWOPOP_INITIAL),
         "model.tau_e must lie in (0, inf), got -1.0"),
        (_base_onepop(model={"population": "two", "zz": 1.0}, initial=_TWOPOP_INITIAL),
         "unknown model key 'zz'; known keys are ['b_e_to_e', "),
        (_base_onepop(domain={"v_reset": 2.0}), "domain.v_threshold must exceed v_reset, got 2.0 <= 2.0"),
        (_base_onepop(domain={"beta": -1.0}), "domain.beta must lie in (0, inf), got -1.0"),
        # the value of a sweep is the model key it replaces
        (_base_onepop(kind="twopop-regimes", model={"population": "two"}, initial=_TWOPOP_INITIAL,
                      sweep={"b_e_to_e": [3.5, -1.0]}), "sweep.b_e_to_e must lie in [0, inf), got -1.0"),
        (_base_onepop(model={"population": "two", "delay_e_to_e": 0.00015}, initial=_TWOPOP_INITIAL,
                      numerics={"m": 8, "dt": 1e-4, "t_final": 0.1}),
         "model.delay_e_to_e=0.00015 is not an integer multiple of dt=0.0001"),
        # a bad population is named, not the keys of the population it would select
        (_base_onepop(model={"population": "three", "b_e_to_e": 0.5}), "model.population must be 'one' or 'two'"),
        # an integer past the float range is no finite number, and no raw OverflowError
        (_base_onepop(model={"population": "one", "b": 10**400}), "model.b must be a finite number"),
    ],
    ids=["a0-zero", "twopop-tau_e-negative", "twopop-unknown-key", "v_reset-at-threshold", "beta-negative",
         "sweep-negative", "delay-off-lattice", "population-three", "b-huge-integer"],
)
def test_domain_and_model_errors_name_the_key_path(raw, message):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(message)


# values that break the rule of every domain and model key: no key takes
# "bogus", a list, a non-finite number or a bool
_WRONG = ("bogus", [1.0], math.nan, math.inf, -math.inf, True, 10**400)
_SHIPPED = sorted(os.listdir(os.path.join(os.path.dirname(__file__), "..", "configs")))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_shipped_configs_with_one_bad_domain_or_model_key_name_its_path(data):
    # parsing only: each example sets one domain or model key of a shipped
    # config to a bad value, or adds an unknown key; the config is then
    # accepted or refused with a ConfigurationError, and a value that breaks
    # the key's own rule is named by its key path
    raw = _shipped_config(data.draw(st.sampled_from(_SHIPPED)))
    table = experiments._TWO_POPULATION_SCHEMA if raw["model"]["population"] == "two" else SCHEMA
    section = data.draw(st.sampled_from(("domain", "model")))
    key = data.draw(st.sampled_from(sorted(table[section]) + ["zz"]))
    value = data.draw(st.sampled_from(_WRONG + (0, -1, 1e300)))
    raw.setdefault(section, {})[key] = value
    try:
        parse_config(raw)
        message = None
    except ConfigurationError as exc:
        message = str(exc)
    if key == "zz":
        assert message.startswith(f"unknown {section} key 'zz'; known keys are {sorted(table[section])}")
    elif any(value is wrong for wrong in _WRONG):
        assert message.startswith(f"{section}.{key} must")
    elif message is not None and (f"{key} must" in message or f"{key}=" in message):
        assert message.startswith(f"{section}.{key}")


def _table_entries(table, path=()):
    """(key path, (check, default)) for every key of a schema table."""
    for key, entry in table.items():
        if isinstance(entry, dict):
            yield from _table_entries(entry, path + (key,))
        else:
            yield ".".join(path + (key,)), entry


def _bad_values(check):
    """Values the check must reject: wrong types, non-finite numbers and,
    for a positive or count key, 0 and -1 (as elements, for a list key)."""
    bad = [math.nan, math.inf, -math.inf, "bogus", [math.nan], {"x": 1.0}]
    if check is not experiments._boolean:
        bad.append(True)
    is_list = isinstance(check, partial) and check.func is experiments._list
    if (check.args[0] if is_list else check) in (errors.check_positive, errors.check_positive_integer):
        bad += [[0], [-1]] if is_list else [0, -1]
    return bad


_BAD_CASES = [(path, value) for path, (check, _) in _table_entries(SCHEMA) for value in _bad_values(check)]


@settings(max_examples=400)
@given(st.sampled_from(_BAD_CASES))
def test_schema_rejects_bad_values_naming_the_key(case):
    path, value = case
    raw = _base_onepop()
    *sections, key = path.split(".")
    target = raw
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = value
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(raw)
    assert path in str(excinfo.value)


def test_schema_defaults_pass_their_own_checks():
    for table in (SCHEMA, experiments._TWO_POPULATION_SCHEMA):
        for path, (check, default) in _table_entries(table):
            if default is not None and default is not experiments._REQUIRED:
                check(path, default)
    # the domain and model sections are the fields of the types that check
    # them, which build from the sections' defaults
    for table, section, cls in ((SCHEMA, "domain", Domain), (SCHEMA, "model", OnePopParams),
                                (experiments._TWO_POPULATION_SCHEMA, "model", TwoPopParams)):
        names = {field.name for field in dataclasses.fields(cls)}
        assert set(table[section]) == names | ({"population"} if section == "model" else set())
        assert cls(**{name: table[section][name][1] for name in names}) == cls()
    # a config that leaves a section out reads every key of it
    cfg = parse_config(_base_onepop())
    for section in ("numerics", "reference", "detection", "sweep"):
        assert set(getattr(cfg, section)) == set(SCHEMA[section])


def test_partial_twopop_initial_takes_the_defaults():
    raw = _base_onepop(model={"population": "two", "b_e_to_e": 0.5}, initial={"e": {"v0": 0.0}})
    ic_e, ic_i = parse_config(raw).ic
    assert (ic_e.v0, ic_e.sigma0_sq, ic_i.v0, ic_i.sigma0_sq) == (0.0, 0.5, -1.0, 0.5)


def test_config_rejects_misaligned_times():
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        parse_config(_base_onepop(numerics={"m": 8, "dt": 0.03, "t_final": 0.1}))
    cfg = _base_onepop()
    cfg["snapshot_times"] = [0.055]
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        parse_config(cfg)
    cfg = _base_onepop()
    cfg["snapshot_times"] = [0.2]
    with pytest.raises(ConfigurationError, match="exceeds t_final"):
        parse_config(cfg)


def test_config_rejects_bad_ladder():
    cfg = _base_onepop(kind="convergence-time")
    cfg["numerics"] = {"m": 8, "dt_values": [0.01, 0.02], "t_final": 0.1}
    with pytest.raises(ConfigurationError, match="non-increasing"):
        parse_config(cfg)


def test_config_rejects_nondivisible_delay():
    cfg = _base_onepop()
    cfg["model"] = {
        "population": "two",
        "b_e_to_e": 0.5,
        "delay_e_to_e": 0.005,
        "refractory_mode": "pass-through",
    }
    cfg["initial"] = _TWOPOP_INITIAL
    with pytest.raises(ConfigurationError, match="integer multiple"):
        parse_config(cfg)


def test_whole_steps_counts_steps_to_a_relative_tolerance():
    assert whole_steps(0.2, 0.04) == 5
    assert whole_steps(0.0, 0.04) == 0
    assert whole_steps(0.05, 0.02) is None
    assert whole_steps(0.2 + 1e-10, 0.04) == 5
    assert whole_steps(2000.0 + 1e-7, 0.5) == 4000
    assert whole_steps(2000.0 + 1e-5, 0.5) is None


class _StartRaises:
    """A stepper that fails the test as soon as a run starts."""

    layout = ONE_POPULATION

    def start(self, rates):
        raise AssertionError("the run started")


def test_integrate_bounds_the_step_count():
    # 1e12 steps are rejected before a record array is allocated
    with pytest.raises(ConfigurationError, match="takes 1000000000000 steps, at most 10000000"):
        integrate([_StartRaises()], 1e-9, 1e3)
    # exactly the bound passes it and starts
    with pytest.raises(AssertionError, match="the run started"):
        integrate([_StartRaises()], 1.0, 1e7)


@pytest.fixture(scope="module")
def entry(domain):
    """Cheap inputs for the library's entry points: an initial density, one-
    and two-population parameters, M = 6 matrices, an FV grid and a
    started state of each model."""
    ic, one, two = normalize_gaussian(-1.0, 0.5, domain), OnePopParams(a0=1.0, b=3.0), TwoPopParams(b_e_to_e=0.5)
    mats = assemble(BasisSet(domain, 6))
    return {
        "ic": ic, "one": one, "two": two, "mats": mats, "grid": FdmGrid.build(domain, h=1.0 / 16.0),
        "state": _OnePop(ic, one, Spectral(mats), 0.01).start([]),
        "state2": _TwoPop((ic, ic), two, Spectral(mats), 0.01).start([np.zeros(11), np.zeros(11)]),
    }


# every run entry point, called with a dt and a t_final, and the public steps,
# called with a dt
_RUNS = {
    "solve": lambda e, dt, t_final: solve(e["ic"], e["one"], e["mats"], dt, t_final),
    "solve_twopop": lambda e, dt, t_final: solve_twopop(e["ic"], e["ic"], e["two"], e["mats"], dt, t_final),
    "fdm_solve": lambda e, dt, t_final: fdm_solve(e["ic"], e["one"], e["grid"], dt, t_final),
}
_STEPS = {
    "step": lambda e, dt: onepop.step(e["state"], e["one"], Spectral(e["mats"]), dt),
    "step_twopop": lambda e, dt: twopop.step_twopop(e["state2"], e["two"], Spectral(e["mats"]), dt),
}
# a time of the wrong type, each of which a run once met with a raw TypeError
# or, for a bool, ran with
_WRONG_TYPES = {"bool": True, "str": "0.1", "none": None}
_WRONG_TYPE_CASES = {
    **{f"{name}-{key}-{kind}": (partial(run, **{"dt": 1e-4, "t_final": 0.1, key: value}),
                                f"{key} must be a finite number")
       for name, run in _RUNS.items() for key in ("dt", "t_final") for kind, value in _WRONG_TYPES.items()},
    **{f"{name}-dt-{kind}": (partial(step, dt=value), "dt must be a finite number")
       for name, step in _STEPS.items() for kind, value in _WRONG_TYPES.items()},
    "solve-threshold-str": (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, blowup_threshold="3"),
                            "blowup_threshold must be a finite number"),
    "solve-snapshot-str": (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, snapshot_times=("0.05",)),
                           "snapshot time must be a finite number"),
    "BasisSet-left_scale-inf": (lambda e: BasisSet(e["mats"].basis.domain, 4, left_scale=math.inf),
                                "left_scale must be a finite number"),
}


@pytest.mark.parametrize(
    "call, match",
    [
        # a blow-up threshold that is not > 0: NaN never trips, -1 and 0 trip at once
        (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, blowup_threshold=math.nan), "blowup_threshold"),
        (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, blowup_threshold=-1.0), "blowup_threshold"),
        (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, blowup_threshold=0.0), "blowup_threshold"),
        (lambda e: solve_twopop(e["ic"], e["ic"], e["two"], e["mats"], 0.01, 0.1, blowup_threshold=math.nan),
         "blowup_threshold"),
        (lambda e: fdm_solve(e["ic"], e["one"], e["grid"], reference_timestep(e["grid"], e["one"], 0.1), 0.1,
                             blowup_threshold=math.nan), "blowup_threshold"),
        (lambda e: integrate([_StartRaises()], 0.01, 0.1, (), -1.0), "blowup_threshold"),
        # a step outside (0, inf)
        (lambda e: onepop.step(e["state"], e["one"], Spectral(e["mats"]), math.nan), "dt"),
        (lambda e: onepop.step(e["state"], e["one"], Spectral(e["mats"]), math.inf), "dt"),
        (lambda e: twopop.step_twopop(e["state2"], e["two"], Spectral(e["mats"]), -0.01), "dt"),
        (lambda e: twopop.step_twopop(e["state2"], e["two"], Spectral(e["mats"]), math.nan), "dt"),
        (lambda e: twopop.step_twopop(e["state2"], e["two"], Spectral(e["mats"]), math.inf, ((0, 0), (0, 0))), "dt"),
        # an empty batch
        (lambda e: solve_twopop(e["ic"], e["ic"], [], e["mats"], 0.01, 0.1), "at least one run"),
        (lambda e: integrate([], 0.01, 0.1), "at least one run"),
        # two snapshot times on one step, of which a run would keep only one
        (lambda e: solve(e["ic"], e["one"], e["mats"], 0.01, 0.1, snapshot_times=(0.0, 1e-10)),
         "snapshot times 0.0 and 1e-10 fall on one step, 0,"),
        (lambda e: solve_twopop(e["ic"], e["ic"], e["two"], e["mats"], 0.01, 0.1,
                                snapshot_times=(0.1, 0.0, 0.1 - 1e-12)),
         "snapshot times 0.1 and 0.099999999999 fall on one step, 10,"),
        (lambda e: fdm_solve(e["ic"], e["one"], e["grid"], reference_timestep(e["grid"], e["one"], 0.1), 0.1,
                             snapshot_times=(0.0, 1e-10)), "snapshot times 0.0 and 1e-10 fall on one step"),
        (lambda e: integrate([_StartRaises()], 0.01, 0.1, (0.05, 0.05)),
         "snapshot times 0.05 and 0.05 fall on one step"),
        *_WRONG_TYPE_CASES.values(),
    ],
    ids=[
        "solve-threshold-nan", "solve-threshold-negative", "solve-threshold-zero", "solve_twopop-threshold-nan",
        "fdm_solve-threshold-nan", "integrate-threshold-negative", "step-dt-nan", "step-dt-inf",
        "step_twopop-dt-negative", "step_twopop-dt-nan", "step_twopop-dt-inf", "solve_twopop-empty",
        "integrate-empty", "solve-snapshots-one-step", "solve_twopop-snapshots-one-step",
        "fdm_solve-snapshots-one-step", "integrate-snapshots-one-step",
        *_WRONG_TYPE_CASES,
    ],
)
def test_library_entry_points_reject_bad_inputs(entry, call, match):
    with pytest.raises(ConfigurationError, match=match):
        call(entry)


def test_an_infinite_blowup_threshold_never_trips(entry):
    # +inf is a valid threshold: it switches detection off
    rec = solve(entry["ic"], entry["one"], entry["mats"], 0.01, 0.1, blowup_threshold=math.inf)
    assert rec.status == "completed" and rec.trips == {"blowup_time": None}


def test_config_rejects_a_negative_snapshot_time():
    with pytest.raises(ConfigurationError, match="snapshot time -0.05 is negative"):
        parse_config(_base_onepop(snapshot_times=[-0.05]))


def _fdm_reference_ran(*args, **kwargs):
    raise AssertionError("the FDM reference ran")


def _fdm_run_ran(*args, **kwargs):
    raise AssertionError("a finite-volume run ran")


@pytest.mark.parametrize(
    "raw, steps",
    [
        # one spectral ladder entry past MAX_STEPS
        (_base_onepop(kind="convergence-time", numerics={"m": 4, "dt_values": [0.01, 1e-8], "t_final": 0.2},
                      reference={"method": "fdm", "h": 0.125}), 20000000),
        # finite-volume runs at h = 1/8192: compare-fdm's timed run, the
        # reference of a ladder and efficiency's grid ladder
        (_base_onepop(kind="compare-fdm", numerics={"m": 8, "dt": 0.01, "t_final": 0.2, "fdm_h": 1 / 8192},
                      reference={"method": "fdm", "h": 1 / 16}), 29842546),
        (_base_onepop(kind="convergence-time", numerics={"m": 8, "dt_values": [0.02, 0.01], "t_final": 0.2},
                      reference={"method": "fdm", "h": 1 / 8192}), 29842546),
        (_base_onepop(kind="efficiency", numerics={"m": 8, "dt": 0.01, "t_final": 0.2, "h_values": [1 / 8192]}),
         29842546),
    ],
    ids=["spectral-ladder", "compare-fdm", "fdm-reference", "efficiency"],
)
def test_step_bound_is_checked_at_parse(tmp_path, capsys, monkeypatch, raw, steps):
    # a run past MAX_STEPS fails before any finite-volume run starts
    with pytest.raises(ConfigurationError, match=f"takes {steps} steps, at most 10000000"):
        parse_config(raw)
    monkeypatch.setattr(experiments, "fdm_reference", _fdm_reference_ran)
    monkeypatch.setattr(experiments, "reference_run", _fdm_run_ran)
    rc = main([raw["kind"], "--config", _write(tmp_path, "cfg.json", raw), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err and f"takes {steps} steps" in err


@pytest.mark.parametrize(
    "raw, key",
    [
        (_base_onepop(kind="compare-fdm", numerics={"m": 8, "dt": 0.01, "t_final": 0.2, "fdm_h": 1 / 8192},
                      reference={"method": "fdm", "h": 1 / 16}), "numerics.fdm_h"),
        (_base_onepop(kind="convergence-time", numerics={"m": 8, "dt_values": [0.02, 0.01], "t_final": 0.2},
                      reference={"method": "fdm", "h": 1 / 8192}), "reference.h"),
        (_base_onepop(kind="efficiency", numerics={"m": 8, "dt": 0.01, "t_final": 0.2, "h_values": [1 / 8192]}),
         "numerics.h_values"),
    ],
    ids=["compare-fdm", "fdm-reference", "efficiency"],
)
def test_finite_volume_step_bound_names_the_spacing_key(raw, key):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith(f"{key} (finite-volume run at h=")


@pytest.mark.parametrize("section, key, value", [("domain", "v_reset", -1e300), ("reference", "v_min", 1.5)])
def test_finite_volume_bottom_edge_names_its_key_paths(section, key, value):
    # the grid's bottom edge, reference.v_min, must lie below domain.v_reset
    raw = _shipped_config("compare_fdm_onepop.json")
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigurationError) as excinfo:
        parse_config(raw)
    assert str(excinfo.value).startswith("reference.v_min must lie below domain.v_reset")


@pytest.mark.parametrize("config, key, value", [("blowup_onepop.json", "m", 10**400),
                                                ("convergence_space_onepop.json", "m_values", [4, 10**400])],
                         ids=["m", "m_values"])
def test_integer_past_the_float_range_is_a_config_error(tmp_path, capsys, config, key, value):
    # refused at parse, so that no raw OverflowError reaches the CLI
    raw = _shipped_config(config)
    raw["numerics"][key] = value
    with pytest.raises(ConfigurationError, match=f"^numerics.{key} must be a positive integer"):
        parse_config(raw)
    rc = main([raw["kind"], "--config", _write(tmp_path, "cfg.json", raw), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err and f"numerics.{key} must be a positive integer" in err


# --- classifier --------------------------------------------------------------


def _fake_record(rate_e, rate_i, status="completed", trip_e=None, trip_i=None):
    n = len(rate_i)
    columns = {
        "rate_e": np.asarray(rate_e, dtype=float),
        "rate_i": np.asarray(rate_i, dtype=float),
        "mass_e": np.ones(n),
        "mass_i": np.ones(n),
        "refractory_e": np.zeros(n),
        "refractory_i": np.zeros(n),
    }
    trips = {"trip_time_e": trip_e, "trip_time_i": trip_i}
    return RunRecord(np.linspace(0.0, 10.0, n), columns, trips, status, 0.0, 0.0, [])


def _blowup_record():
    return _fake_record([1.0] * 11, [1.0] * 11, status="blow-up-detected", trip_e=4.0)


def _periodic_record():
    t = np.linspace(0.0, 10.0, 5001)
    sig = 2.0 + 1.5 * np.sin(2 * np.pi * t / 1.3)
    return _fake_record(sig, sig)


def _steady_record():
    n = 5001
    base = np.concatenate([np.linspace(2.0, 0.8, 1000), np.full(n - 1000, 0.8)])
    return _fake_record(base, base)


def _ambiguous_record():
    t = np.linspace(0.0, 10.0, 5001)
    drifting = 1.0 + 0.3 * t  # no peaks, not settling
    return _fake_record(drifting, drifting)


def _irregular_record():
    t = np.linspace(0.0, 10.0, 5001)
    sig = np.full(t.size, 2.0)
    for center in (2.0, 3.1, 6.9, 9.4):  # erratic spacing
        sig += 1.2 * np.exp(-((t - center) ** 2) / 0.005)
    return _fake_record(sig, sig)


def test_classifier_blowup_label():
    out = classify_regime(_blowup_record())
    assert out["regime"] == "blow-up"
    assert out["trip_time_e"] == 4.0


def test_classifier_periodic_label():
    out = classify_regime(_periodic_record())
    assert out["regime"] == "periodic"
    assert out["n_peaks"] >= 3
    assert out["spacing_spread"] <= 0.2


def test_classifier_steady_label():
    out = classify_regime(_steady_record())
    assert out["regime"] == "steady"
    assert out["fluctuation_i"] < 0.01


def test_classifier_ambiguous_label():
    assert classify_regime(_ambiguous_record())["regime"] == "ambiguous"


def test_classifier_irregular_peaks_not_periodic():
    assert classify_regime(_irregular_record())["regime"] == "ambiguous"


def _scipy_peaks(x, prominence):
    # the reference rules; only the tests load scipy.signal
    from scipy.signal import find_peaks

    return find_peaks(x, prominence=prominence)[0]


_SIGNALS = st.one_of(
    st.lists(st.floats(-10.0, 10.0), max_size=80),
    st.lists(st.integers(0, 3), max_size=80),  # plateaus and equal peaks
).map(lambda xs: np.asarray(xs, dtype=float))


@settings(max_examples=400)
@given(x=_SIGNALS, data=st.data())
def test_find_peaks_matches_scipy(x, data):
    from scipy.signal import peak_prominences

    own = peak_prominences(x, _scipy_peaks(x, None))[0].tolist()
    # None keeps every peak; a prominence drawn from the signal tests the >= tie
    choices = [st.none(), st.just(0.0), st.floats(1e-3, 5.0)] + ([st.sampled_from(own)] if own else [])
    prominence = data.draw(st.one_of(choices))
    assert np.array_equal(experiments._find_peaks(x, prominence), _scipy_peaks(x, prominence))


def test_find_peaks_matches_scipy_on_white_noise():
    x = np.random.default_rng(0).standard_normal(100_001)
    assert experiments._find_peaks(x, None).size > 30_000
    start = time.perf_counter()
    peaks = experiments._find_peaks(x, 0.5)
    assert time.perf_counter() - start < 2.0
    assert np.array_equal(peaks, _scipy_peaks(x, 0.5))


@pytest.mark.parametrize(
    "record", [_blowup_record, _periodic_record, _steady_record, _ambiguous_record, _irregular_record]
)
def test_classifier_matches_a_scipy_backed_call(monkeypatch, record):
    ours = classify_regime(record())
    monkeypatch.setattr(experiments, "_find_peaks", _scipy_peaks)
    # repr: every key and value, int against float and NaN included
    assert repr(ours) == repr(classify_regime(record()))


def _tripping_twopop_run(t_final):
    """The shipped two-population blow-up config at M 6 and dt 0.01, whose E
    population trips at step 374 and whose I population never does."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "blowup_twopop.json")) as fh:
        raw = json.load(fh)
    raw["numerics"] = {"m": 6, "dt": 0.01, "t_final": t_final}
    raw["snapshot_times"] = []
    cfg = parse_config(raw)
    mats = assemble(BasisSet(cfg.domain, 6))
    return solve_twopop(*cfg.ic, cfg.params, mats, dt=0.01, t_final=t_final, blowup_threshold=cfg.blowup_threshold)


def test_run_reaching_t_final_after_a_trip_is_a_blowup():
    # E trips within the post-trip window of t_final = 4: the run reaches
    # t_final, but blown up
    rec = _tripping_twopop_run(4.0)
    assert rec.times[-1] == 4.0
    assert rec.trips["trip_time_e"] == 374 * 0.01 and rec.trips["trip_time_i"] is None
    assert rec.status == "blow-up-detected"
    assert classify_regime(rec)["regime"] == "blow-up"


def test_post_trip_window_counts_steps():
    # the run stops once the steps since the trip span more than the window
    # of 1.0: 101 steps after it, at 475 * 0.01
    rec = _tripping_twopop_run(6.0)
    assert rec.trips["trip_time_e"] == 374 * 0.01 and rec.trips["trip_time_i"] is None
    assert rec.times.size == 476 and rec.times[-1] == 4.75
    assert rec.status == "blow-up-detected"


# --- experiment plumbing -----------------------------------------------------


def test_blowup_experiment_files(tmp_path):
    cfg = parse_config(
        _base_onepop(numerics={"m": 8, "dt": 0.01, "t_final": 0.2}, snapshot_times=[0.1])
    )
    out = str(tmp_path / "res")
    run_experiment(cfg, out)
    assert sorted(os.listdir(out)) == ["blowup_run.csv", "density_t0.1.csv"]
    meta, cols = parse_table(os.path.join(out, "blowup_run.csv"))
    assert meta["kind"] == "blowup"
    assert cols["t"].size == 21


def test_convergence_time_self_reference(tmp_path):
    raw = {
        "schema": 1,
        "kind": "convergence-time",
        "model": {"population": "one", "a0": 1.0, "a1": 0.0, "b": 0.0},
        "initial": {"v0": -1.0, "sigma0_sq": 0.5},
        "numerics": {"m": 8, "dt_values": [0.02, 0.01, 0.005], "t_final": 0.1},
        "reference": {"method": "self"},
    }
    out = str(tmp_path / "res")
    res = run_experiment(parse_config(raw), out)
    table = res["one"]
    assert math.isnan(table["order_l2"][0])
    assert all(0.8 <= o <= 1.2 for o in table["order_l2"][1:])
    meta, cols = parse_table(os.path.join(out, "convergence_time.csv"))
    assert np.array_equal(cols["dt"], [0.02, 0.01, 0.005])


def test_convergence_time_degenerate_ladder_nan_sentinel(tmp_path):
    raw = {
        "schema": 1,
        "kind": "convergence-time",
        "model": {"population": "one", "a0": 1.0, "a1": 0.0, "b": 0.0},
        "initial": {"v0": -1.0, "sigma0_sq": 0.5},
        "numerics": {"m": 6, "dt_values": [0.02, 0.02], "t_final": 0.1},
        "reference": {"method": "self", "dt": 0.00125},
    }
    res = run_experiment(parse_config(raw), str(tmp_path / "res"))
    orders = res["one"]["order_l2"]
    assert math.isnan(orders[0]) and math.isnan(orders[1])


def test_stability_grid_records_cells(tmp_path):
    raw = {
        "schema": 1,
        "kind": "stability-grid",
        "model": {"population": "one", "a0": 1.0, "a1": 0.0, "b": 0.0},
        "initial": {"v0": -1.0, "sigma0_sq": 0.5},
        "numerics": {"m_values": [4, 6], "dt_values": [0.05, 0.025], "t_final": 0.1},
        "reference": {"method": "fdm", "h": 1.0 / 64.0, "richardson": True},
        "bound": 0.5,
    }
    res = run_experiment(parse_config(raw), str(tmp_path / "res"))
    assert len(res["l2_error"]) == 4
    assert all(np.isfinite(res["l2_error"]))
    assert not any(res["flags"])


_ONEPOP_MODEL = {"population": "one", "a0": 1.0, "a1": 0.0, "b": 0.0}
_ONEPOP_INITIAL = {"v0": -1.0, "sigma0_sq": 0.5}
_TWOPOP_MODEL = {
    "population": "two", "b_e_to_e": 0.5, "b_e_to_i": 0.5, "b_i_to_e": 0.75, "b_i_to_i": 0.25,
    "tau_e": 0.025, "tau_i": 0.025, "delay_e_to_e": 0.02, "refractory_mode": "exponential",
}


def _tiny(kind, numerics, reference=None, model=_ONEPOP_MODEL, initial=_ONEPOP_INITIAL, **extra):
    raw = {"schema": 1, "kind": kind, "model": model, "initial": initial, "numerics": numerics, **extra}
    if reference is not None:
        raw["reference"] = reference
    return raw


@pytest.mark.parametrize(
    "raw",
    [
        _base_onepop(snapshot_times=[0.05, 0.1]),
        _base_onepop(model=_TWOPOP_MODEL, initial=_TWOPOP_INITIAL, numerics={"m": 6, "dt": 0.01, "t_final": 0.1},
                     snapshot_times=[0.1]),
    ],
    ids=["one-population", "two-population"],
)
def test_snapshot_files_carry_the_config(tmp_path, raw):
    out = str(tmp_path / "res")
    rec = run_experiment(parse_config(raw), out)["record"]
    suffixes = ["_e", "_i"] if len(rec.trips) == 2 else [""]
    names = [name for name in os.listdir(out) if name.startswith("density")]
    assert len(names) == len(rec.snapshots) * len(suffixes) > 0
    keys = {"schema", "kind", "blowup_threshold", "t", *(f"model.{key}" for key in raw["model"])}
    for snap in rec.snapshots:
        for suffix, density in zip(suffixes, np.atleast_2d(snap.density)):
            meta, cols = parse_table(os.path.join(out, f"density{suffix}_t{snap.t:g}.csv"))
            assert keys <= set(meta)
            assert meta["kind"] == "blowup" and float(meta["t"]) == snap.t
            assert list(cols) == ["v", "density"]
            assert np.array_equal(cols["v"], snap.grid) and np.array_equal(cols["density"], density)


@pytest.mark.parametrize(
    "raw",
    [
        _base_onepop(snapshot_times=[0.1]),
        _base_onepop(kind="twopop-regimes", model=_TWOPOP_MODEL, initial=_TWOPOP_INITIAL,
                     numerics={"m": 6, "dt": 0.01, "t_final": 0.05}, sweep={"b_e_to_e": [0.5]}),
    ],
    ids=["blowup", "twopop-regimes"],
)
def test_headers_echo_no_reference_the_config_leaves_out(tmp_path, raw):
    out = tmp_path / "res"
    run_experiment(parse_config(raw), str(out))
    # density snapshots carry no provenance
    names = [name for name in sorted(os.listdir(out)) if not name.startswith("density")]
    assert names
    for name in names:
        meta, _ = parse_table(str(out / name))
        assert meta["kind"] == raw["kind"], name
        assert [key for key in meta if key.startswith("reference.")] == [], name


def test_worker_pool_matches_serial(tmp_path):
    fdm_ref = {"method": "fdm", "h": 1.0 / 64.0, "richardson": True}
    configs = {
        "convergence-space": _tiny("convergence-space", {"m_values": [4, 5, 6, 7], "dt": 0.01, "t_final": 0.1},
                                   fdm_ref),
        "stability-grid": _tiny("stability-grid", {"m": 6, "m_values": [4, 6], "dt_values": [0.05, 0.025],
                                                   "t_final": 0.1}, {"method": "self"}, bound=0.5),
        "twopop-regimes": _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.2}, model=_TWOPOP_MODEL,
                                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": [0.5, 1.0, 1.5]}),
        "convergence-time-twopop": _tiny("convergence-time", {"m": 6, "dt_values": [0.02, 0.01], "t_final": 0.04},
                                         {"method": "fdm", "h": 1.0 / 16.0, "richardson": True},
                                         model=_TWOPOP_MODEL, initial=_TWOPOP_INITIAL),
    }
    for label, raw in configs.items():
        out1 = str(tmp_path / label / "serial")
        out2 = str(tmp_path / label / "pool")
        run_experiment(parse_config(raw), out1, workers=1)
        run_experiment(parse_config(raw), out2, workers=2)
        names = sorted(os.listdir(out1))
        assert names and names == sorted(os.listdir(out2)), label
        for name in names:
            with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
                assert fa.read() == fb.read(), (label, name)


@pytest.mark.parametrize("sweep, pool_sizes", [([0.5, 1.0, 1.5], [3]), ([0.5], [])], ids=["3-cells", "1-cell"])
def test_workers_capped_at_cell_count(tmp_path, monkeypatch, sweep, pool_sizes):
    started = []

    class InlineExecutor:
        """Stands in for the process pool: records its size and runs each
        submitted cell at once, in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    raw = _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.05}, model=_TWOPOP_MODEL,
                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": sweep})
    res = run_experiment(parse_config(raw), str(tmp_path / "res"), workers=64)
    assert started == pool_sizes
    assert sorted(k for k in res if k != "_elapsed_s") == sorted(sweep)


def _blowup_sweep(sweep, t_final=3.0):
    """The shipped two-population blow-up model as a sweep at M 6 and dt
    0.01: b_e_to_e 1 and 2 complete, 8 trips both populations and stops at
    step 188, 20 trips E at step 75 and stops 101 steps later."""
    raw = _shipped_config("blowup_twopop.json")
    del raw["snapshot_times"]
    raw.update(kind="twopop-regimes", numerics={"m": 6, "dt": 0.01, "t_final": t_final}, sweep={"b_e_to_e": sweep})
    return raw


def _cells_alone(cfg, out_dir):
    """Each sweep cell run alone and written as the sweep writes it."""
    mats = experiments._matrices(cfg, [cfg.numerics["m"]])[cfg.numerics["m"]]
    records_alone = {}
    for v in cfg.sweep["b_e_to_e"]:
        rec = solve_twopop(*cfg.ic, replace(cfg.params, b_e_to_e=v), mats, cfg.numerics["dt"], cfg.numerics["t_final"],
                           blowup_threshold=cfg.blowup_threshold)
        regime = classify_regime(rec, **cfg.detection)["regime"]
        emit_run_record(os.path.join(out_dir, f"regime_b{v:g}.csv"), rec, {**cfg.header, "regime": regime})
        records_alone[v] = rec
    return records_alone


@pytest.mark.parametrize("which", ["regimes-smoke", "early-blowup", "model-mode"])
def test_lockstep_sweep_cells_are_their_runs_alone(tmp_path, perfbench_workloads, which):
    # the sweep steps its cells together on one factor (model mode: densely,
    # cell by cell); each cell's file is byte for byte its run alone, also
    # when a cell stops early and leaves the batch
    if which == "regimes-smoke":
        raw = perfbench_workloads.WORKLOADS["regimes"].config(perfbench_workloads.DEFAULT_SEED, smoke=True)
    else:
        raw = _blowup_sweep([1.0, 20.0, 2.0, 8.0])
        if which == "model-mode":
            raw["model"].update(diffusion_mode="model", d_e_to_e=0.5, d_e_to_i=0.5, nu_ext=2.0)
    cfg = parse_config(raw)
    res = run_experiment(cfg, str(tmp_path / "sweep"))
    alone = _cells_alone(cfg, str(tmp_path / "alone"))
    for v, rec in alone.items():
        name = f"regime_b{v:g}.csv"
        assert (tmp_path / "sweep" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name
        batched = res[v]["record"]
        assert (batched.status, batched.trips, batched.times.size) == (rec.status, rec.trips, rec.times.size)
    if which == "early-blowup":
        assert [alone[v].times.size for v in (1.0, 20.0, 2.0, 8.0)] == [301, 177, 301, 189]
        assert alone[20.0].trips == {"trip_time_e": 0.75, "trip_time_i": None}


def test_lockstep_solver_failure_ends_only_its_cell(monkeypatch):
    # the failing cell ends "solver-failure" at the step it ends alone; the
    # batch steps the others on, each still its run alone
    cfg = parse_config(_blowup_sweep([1.0, 20.0, 2.0]))
    original = twopop._resolve_rates

    def failing(params, n, *args):
        # the batch's call at step 40 fails while cell b = 20 is in it, and
        # then that cell's own call alone
        b_e_to_e = params.b[:, 0, 0] if type(params) is twopop._Cells else [params.b_e_to_e]
        if 20.0 in b_e_to_e and n == 40:
            raise SingularFiringRateError(f"no rates at step {n}")
        return original(params, n, *args)

    monkeypatch.setattr(twopop, "_resolve_rates", failing)
    mats = experiments._matrices(cfg, [6])[6]
    params = [replace(cfg.params, b_e_to_e=v) for v in cfg.sweep["b_e_to_e"]]
    batch = solve_twopop(*cfg.ic, params, mats, 0.01, 3.0, blowup_threshold=cfg.blowup_threshold)
    assert [rec.status for rec in batch] == ["completed", "solver-failure", "completed"]
    assert batch[1].times.size == 40
    for p, rec in zip(params, batch):
        want = solve_twopop(*cfg.ic, p, mats, 0.01, 3.0, blowup_threshold=cfg.blowup_threshold)
        assert (rec.status, rec.trips, rec.times.size) == (want.status, want.trips, want.times.size)
        for name, column in want.columns.items():
            assert np.array_equal(rec.columns[name], column), name


def test_lockstep_cell_that_goes_non_finite_ends_only_its_cell():
    # with tau_e = 1e-300 the middle cell's recovery inflow R / tau_e
    # overflows within a few steps of the factored M = 16 batch: its slice of
    # the stack, and of its readout, turns non-finite mid-batch while the
    # other cells step on, each still its run alone
    raw = _shipped_config("twopop_regimes.json")
    raw["numerics"].update(dt=1e-3, t_final=0.2)
    cfg = parse_config(raw)
    mats = experiments._matrices(cfg, [16])[16]
    params = [replace(cfg.params, b_e_to_e=3.5), replace(cfg.params, b_e_to_e=3.82, tau_e=1e-300),
              replace(cfg.params, b_e_to_e=4.0)]
    batch = solve_twopop(*cfg.ic, params, mats, 1e-3, 0.2, blowup_threshold=math.inf)
    assert [rec.status for rec in batch] == ["completed", "blow-up-detected", "completed"]
    assert [rec.times.size for rec in batch] == [201, 4, 201]
    assert not np.isfinite(batch[1].columns["mass_e"][-1])
    for p, rec in zip(params, batch):
        want = solve_twopop(*cfg.ic, p, mats, 1e-3, 0.2, blowup_threshold=math.inf)
        assert (rec.status, rec.trips, rec.times.size) == (want.status, want.trips, want.times.size)
        for name, column in want.columns.items():
            assert np.array_equal(rec.columns[name], column, equal_nan=True), name


@pytest.mark.parametrize("refractory_mode", ["pass-through", "exponential"])
def test_lockstep_batch_with_snapshots_lags_and_a_trip_is_each_run_alone(monkeypatch, refractory_mode):
    # three factored cells with zero delays, 3-step delays and 60-step
    # delays (past the first snapshot at step 50); the 3-step cell trips E
    # mid-run and leaves the batch.  The batch steps as arrays, one
    # step_twopop call per step, and each cell's status, trips, columns and
    # snapshot densities are those of its run alone
    raw = _blowup_sweep([1.0])
    raw["model"].update(refractory_mode=refractory_mode, tau_e=0.025, tau_i=0.025)
    cfg = parse_config(raw)
    mats = experiments._matrices(cfg, [6])[6]

    def delays(d):
        return {f"delay_{x}_to_{y}": d for x in "ei" for y in "ei"}

    params = [replace(cfg.params, b_e_to_e=1.0), replace(cfg.params, b_e_to_e=20.0, **delays(0.03)),
              replace(cfg.params, b_e_to_e=2.0, **delays(0.6))]
    options = dict(snapshot_times=(0.5, 3.0), blowup_threshold=cfg.blowup_threshold)
    calls, original = [], twopop.step_twopop
    monkeypatch.setattr(twopop, "step_twopop", lambda *args: calls.append(1) or original(*args))
    batch = solve_twopop(*cfg.ic, params, mats, 0.01, 3.0, **options)
    monkeypatch.setattr(twopop, "step_twopop", original)
    assert len(calls) == 300
    assert [rec.status for rec in batch] == ["completed", "blow-up-detected", "completed"]
    assert batch[1].trips["trip_time_e"] is not None and 50 < batch[1].times.size < 301
    for p, rec in zip(params, batch):
        want = solve_twopop(*cfg.ic, p, mats, 0.01, 3.0, **options)
        assert (rec.status, rec.trips, rec.times.size) == (want.status, want.trips, want.times.size)
        for name, column in want.columns.items():
            assert np.array_equal(rec.columns[name], column), name
        assert [snap.t for snap in rec.snapshots] == [snap.t for snap in want.snapshots]
        for snap, snap_want in zip(rec.snapshots, want.snapshots):
            assert np.array_equal(snap.density, snap_want.density)
    assert [len(rec.snapshots) for rec in batch] == [2, 1, 2]


def test_lockstep_cell_whose_rate_falls_back_keeps_its_post_trip_window():
    # at threshold 4 the b = 3.5 cell's oscillating I rate trips at 0.967
    # and falls back under the threshold; the cell still stops when the
    # window after its trip ends, 1.0 later, as it does alone, while the
    # b = 3.82 cell completes
    raw = _shipped_config("twopop_regimes.json")
    raw["numerics"].update(m=8, dt=1e-3, t_final=3.0)
    cfg = parse_config(raw)
    mats = experiments._matrices(cfg, [8])[8]
    params = [replace(cfg.params, b_e_to_e=3.5), replace(cfg.params, b_e_to_e=3.82)]
    batch = solve_twopop(*cfg.ic, params, mats, 1e-3, 3.0, blowup_threshold=4.0)
    assert [rec.status for rec in batch] == ["blow-up-detected", "completed"]
    assert batch[0].trips == {"trip_time_e": None, "trip_time_i": 0.967} and batch[0].times.size == 1969
    assert batch[0].columns["rate_i"][-1] < 4.0
    for p, rec in zip(params, batch):
        want = solve_twopop(*cfg.ic, p, mats, 1e-3, 3.0, blowup_threshold=4.0)
        assert (rec.status, rec.trips, rec.times.size) == (want.status, want.trips, want.times.size)
        for name, column in want.columns.items():
            assert np.array_equal(rec.columns[name], column), name


def test_lockstep_wall_time_is_each_cell_share_of_the_loop():
    # the batch's loop time is split evenly among the cells stepping together:
    # the cells that run to t_final get equal shares, the one that leaves at
    # step 176 less, and the shares add up to no more than the call took
    cfg = parse_config(_blowup_sweep([1.0, 20.0, 2.0]))
    mats = experiments._matrices(cfg, [6])[6]
    params = [replace(cfg.params, b_e_to_e=v) for v in cfg.sweep["b_e_to_e"]]
    t0 = time.perf_counter()
    batch = solve_twopop(*cfg.ic, params, mats, 0.01, 3.0, blowup_threshold=cfg.blowup_threshold)
    elapsed = time.perf_counter() - t0
    walls = [rec.wall_time for rec in batch]
    assert [rec.times.size for rec in batch] == [301, 177, 301]
    assert walls[0] == walls[2] > walls[1] > 0.0
    assert sum(walls) <= elapsed


def test_sweep_outputs_do_not_depend_on_workers(tmp_path):
    # 4 cells in 1 to 4 groups (2 + 2, 1 + 1 + 2, 1 + 1 + 1 + 1)
    cfg = parse_config(_blowup_sweep([1.0, 20.0, 2.0, 8.0], t_final=2.0))
    outputs = []
    for workers in (1, 2, 3, 4):
        out = tmp_path / str(workers)
        run_experiment(cfg, str(out), workers=workers)
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert len(outputs[0]) == 5
    assert all(output == outputs[0] for output in outputs[1:])


@pytest.mark.parametrize("sweep", [[0.5, 0.5000001], [0.5, 1.0, 0.5], [0.0, -0.0]],
                         ids=["same-name", "repeated", "signed-zero"])
def test_sweep_values_that_share_an_output_are_rejected(sweep):
    raw = _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.05}, model=_TWOPOP_MODEL,
                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": sweep})
    with pytest.raises(ConfigurationError, match="sweep.b_e_to_e repeats"):
        parse_config(raw)


def test_cli_colliding_sweep_values_are_a_config_error(tmp_path, capsys):
    # at 0.5 and 0.5000001 both cells would write regime_b0.5.csv
    raw = _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.05}, model=_TWOPOP_MODEL,
                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": [0.5, 0.5000001]})
    rc = main(["twopop-regimes", "--config", _write(tmp_path, "cfg.json", raw), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err and "sweep.b_e_to_e" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("snapshot_times", [[0.1000001, 0.1000002], [0.1, 0.2, 0.1]], ids=["same-name", "repeated"])
def test_snapshot_times_that_share_an_output_are_rejected(snapshot_times):
    raw = _tiny("blowup", {"m": 4, "dt": 1e-7, "t_final": 0.2}, snapshot_times=snapshot_times)
    with pytest.raises(ConfigurationError, match="snapshot_times repeats"):
        parse_config(raw)


def test_cli_colliding_snapshot_times_are_a_config_error(tmp_path, capsys):
    # at 0.1000001 and 0.1000002 both snapshots would write density_t0.1.csv
    raw = _tiny("blowup", {"m": 4, "dt": 1e-7, "t_final": 0.1000002}, snapshot_times=[0.1000001, 0.1000002])
    rc = main(["blowup", "--config", _write(tmp_path, "cfg.json", raw), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err and "snapshot_times" in err
    assert not (tmp_path / "out").exists()


def test_cli_two_snapshot_times_on_one_step_are_a_config_error(tmp_path, capsys):
    # 0 and 1e-10 name density_t0.csv and density_t1e-10.csv, but fall on
    # one step: the run would write only the second
    raw = _tiny("blowup", {"m": 4, "dt": 0.01, "t_final": 0.1}, snapshot_times=[0.0, 1e-10])
    rc = main(["blowup", "--config", _write(tmp_path, "cfg.json", raw), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err and "snapshot times 0.0 and 1e-10 fall on one step, 0" in err
    assert not (tmp_path / "out").exists()


def test_matrices_assembled_once_per_distinct_m(tmp_path, monkeypatch):
    calls = []
    legendre_calls = []

    def counting_assemble(*bases, n_q=None):
        calls.append([basis.m for basis in bases])
        return assemble(*bases, n_q=n_q)

    def counting_gauss_legendre(*orders):
        legendre_calls.append(orders)
        return gauss_legendre(*orders)

    monkeypatch.setattr(experiments, "assemble", counting_assemble)
    monkeypatch.setattr(assembly, "gauss_legendre", counting_gauss_legendre)
    raw = _tiny("stability-grid", {"m": 6, "m_values": [4, 5, 6], "dt_values": [0.05, 0.025], "t_final": 0.1},
                {"method": "self", "dt": 0.0125})
    res = run_experiment(parse_config(raw), str(tmp_path / "res"))
    assert len(res["l2_error"]) == 6
    assert calls == [[4, 5, 6]]
    # one call for the run: each distinct M's assembly rule and projection
    # rule, none per cell
    assert legendre_calls == [(16, 18, 20, 48, 52, 56)]


_WATCHED_MODULES = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""

_GRID_RUN = """
import tempfile
from nnlif.experiments import parse_config, run_experiment
raw = {{"schema": 1, "kind": "stability-grid", "model": {{"population": "one", "a0": 1.0, "a1": 0.1, "b": 0.0}},
       "initial": {{"v0": -1.0, "sigma0_sq": 0.5}}, "reference": {{"method": "self", "dt": 0.0125}},
       "numerics": {{"m_values": [4], "dt_values": {dt_values}, "t_final": 0.1}}}}
with tempfile.TemporaryDirectory() as out:
    run_experiment(parse_config(raw), out)
"""

_REGIMES_RUN = """
import tempfile
from nnlif.experiments import parse_config, run_experiment
raw = {{"schema": 1, "kind": "twopop-regimes", "model": {{"population": "two", "b_e_to_e": 0.5}},
       "initial": {{"e": {{"v0": -1.0, "sigma0_sq": 0.5}}, "i": {{"v0": 0.0, "sigma0_sq": 0.25}}}},
       "numerics": {{"m": 4, "dt": {dt}, "t_final": 0.1}}, "sweep": {{"b_e_to_e": [0.5]}}}}
with tempfile.TemporaryDirectory() as out:
    run_experiment(parse_config(raw), out)
"""


@pytest.mark.parametrize(
    "body, schur",
    [
        ("import nnlif.cli", False),
        # 2 and 4 steps at dim 9: every run, the reference included, solves densely
        (_GRID_RUN.format(dt_values=[0.05, 0.025]), False),
        # 20 steps at dim 9 pass factor_pays_off: the run factors its operator
        (_GRID_RUN.format(dt_values=[0.005]), True),
        # 2 populations x 2 steps at dim 9: a dense run, and its classified regime
        (_REGIMES_RUN.format(dt=0.05), False),
        # 2 populations x 20 steps pass factor_pays_off at dim 9: a modal
        # factor, built by numpy alone
        (_REGIMES_RUN.format(dt=0.005), False),
    ],
    ids=["import-cli", "dense-grid", "factored-grid", "dense-regimes", "factored-regimes"],
)
def test_scipy_imported_only_where_used(body, schur):
    """A fresh interpreter loads scipy only for the one-population factored
    stepper (scipy.linalg, for its Schur form); a two-population run, dense
    or factored, and classifying a regime load none.  Those runs load no
    numpy.ma either (np.unique would); scipy.linalg loads it through its
    array-API layer, so the factored one-population run may."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _WATCHED_MODULES.format(body=body)], env=env,
                         capture_output=True, text=True, check=True).stdout
    modules = json.loads(out)
    if schur:
        assert "scipy.linalg" in modules
        assert not [m for m in modules if m.startswith("scipy.signal")]
    else:
        assert modules == []


def _reference_started(*args, **kwargs):
    raise AssertionError("a reference run started before the matrices were assembled")


@pytest.mark.parametrize(
    "raw",
    [
        _tiny("efficiency", {"dt": 0.01, "t_final": 0.1, "m_values": [4], "h_values": [0.125],
                             "reference_m": 6, "repetitions": 1, "n_q": 5}),
        _tiny("compare-fdm", {"m": 4, "dt": 0.01, "t_final": 0.1, "fdm_h": 0.125, "repetitions": 1, "n_q": 5},
              {"method": "fdm", "h": 0.125, "richardson": False}),
        _tiny("convergence-time", {"m": 4, "dt_values": [0.02, 0.01], "t_final": 0.1, "n_q": 5},
              {"method": "self"}),
    ],
    ids=["efficiency", "compare-fdm", "convergence-time-self"],
)
def test_cli_small_n_q_fails_before_reference(tmp_path, capsys, monkeypatch, raw):
    for name in ("fdm_reference", "solve", "solve_twopop"):
        monkeypatch.setattr(experiments, name, _reference_started)
    cfg_path = _write(tmp_path, "cfg.json", raw)
    rc = main([raw["kind"], "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err
    assert "quadrature order 5 too small" in err


@pytest.mark.parametrize(
    "raw, cell",
    [
        (_tiny("convergence-space", {"m_values": [4, 6], "dt": 0.01, "t_final": 3.2},
               {"method": "fdm", "h": 1.0 / 16.0}, model={"population": "one", "a0": 1.0, "a1": 0.0, "b": 3.0},
               blowup_threshold=3.0), "M=6"),
        (_tiny("convergence-time", {"m": 6, "dt_values": [0.02, 0.01], "t_final": 3.2},
               {"method": "fdm", "h": 1.0 / 16.0}, model={"population": "one", "a0": 1.0, "a1": 0.0, "b": 3.0},
               blowup_threshold=3.0), "dt=0.01"),
        # the dt=0.01 cell passes the threshold on its last step: it reaches
        # t_final, but blown up, so it has no error to report either
        (_tiny("convergence-time", {"m": 6, "dt_values": [0.02, 0.01], "t_final": 2.0},
               {"method": "fdm", "h": 1.0 / 16.0}, model={"population": "one", "a0": 1.0, "a1": 0.0, "b": 3.0},
               blowup_threshold=0.2133), "dt=0.01"),
    ],
    ids=["convergence-space", "convergence-time", "convergence-time-last-step-trip"],
)
def test_cli_ladder_cell_that_stopped_is_a_run_failure(tmp_path, capsys, raw, cell):
    cfg_path = _write(tmp_path, "cfg.json", raw)
    rc = main([raw["kind"], "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error-category: run-failed" in err
    assert f"cell at {cell} ended with status blow-up-detected" in err


@pytest.mark.parametrize(
    "raw, run",
    [
        (_tiny("compare-fdm", {"m": 8, "dt": 0.01, "t_final": 0.2, "fdm_h": 1.0 / 16.0, "repetitions": 1},
               {"method": "fdm", "h": 1.0 / 16.0, "richardson": False},
               model={"population": "one", "a0": 1.0, "a1": 0.1, "b": 0.0}, blowup_threshold=0.005),
         "spectral run at M=8"),
        (_tiny("efficiency", {"dt": 0.01, "t_final": 2.0, "m_values": [4], "h_values": [1.0 / 16.0, 1.0 / 32.0],
                              "reference_m": 10, "repetitions": 1},
               model={"population": "one", "a0": 1.0, "a1": 0.0, "b": 3.0}, blowup_threshold=0.2109),
         "fdm run at h=0.03125"),
    ],
    ids=["compare-fdm", "efficiency"],
)
def test_cli_run_that_stopped_before_t_final_is_a_run_failure(tmp_path, capsys, raw, run):
    cfg_path = _write(tmp_path, "cfg.json", raw)
    rc = main([raw["kind"], "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error-category: run-failed" in err
    assert f"{run} ended with status blow-up-detected before t_final" in err


# --- CLI ---------------------------------------------------------------------


def test_cli_twopop_regimes_records_end_on_the_lattice(tmp_path):
    # each sweep cell's last row is step 20 at exactly 20 * 0.01
    raw = _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.2}, model=_TWOPOP_MODEL,
                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": [0.5, 1.0]})
    out = tmp_path / "out"
    assert main(["twopop-regimes", "--config", _write(tmp_path, "cfg.json", raw), "--out", str(out)]) == 0
    for name in ("regime_b0.5.csv", "regime_b1.csv"):
        last_row = (out / name).read_text().splitlines()[-1]
        assert last_row.split(",")[0] == "0.20000000000000001", name


def test_cli_runs_and_is_deterministic(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _base_onepop())
    out = str(tmp_path / "out")
    assert main(["blowup", "--config", cfg_path, "--out", out, "--check-determinism"]) == 0
    assert os.path.exists(os.path.join(out, "blowup_run.csv"))


def test_cli_delayed_twopop_ladder_against_fdm_reference(tmp_path, capsys):
    # every delay a multiple of every ladder dt: the FDM reference picks a
    # step that divides them too, where it used to fail on its own dt
    raw = _shipped_config("convergence_time_twopop.json")
    raw["model"].update(delay_e_to_e=0.04, delay_e_to_i=0.04, delay_i_to_e=0.04, delay_i_to_i=0.04)
    raw["reference"]["h"] = 1.0 / 32.0
    cfg_path = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "out"
    rc = main(["convergence-time", "--config", cfg_path, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["convergence_time_e.csv", "convergence_time_i.csv"]
    for name in os.listdir(out):
        _, cols = parse_table(str(out / name))
        assert np.all(np.isfinite(cols["l2_error"]))


@pytest.mark.parametrize(
    "name, section, key, h",
    [
        ("convergence_time_onepop.json", "reference", "h", 1e-300),
        ("convergence_time_onepop.json", "reference", "h", 1e-160),
        ("compare_fdm_onepop.json", "numerics", "fdm_h", 1e300),
    ],
    ids=["bound-underflows", "step-count-overflows", "no-cell"],
)
def test_parser_rejects_a_spacing_with_no_grid_or_no_step(name, section, key, h):
    raw = _shipped_config(name)
    raw[section][key] = h
    with pytest.raises(ConfigurationError, match="grid spacing"):
        parse_config(raw)


def test_cli_rejects_a_spacing_with_no_step(tmp_path, capsys):
    raw = _shipped_config("convergence_time_onepop.json")
    raw["reference"]["h"] = 1e-300
    cfg_path = _write(tmp_path, "cfg.json", raw)
    assert main([raw["kind"], "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "error-category: config-invalid" in capsys.readouterr().err


def test_parser_rejects_a_model_mode_fdm_reference():
    # the finite-difference oracle has constant diffusion only, so the
    # parser's check of each reference run the config implies rejects it
    raw = _shipped_config("convergence_time_twopop.json")
    raw["model"].update(diffusion_mode="model", d_e_to_e=0.5, d_e_to_i=0.5, d_i_to_e=0.25, d_i_to_i=0.25,
                        nu_ext=2.0)
    with pytest.raises(ConfigurationError, match="constant diffusion"):
        parse_config(raw)


_TINY_EFFICIENCY = _tiny("efficiency", {"dt": 0.01, "t_final": 0.1, "m_values": [4], "h_values": [0.125],
                                         "reference_m": 6, "repetitions": 1})


@pytest.mark.parametrize(
    "raw, stale",
    [(_base_onepop(), True), (_TINY_EFFICIENCY, False)],
    ids=["stale-file-in-out", "efficiency-wall-times"],
)
def test_cli_determinism_check_passes_deterministic_runs(tmp_path, raw, stale):
    out = tmp_path / "out"
    if stale:
        out.mkdir()
        (out / "stale.csv").write_text("left over from an earlier run\n")
    cfg_path = _write(tmp_path, "cfg.json", raw)
    assert main([raw["kind"], "--config", cfg_path, "--out", str(out), "--check-determinism"]) == 0


def test_cli_determinism_check_flags_a_changed_value(tmp_path, capsys, monkeypatch):
    runs = []

    def run_then_perturb(cfg, out_dir, workers=1):
        result = experiments.run_experiment(cfg, out_dir, workers=workers)
        runs.append(out_dir)
        if len(runs) == 2:  # the repeat: move one error value by one ulp
            path = os.path.join(out_dir, "efficiency.csv")
            meta, columns = parse_table(path)
            columns["l2_error"][0] = np.nextafter(columns["l2_error"][0], np.inf)
            emit_table(path, columns, meta)
        return result

    monkeypatch.setattr(cli, "run_experiment", run_then_perturb)
    cfg_path = _write(tmp_path, "cfg.json", _TINY_EFFICIENCY)
    rc = main(["efficiency", "--config", cfg_path, "--out", str(tmp_path / "out"), "--check-determinism"])
    assert rc == 5
    assert len(runs) == 2
    assert "error-category: determinism-violation" in capsys.readouterr().err


def test_cli_missing_config_io_error(tmp_path, capsys):
    rc = main(["blowup", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 4
    assert "error-category: io-error" in capsys.readouterr().err


def test_cli_bad_schema_config_error(tmp_path, capsys):
    cfg_path = _write(tmp_path, "bad.json", {"schema": 5})
    rc = main(["blowup", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "error-category: config-invalid" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '"str"', "null"], ids=["array", "string", "null"])
def test_cli_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    rc = main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error-category: config-invalid: a config must be a JSON object" in capsys.readouterr().err


def _run_started(*args, **kwargs):
    raise AssertionError("a run started before the config was checked")


@pytest.mark.parametrize(
    "detection, message",
    [
        ({"bogus": 1}, "unknown detection key 'bogus'"),
        ({"warmup_fraction": 1.0}, "detection.warmup_fraction must lie in [0, 1)"),
        ({"steady_window_fraction": 0.0}, "detection.steady_window_fraction must lie in (0, 1]"),
        ({"steady_fluctuation": -0.01}, "detection.steady_fluctuation must lie in (0, inf)"),
        ({"peak_amplitude_fraction": float("nan")}, "detection.peak_amplitude_fraction must be a finite number"),
        ({"peak_spacing_tolerance": "wide"}, "detection.peak_spacing_tolerance must be a finite number"),
    ],
    ids=["unknown-key", "warmup-1", "window-0", "fluctuation-negative", "amplitude-nan", "tolerance-string"],
)
def test_cli_bad_detection_fails_before_any_cell(tmp_path, capsys, monkeypatch, detection, message):
    monkeypatch.setattr(experiments, "_run", _run_started)
    raw = _tiny("twopop-regimes", {"m": 6, "dt": 0.01, "t_final": 0.05}, model=_TWOPOP_MODEL,
                initial=_TWOPOP_INITIAL, sweep={"b_e_to_e": [0.5, 1.0]}, detection=detection)
    cfg_path = _write(tmp_path, "cfg.json", raw)
    rc = main(["twopop-regimes", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err
    assert message in err


def test_cli_config_directory_is_an_io_error(tmp_path, capsys):
    rc = main(["blowup", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "error-category: io-error" in capsys.readouterr().err


def test_cli_config_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(json.dumps(_base_onepop(note="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
    rc = main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error-category: config-invalid" in err
    assert "not UTF-8 text" in err


def test_cli_config_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.load raises ValueError on an integer literal of more than 4,300 digits
    text = (Path(__file__).resolve().parent.parent / "configs" / "blowup_onepop.json").read_text(encoding="utf-8")
    m = json.loads(text)["numerics"]["m"]
    text = text.replace(f'"m": {m}', '"m": 1' + "0" * 5000)
    assert "0" * 5000 in text
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    rc = main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error-category: config-invalid: {cfg_path}: not valid JSON" in err
    assert "Traceback" not in err


def test_cli_config_nested_past_the_recursion_limit_is_a_config_error(tmp_path, capsys):
    # json.load raises RecursionError on arrays nested this deep
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[" * 200_000, encoding="utf-8")
    rc = main(["blowup", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error-category: config-invalid: {cfg_path}: not valid JSON" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_workers_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(experiments, "_run", _run_started)
    cfg_path = _write(tmp_path, "cfg.json", _base_onepop())
    rc = main(["blowup", "--config", cfg_path, "--out", str(tmp_path / "out"), "--workers", workers])
    assert rc == 2
    assert f"workers must be a positive integer, got {workers}" in capsys.readouterr().err


_SECTIONS = ("domain", "model", "initial", "numerics", "reference", "detection", "sweep")


def _without_dt(cfg):
    del cfg["numerics"]["dt"]


def _set(section, key, value):
    def edit(cfg):
        cfg.setdefault(section, {})[key] = value
    return edit


def _replace(key, value):
    def edit(cfg):
        cfg[key] = value
    return edit


def _twopop(key, value):
    def edit(cfg):
        cfg["model"] = {"population": "two", "b_e_to_e": 0.5, key: value}
    return edit


def _twopop_initial(initial):
    def edit(cfg):
        cfg["model"] = {"population": "two", "b_e_to_e": 0.5}
        cfg["initial"] = initial
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("model", "a0", -1.0),
        _set("model", "a0", float("nan")),
        _set("model", "a1", float("inf")),
        _set("model", "b", float("-inf")),
        _set("numerics", "dt", float("nan")),
        _set("numerics", "t_final", float("inf")),
        _set("initial", "sigma0_sq", float("nan")),
        _set("initial", "v0", float("inf")),
        _set("domain", "v_threshold", float("inf")),
        _set("numerics", "n_q", 5),
        _twopop("b_i_to_e", float("nan")),
        _twopop("nu_ext", float("inf")),
        _twopop("a0", 1.0),
        _without_dt,
        *[_replace(section, [1]) for section in _SECTIONS],
        _replace("snapshot_times", 0.05),
        _replace("sweep", {"b_e_to_e": 0.5}),
        _set("detection", "bogus", 1),
        _replace("snapshot_time", [0.05]),
        _set("domain", "v_thresold", 2.0),
        _set("numerics", "dt_vaules", [0.01]),
        _set("reference", "H", 0.01),
        _set("reference", "method", "FDM"),
        _set("reference", "richardson", 1),
        _set("initial", "sigma_sq", 0.5),
        _set("model", "B", 3.0),
        _set("sweep", "b_e_to_ee", [1.0]),
        _twopop_initial({"e": _ONEPOP_INITIAL, "i": _ONEPOP_INITIAL, "x": _ONEPOP_INITIAL}),
        _twopop_initial({"e": {**_ONEPOP_INITIAL, "mean": 0.0}, "i": _ONEPOP_INITIAL}),
        _replace("numerics", {"m": 8, "dt": True, "t_final": True}),
        _set("model", "a0", True),
        _replace("blowup_threshold", True),
        _set("initial", "v0", 50.0),
        _set("numerics", "m", 200),
        _set("numerics", "n_q", 500),
        _replace("numerics", {"m": 8, "dt": 1e-9, "t_final": 1e3}),
        _set("initial", "sigma0_sq", 1e-12),
        _set("initial", "v0", -1e6),
    ],
    ids=[
        "a0-negative", "a0-nan", "a1-inf", "b-minus-inf", "dt-nan", "t_final-inf",
        "sigma0_sq-nan", "v0-inf", "v_threshold-inf", "n_q-too-small", "twopop-nan", "twopop-inf", "twopop-unknown-key",
        "missing-dt", *[f"{section}-array" for section in _SECTIONS], "snapshot_times-scalar", "sweep-scalar",
        "detection-unknown-key", "top-level-unknown-key", "domain-unknown-key", "numerics-unknown-key",
        "reference-unknown-key", "reference-method-uppercase", "richardson-not-bool", "initial-unknown-key",
        "model-unknown-key", "sweep-unknown-key", "initial-twopop-unknown-key", "initial-e-unknown-key",
        "dt-and-t_final-true", "a0-true", "blowup_threshold-true", "no-mass-below-threshold",
        "m-past-laguerre-range", "n_q-past-laguerre-range", "steps-past-bound", "projection-massless-narrow",
        "projection-massless-far-left",
    ],
)
def test_cli_bad_config_values_are_config_errors(tmp_path, capsys, edit):
    cfg = _base_onepop()
    edit(cfg)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    rc = main(["blowup", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error-category: config-invalid" in capsys.readouterr().err


def test_cli_bad_twopop_model_value_names_its_key_path(tmp_path, capsys):
    cfg = _base_onepop(model={**_EXPONENTIAL, "tau_e": -1.0}, initial=_TWOPOP_INITIAL)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    assert main(["blowup", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "error-category: config-invalid: model.tau_e must lie in (0, inf)" in capsys.readouterr().err


def test_cli_kind_mismatch(tmp_path, capsys):
    cfg_path = _write(tmp_path, "cfg.json", _base_onepop())
    rc = main(["stability-grid", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "config-invalid" in capsys.readouterr().err


def test_cli_dump_matrices(tmp_path):
    out = str(tmp_path / "mats")
    assert main(["dump-matrices", "--m", "4", "--out", out]) == 0
    got = np.loadtxt(os.path.join(out, "H.csv"), delimiter=",")
    assert got.shape == (9, 9)


def test_cli_dump_matrices_past_laguerre_range(tmp_path, capsys):
    assert main(["dump-matrices", "--m", "200", "--out", str(tmp_path / "mats")]) == 2
    assert "error-category: config-invalid: quadrature order 408 too large" in capsys.readouterr().err


def test_cli_dump_matrices_infinite_left_scale(tmp_path, capsys):
    # an infinite scale once gave NaN matrices and exit 0
    out = tmp_path / "mats"
    assert main(["dump-matrices", "--m", "4", "--left-scale", "inf", "--out", str(out)]) == 2
    assert "error-category: config-invalid: left_scale must be a finite number" in capsys.readouterr().err
    assert not out.exists() or not list(out.glob("*.csv"))


def test_shipped_configs_parse(perfbench_workloads):
    base = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(base))
    assert len(names) == 9
    for name in names:
        cfg = load_config(os.path.join(base, name))
        assert cfg.kind in (
            "convergence-time", "convergence-space", "stability-grid",
            "efficiency", "blowup", "twopop-regimes", "compare-fdm",
        )
    # the benchmark's workload configs, as run and as smoke-tested
    perfbench = perfbench_workloads
    assert sorted(perfbench.WORKLOADS) == ["grid", "onepop-long", "oracle", "regimes"]
    for workload in perfbench.WORKLOADS.values():
        for smoke in (False, True):
            cfg = parse_config(workload.config(perfbench.DEFAULT_SEED, smoke=smoke))
            assert cfg.kind == workload.base["kind"]


def _script(name):
    """``scripts/<name>.py``, loaded as a module."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_claim_holds_needs_nine_in_ten_pairs_and_a_gap_past_the_iqr():
    ab = _script("ab")
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    assert ab.claim_holds(parent, [p - 0.5 for p in parent], True) == (10, True)
    # better in every pair, but by less than the parent's spread
    assert ab.claim_holds(parent, [p - 0.01 for p in parent], True) == (10, False)
    # better in 8 of 10 pairs only
    assert ab.claim_holds(parent, [p - 0.5 for p in parent[:8]] + parent[8:], True) == (8, False)
    # higher is better
    assert ab.claim_holds(parent, [p + 0.5 for p in parent], False) == (10, True)


def test_ab_prints_a_verdict_for_each_seed(tmp_path, monkeypatch, capsys):
    ab = _script("ab")
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        tree.mkdir()
    end_to_end = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]
    (trees["parent"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": end_to_end}))
    calls = []

    def fake_run(tree, args, seed):
        calls.append((tree.name, seed))
        # the change is twice as fast at seed 0 and as fast at seed 2
        value = 1.0 + 0.01 * len(calls)
        if tree.name == "change" and seed == 0:
            value /= 2.0
        return {"metrics": {"run_s": {"value": value}}, "failed": 0, "attempted": 3, "correct": True}

    monkeypatch.setattr(ab, "run", fake_run)
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]), "--workload", "regimes",
            "--seeds", "0", "2", "--pairs", "4"]
    assert ab.main(argv) == 0
    out = capsys.readouterr().out
    assert "workload regimes, seed 0, 4 pairs" in out and "workload regimes, seed 2, 4 pairs" in out
    assert "verdict, seed 0: run_s gain holds: True" in out
    assert "verdict, seed 2: run_s gain holds: False" in out
    # every pair alternates which side runs first, one seed after the other
    first = [("parent", 0), ("change", 0), ("change", 0), ("parent", 0)]
    assert calls == first * 2 + [(side, 2) for side, _ in first * 2]
    # --seed, as before, runs one seed
    calls.clear()
    assert ab.main(argv[:6] + ["--seed", "2", "--pairs", "2"]) == 0
    assert calls == [("parent", 2), ("change", 2), ("change", 2), ("parent", 2)]
    assert "verdict, seed 2: run_s gain holds: False" in capsys.readouterr().out


def _table(path, rows, meta=("# kind=demo",), header="label,x,wall_time_s"):
    path.write_text("\n".join([*meta, header, *rows]) + "\n", encoding="utf-8")
    return path


def test_same_outputs_compares_tables_column_by_column(tmp_path):
    same = _script("same_outputs")
    rows = ["a,1.0,0.5", "b,-2.0,0.25", "c,nan,0.1"]
    parent = _table(tmp_path / "parent.csv", rows)

    def compare(rows, **table):
        return same.compare_file(parent, _table(tmp_path / "change.csv", rows, **table), 1e-9)

    assert compare(rows) == (True, "byte-identical", 0.0)
    assert compare(["a,1.0,9", "b,-2.0,9", "c,nan,9"]) == (True, "identical but for wall_time_s", 0.0)
    # a move is max |a - b| over the column's largest |b|, here 2
    passes, verdict, worst = compare(["a,1.000000000004,0.5", "b,-2.0,0.25", "c,nan,0.1"])
    assert passes and worst == pytest.approx(2e-12, rel=1e-3) and verdict == "within rtol 1e-09: x 2e-12"
    passes, verdict, worst = compare(["a,1.0,0.5", "b,-2.00002,0.25", "c,nan,0.1"])
    assert not passes and worst == pytest.approx(1e-5, rel=1e-3) and verdict.startswith("PAST rtol 1e-09")
    # labels, non-finite cells, provenance text, keys and header, and the row count
    for changed, table in [
        (["z,1.0,0.5", *rows[1:]], {}),
        ([*rows[:2], "c,inf,0.1"], {}),
        ([*rows[:2], "c,0.0,0.1"], {}),
        (rows, {"meta": ("# kind=other",)}),
        (rows, {"meta": ("# sort=demo",)}),
        (rows, {"header": "label,y,wall_time_s"}),
        (rows[:2], {}),
    ]:
        assert compare(changed, **table)[0] is False, (changed, table)
    # a numeric provenance value is a column of one cell
    parent = _table(tmp_path / "parent.csv", rows, meta=("# fit_slope=-0.5",))
    assert compare(rows, meta=("# fit_slope=-0.5000000000001",))[:2] == (True, "within rtol 1e-09: # fit_slope 2e-13")
    assert compare(rows, meta=("# fit_slope=-0.6",))[0] is False


def test_same_outputs_quick_coarsens_only_the_finite_volume_spacings():
    same = _script("same_outputs")
    configs = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(configs.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        coarse = same.quick(raw)
        parse_config(coarse)  # the parser takes every coarsened config
        for section in ("reference", "numerics"):
            for key, value in (raw.get(section) or {}).items():
                if key in ("h", "fdm_h"):
                    assert coarse[section][key] == 16 * value
                elif key == "h_values":
                    assert coarse[section][key] == [16 * h for h in value]
                else:
                    assert coarse[section][key] == value
        assert {k: v for k, v in coarse.items() if k not in ("reference", "numerics")} \
            == {k: v for k, v in raw.items() if k not in ("reference", "numerics")}


def test_same_outputs_prints_a_verdict_per_file_and_exits_1_past_the_tolerance(tmp_path, monkeypatch, capsys):
    same = _script("same_outputs")
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "configs").mkdir(parents=True)
        for name in ("one", "two"):
            (tree / "configs" / f"{name}.json").write_text(json.dumps({"kind": "blowup"}))
    moved = {"value": "1.0000000001"}

    def fake_run(tree, config, out):
        out.mkdir()
        _table(out / "run.csv", [f"a,{moved['value'] if tree.name == 'change' else '1.0'},0.5"])
        _table(out / "labels.csv", ["a,1.0,0.5"])
        return 0, "", 0.1

    monkeypatch.setattr(same, "run_config", fake_run)
    argv = ["--src", str(trees["parent"]), "--src", str(trees["change"])]
    assert same.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["one/labels.csv: byte-identical", "one/run.csv: within rtol 1e-09: x 1e-10"]
    assert out[-1].startswith("overall: 4 files, 2 byte-identical, 2 more within rtol 1e-09, 0 past it")
    assert out[-1].endswith("same outputs")
    assert same.main([*argv, "--rtol", "1e-11"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("OUTPUTS DIFFER")
    # a run that fails in either tree fails the comparison
    monkeypatch.setattr(same, "run_config", lambda tree, config, out: (2, "error-category: config-invalid: x", 0.1))
    assert same.main(argv) == 1
    assert "exited 2" in capsys.readouterr().out


def test_loc_prints_the_package_modules_and_the_tests_and_scripts_totals(capsys):
    loc = _script("loc")
    assert loc.main([]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()[1:]}
    assert "experiments.py" in rows and "total" in rows
    # one line each for tests/ and scripts/, this file and loc.py among them
    here = loc.count(Path(__file__).read_text(encoding="utf-8"))
    assert int(rows["tests/"][0]) > here[0] and int(rows["tests/"][1]) > here[1]
    assert int(rows["scripts/"][1]) > loc.count(Path(loc.__file__).read_text(encoding="utf-8"))[1]
