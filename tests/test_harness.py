import json
import math
import os

import numpy as np
import pytest

from nnlif import experiments
from nnlif.basis import BasisSet
from nnlif.assembly import assemble, normalize_gaussian
from nnlif.cli import main
from nnlif.errors import ConfigurationError
from nnlif.experiments import (
    classify_regime,
    load_config,
    parse_config,
    run_experiment,
)
from nnlif.norms import norm_grid
from nnlif.onepop import OnePopParams, solve
from nnlif.records import emit_table, parse_table
from nnlif.twopop import TwoPopRunRecord


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
        parse_config(_base_onepop(kind="compare-fdm", model=twopop))
    with pytest.raises(ConfigurationError, match="two-population"):
        parse_config(_base_onepop(kind="twopop-regimes", sweep={"b_e_to_e": [0.5]}))


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
    with pytest.raises(ConfigurationError, match="integer multiple"):
        parse_config(cfg)


# --- classifier --------------------------------------------------------------


def _fake_record(rate_e, rate_i, status="completed", trip_e=None, trip_i=None):
    n = len(rate_i)
    return TwoPopRunRecord(
        times=np.linspace(0.0, 10.0, n),
        rate_e=np.asarray(rate_e, dtype=float),
        rate_i=np.asarray(rate_i, dtype=float),
        mass_e=np.ones(n),
        mass_i=np.ones(n),
        refractory_e=np.zeros(n),
        refractory_i=np.zeros(n),
        status=status,
        trip_time_e=trip_e,
        trip_time_i=trip_i,
    )


def test_classifier_blowup_label():
    rec = _fake_record([1.0] * 11, [1.0] * 11, status="blow-up-detected", trip_e=4.0)
    out = classify_regime(rec)
    assert out["regime"] == "blow-up"
    assert out["trip_time_e"] == 4.0


def test_classifier_periodic_label():
    t = np.linspace(0.0, 10.0, 5001)
    sig = 2.0 + 1.5 * np.sin(2 * np.pi * t / 1.3)
    rec = _fake_record(sig, sig)
    out = classify_regime(rec)
    assert out["regime"] == "periodic"
    assert out["n_peaks"] >= 3
    assert out["spacing_spread"] <= 0.2


def test_classifier_steady_label():
    n = 5001
    base = np.concatenate([np.linspace(2.0, 0.8, 1000), np.full(n - 1000, 0.8)])
    rec = _fake_record(base, base)
    out = classify_regime(rec)
    assert out["regime"] == "steady"
    assert out["fluctuation_i"] < 0.01


def test_classifier_ambiguous_label():
    t = np.linspace(0.0, 10.0, 5001)
    drifting = 1.0 + 0.3 * t  # no peaks, not settling
    rec = _fake_record(drifting, drifting)
    assert classify_regime(rec)["regime"] == "ambiguous"


def test_classifier_irregular_peaks_not_periodic(rng):
    t = np.linspace(0.0, 10.0, 5001)
    sig = np.full(t.size, 2.0)
    for center in (2.0, 3.1, 6.9, 9.4):  # erratic spacing
        sig += 1.2 * np.exp(-((t - center) ** 2) / 0.005)
    out = classify_regime(_fake_record(sig, sig))
    assert out["regime"] == "ambiguous"


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
_TWOPOP_INITIAL = {"e": {"v0": -1.0, "sigma0_sq": 0.5}, "i": {"v0": 0.0, "sigma0_sq": 0.25}}


def _tiny(kind, numerics, reference=None, model=_ONEPOP_MODEL, initial=_ONEPOP_INITIAL, **extra):
    raw = {"schema": 1, "kind": kind, "model": model, "initial": initial, "numerics": numerics, **extra}
    if reference is not None:
        raw["reference"] = reference
    return raw


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


def test_matrices_assembled_once_per_distinct_m(tmp_path, monkeypatch):
    calls = []

    def counting_assemble(basis, n_q=None):
        calls.append(basis.m)
        return assemble(basis, n_q)

    monkeypatch.setattr(experiments, "assemble", counting_assemble)
    raw = _tiny("stability-grid", {"m": 6, "m_values": [4, 5, 6], "dt_values": [0.05, 0.025], "t_final": 0.1},
                {"method": "self", "dt": 0.0125})
    res = run_experiment(parse_config(raw), str(tmp_path / "res"))
    assert len(res["l2_error"]) == 6
    assert sorted(calls) == [4, 5, 6]


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


# --- CLI ---------------------------------------------------------------------


def test_cli_runs_and_is_deterministic(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json", _base_onepop())
    out = str(tmp_path / "out")
    assert main(["blowup", "--config", cfg_path, "--out", out, "--check-determinism"]) == 0
    assert os.path.exists(os.path.join(out, "blowup_run.csv"))


def test_cli_missing_config_io_error(tmp_path, capsys):
    rc = main(["blowup", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 4
    assert "error-category: io-error" in capsys.readouterr().err


def test_cli_bad_schema_config_error(tmp_path, capsys):
    cfg_path = _write(tmp_path, "bad.json", {"schema": 5})
    rc = main(["blowup", "--config", cfg_path, "--out", str(tmp_path)])
    assert rc == 2
    assert "error-category: config-invalid" in capsys.readouterr().err


def _without_dt(cfg):
    del cfg["numerics"]["dt"]


def _set(section, key, value):
    def edit(cfg):
        cfg.setdefault(section, {})[key] = value
    return edit


def _twopop(key, value):
    def edit(cfg):
        cfg["model"] = {"population": "two", "b_e_to_e": 0.5, key: value}
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
    ],
    ids=[
        "a0-negative", "a0-nan", "a1-inf", "b-minus-inf", "dt-nan", "t_final-inf",
        "sigma0_sq-nan", "v0-inf", "v_threshold-inf", "n_q-too-small", "twopop-nan", "twopop-inf", "twopop-unknown-key",
        "missing-dt",
    ],
)
def test_cli_bad_config_values_are_config_errors(tmp_path, capsys, edit):
    cfg = _base_onepop()
    edit(cfg)
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    rc = main(["blowup", "--config", cfg_path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error-category: config-invalid" in capsys.readouterr().err


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


def test_shipped_configs_parse():
    base = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(base))
    assert len(names) == 9
    for name in names:
        cfg = load_config(os.path.join(base, name))
        assert cfg.kind in (
            "convergence-time", "convergence-space", "stability-grid",
            "efficiency", "blowup", "twopop-regimes", "compare-fdm",
        )
