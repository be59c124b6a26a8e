"""Workload definitions: generated experiment configs, their cells, and the
seed-independent invariants every run's outputs must satisfy.

Each workload is one shipped experiment kind, resized so that a run takes
about half a second to a second, and chosen so that one solver layer
dominates it (see ``perfbench/README.md``).  Short runs give a window of
``--seconds`` a few dozen samples, whose median is steadier on a shared host
than that of a few long runs.  Seed 0 gives exactly the inputs the goldens were
recorded from; any other seed perturbs the initial Gaussians (v0 by up to
+-0.05, sigma0^2 by up to +-5%), which changes the numbers but not the amount
of work.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from checks import read_csv

DEFAULT_SEED = 0

STATUSES = ("completed", "blow-up-detected", "solver-failure")
REGIMES = ("periodic", "steady", "blow-up", "ambiguous")

# Total mass (density plus refractory) is conserved by the model; the
# spectral schemes keep it to ~5e-4 over these horizons (seed 0).
MASS_DRIFT_TOL = 1e-2

_TWOPOP_IC = {"e": {"v0": -1.0, "sigma0_sq": 0.5}, "i": {"v0": -1.0, "sigma0_sq": 0.5}}
_ONEPOP_IC = {"v0": -1.0, "sigma0_sq": 0.5}

# configs/twopop_regimes.json with t_final 10 -> 0.2 (smoke: 0.01)
_REGIMES = {
    "schema": 1,
    "kind": "twopop-regimes",
    "model": {
        "population": "two",
        "b_e_to_e": 3.5, "b_e_to_i": 4.0, "b_i_to_e": 0.75, "b_i_to_i": 3.0,
        "nu_ext": 20.0, "tau_e": 0.025, "tau_i": 0.025,
        "delay_e_to_e": 0.1, "delay_e_to_i": 0.1, "delay_i_to_e": 0.1, "delay_i_to_i": 0.1,
        "diffusion_mode": "constant", "diffusion_constant": 1.0,
        "refractory_mode": "exponential",
    },
    "initial": _TWOPOP_IC,
    "numerics": {"m": 16, "dt": 0.0001, "t_final": 0.2},
    "sweep": {"b_e_to_e": [3.5, 3.82, 4.0]},
    "blowup_threshold": 1000.0,
}

# configs/convergence_time_onepop.json with reference.h 1/512 -> 1/80
# (smoke: 1/32); the Richardson (h, h/2) pair is kept
_ORACLE = {
    "schema": 1,
    "kind": "convergence-time",
    "model": {"population": "one", "a0": 1.0, "a1": 0.1, "b": 0.0},
    "initial": _ONEPOP_IC,
    "numerics": {"m": 16, "dt_values": [0.04, 0.02, 0.01, 0.005], "t_final": 0.2},
    "reference": {"method": "fdm", "h": 0.0125, "richardson": True, "v_min": -6.0},
}

# configs/stability_grid_onepop.json with the self reference and its two
# largest time steps: 11 M x 2 dt = 22 cells (smoke: a 2 x 2 corner)
_GRID = {
    "schema": 1,
    "kind": "stability-grid",
    "model": {"population": "one", "a0": 1.0, "a1": 0.1, "b": 0.0},
    "initial": _ONEPOP_IC,
    "numerics": {
        "m_values": [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        "dt_values": [0.1, 0.05],
        "t_final": 0.2,
    },
    "reference": {"method": "self"},
    "bound": 0.2,
}

# a one-population blow-up-kind run that settles to a steady state over a
# long horizon, T=5 at dt=1e-3 (smoke: t_final 0.05)
_ONEPOP_LONG = {
    "schema": 1,
    "kind": "blowup",
    "model": {"population": "one", "a0": 1.0, "a1": 0.1, "b": 0.5},
    "initial": _ONEPOP_IC,
    "numerics": {"m": 16, "dt": 0.001, "t_final": 5.0},
    "snapshot_times": [1.0, 2.5, 5.0],
}


def _smoke_regimes(raw):
    raw["numerics"]["t_final"] = 0.01


def _smoke_oracle(raw):
    raw["reference"]["h"] = 0.03125


def _smoke_grid(raw):
    raw["numerics"]["m_values"] = [3, 4]


def _smoke_onepop_long(raw):
    raw["numerics"]["t_final"] = 0.05
    raw["snapshot_times"] = [0.01, 0.05]


def _perturb(ic: dict, rng: np.random.Generator) -> None:
    ic["v0"] = ic["v0"] + float(rng.uniform(-0.05, 0.05))
    ic["sigma0_sq"] = ic["sigma0_sq"] * (1.0 + float(rng.uniform(-0.05, 0.05)))


# ---------------------------------------------------------------------------
# cells: one experiment cell is one operation of the benchmark


def _regimes_cells(raw):
    return [f"b_e_to_e={v:g}" for v in raw["sweep"]["b_e_to_e"]]


def _regimes_layout(raw):
    files = {f"regime_b{v:g}.csv": i for i, v in enumerate(raw["sweep"]["b_e_to_e"])}
    files["regimes.csv"] = "rows"
    return files


def _oracle_cells(raw):
    return [f"dt={dt:g}" for dt in raw["numerics"]["dt_values"]]


def _grid_cells(raw):
    num = raw["numerics"]
    return [f"m={m},dt={dt:g}" for m in num["m_values"] for dt in num["dt_values"]]


def _onepop_long_layout(raw):
    files = {"blowup_run.csv": 0}
    for ts in raw["snapshot_times"]:
        files[f"density_t{ts:g}.csv"] = 0
    return files


# ---------------------------------------------------------------------------
# seed-independent invariants; each returns {cell index: reason}


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=float))))


def _load(out_dir, name, bad, cell_ids):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        for c in cell_ids:
            bad.setdefault(c, f"{name} missing")
        return None, None
    return read_csv(path)


def _regimes_invariants(raw, out_dir):
    bad = {}
    values = raw["sweep"]["b_e_to_e"]
    n_steps = round(raw["numerics"]["t_final"] / raw["numerics"]["dt"])
    _, table = _load(out_dir, "regimes.csv", bad, range(len(values)))
    if table is not None:
        if list(table.get("b_e_to_e", [])) != list(values):
            return {i: "regimes.csv rows do not match the sweep" for i in range(len(values))}
        for i, label in enumerate(table["regime"]):
            if label not in REGIMES:
                bad[i] = f"invalid regime label {label!r}"
    for i, v in enumerate(values):
        meta, cols = _load(out_dir, f"regime_b{v:g}.csv", bad, [i])
        if cols is None:
            continue
        status = meta.get("status")
        if status not in STATUSES:
            bad[i] = f"invalid status {status!r}"
        # a run that blew up or stopped owes no finite or conserved series
        if status != "completed":
            continue
        if cols["t"].size != n_steps + 1:
            bad[i] = f"completed run has {cols['t'].size} rows, expected {n_steps + 1}"
        for name in ("rate_e", "rate_i", "mass_e", "mass_i", "refractory_e", "refractory_i"):
            if not _finite(cols[name]):
                bad[i] = f"non-finite {name}"
        for pop in ("e", "i"):
            total = cols[f"mass_{pop}"] + cols[f"refractory_{pop}"]
            drift = float(np.max(np.abs(total - total[0])))
            if not drift <= MASS_DRIFT_TOL:
                bad[i] = f"mass+refractory drift {drift:.3e} in population {pop}"
    return bad


def _oracle_invariants(raw, out_dir):
    ladder = raw["numerics"]["dt_values"]
    bad = {}
    _, cols = _load(out_dir, "convergence_time.csv", bad, range(len(ladder)))
    if cols is None:
        return bad
    if cols["dt"].size != len(ladder) or not np.array_equal(cols["dt"], ladder):
        return {i: "ladder rows do not match numerics.dt_values" for i in range(len(ladder))}
    for name in ("l2_error", "linf_error"):
        err = cols[name]
        order = cols["order_" + name[:-6]]
        for i in range(len(ladder)):
            if not (math.isfinite(err[i]) and err[i] > 0):
                bad[i] = f"{name} {err[i]!r} is not a positive number"
            # first-order time stepping, independent of the initial data
            elif i > 0 and not 0.5 < order[i] < 1.5:
                bad[i] = f"observed {name[:-6]} order {order[i]!r} outside (0.5, 1.5)"
    return bad


def _grid_invariants(raw, out_dir):
    num = raw["numerics"]
    pairs = [(m, dt) for m in num["m_values"] for dt in num["dt_values"]]
    bad = {}
    _, cols = _load(out_dir, "stability_grid.csv", bad, range(len(pairs)))
    if cols is None:
        return bad
    got = list(zip(cols["m"].tolist(), cols["dt"].tolist()))
    if got != [(float(m), float(dt)) for m, dt in pairs]:
        return {i: "grid rows do not match (m_values x dt_values)" for i in range(len(pairs))}
    bound = raw.get("bound", 0.2)
    for i, (status, err, flag) in enumerate(zip(cols["status"], cols["l2_error"], cols["exceeds_bound"])):
        if status not in STATUSES:
            bad[i] = f"invalid status {status!r}"
        elif status == "completed" and not (math.isfinite(err) and err >= 0):
            bad[i] = f"completed cell has l2_error {err!r}"
        elif int(flag) != int(status != "completed" or err > bound):
            bad[i] = "exceeds_bound flag inconsistent with l2_error"
    return bad


def _onepop_long_invariants(raw, out_dir):
    bad = {}
    meta, cols = _load(out_dir, "blowup_run.csv", bad, [0])
    if cols is None:
        return bad
    status = meta.get("status")
    if status not in STATUSES:
        return {0: f"invalid status {status!r}"}
    n_steps = round(raw["numerics"]["t_final"] / raw["numerics"]["dt"])
    if status == "completed":
        if cols["t"].size != n_steps + 1:
            return {0: f"completed run has {cols['t'].size} rows, expected {n_steps + 1}"}
        if not (_finite(cols["rate"]) and _finite(cols["mass"])):
            return {0: "non-finite rate or mass"}
        drift = float(np.max(np.abs(cols["mass"] - cols["mass"][0])))
        if not drift <= MASS_DRIFT_TOL:
            return {0: f"mass drift {drift:.3e}"}
        for ts in raw["snapshot_times"]:
            _, snap = _load(out_dir, f"density_t{ts:g}.csv", bad, [0])
            if snap is not None and not _finite(snap["density"]):
                bad[0] = f"non-finite density at t={ts:g}"
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    shrink_for_smoke: Callable[[dict], None]
    cells: Callable[[dict], list]
    # output file -> index of the cell it belongs to, or "rows" when row i
    # of the table is cell i
    layout: Callable[[dict], dict]
    invariants: Callable[[dict, str], dict]

    def config(self, seed: int, smoke: bool = False) -> dict:
        raw = copy.deepcopy(self.base)
        if smoke:
            self.shrink_for_smoke(raw)
        if seed != DEFAULT_SEED:
            rng = np.random.default_rng(seed)
            ics = raw["initial"].values() if "e" in raw["initial"] else [raw["initial"]]
            for ic in ics:
                _perturb(ic, rng)
        return raw


WORKLOADS = {
    w.name: w
    for w in (
        Workload("regimes", _REGIMES, _smoke_regimes, _regimes_cells, _regimes_layout,
                 _regimes_invariants),
        Workload("oracle", _ORACLE, _smoke_oracle, _oracle_cells,
                 lambda raw: {"convergence_time.csv": "rows"}, _oracle_invariants),
        Workload("grid", _GRID, _smoke_grid, _grid_cells,
                 lambda raw: {"stability_grid.csv": "rows"}, _grid_invariants),
        Workload("onepop-long", _ONEPOP_LONG, _smoke_onepop_long, lambda raw: ["run"],
                 _onepop_long_layout, _onepop_long_invariants),
    )
}
