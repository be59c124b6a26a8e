"""The one time-integration loop shared by every solver.

A model hands :func:`integrate` a list of :class:`Stepper` objects, each
with its record layout, initial state, pure step, observables and
densities.  The loop owns the rest: the record buffers, the states kept at
snapshot times, solver-failure handling, the loop timer and the trip
policy, and it returns one :class:`RunRecord` per stepper, for every model.
The list is a lockstep batch of independent runs, each with its own
record, trips and stop; a run that stops leaves the batch.  Every run's
record columns are rows of one (runs, columns, n + 1) buffer.  Two or more
runs whose model steps them as arrays (:meth:`Stepper.lockstep`: a
factored two-population sweep) take one batch step per time step, whose
state the loop holds; it writes column n of every live run with one
assignment and tests them all for a trip or a non-finite mass with one
comparison over their rates and one over their masses.  Only a step where
some run trips or has tripped, goes non-finite, reaches a snapshot time or
raises a solver error goes through the runs' own states: the per-run trip
policy and snapshots, and after a solver error a step of each run alone,
so that the error ends only the run that raised it.  A lone run, and runs
without an array batch, step each with :meth:`Stepper.step`.  Each run of
a batch records the bytes it records alone.
The loop is the only clock: step n is at n·dt, in the time column and the
trip times.  A population trips when its rate passes the blow-up threshold;
the run stops when every population has tripped, when the state goes
non-finite (the populations not yet tripped trip then), or once the steps
since the first trip span more than ``_POST_TRIP_WINDOW``, which gives
near-simultaneous events a trip time each.
Status "completed" means the run reached t_final with no population tripped:
a run with a trip ends "blow-up-detected" even when it reaches t_final, and
only a completed run has a density at t_final
(:meth:`RunRecord.final_density`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, NamedTuple, Protocol

import numpy as np

from .errors import (ConfigurationError, LinearSolveError, NnlifError, NonpositiveDiffusionError,
                     SingularFiringRateError, check_finite, check_positive)

DEFAULT_BLOWUP_THRESHOLD = 1e3
_POST_TRIP_WINDOW = 1.0
# the most steps one run may take: the record holds a float per step and
# column, so this bounds it near 80 MB a column; 19x the largest run the
# test suite makes (514,003 steps, the fine FDM reference at h = 1/1024)
MAX_STEPS = 10**7

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blow-up-detected"
STATUS_SOLVER_FAILURE = "solver-failure"

# errors of a single step that end the run with a status instead of raising
_SOLVER_ERRORS = (SingularFiringRateError, LinearSolveError, NonpositiveDiffusionError)


class Layout(NamedTuple):
    """Names of a run's CSV columns, in ``observe`` order with one rate per
    population first, and of its trip times, one per population."""

    columns: tuple[str, ...]
    trips: tuple[str, ...]


ONE_POPULATION = Layout(("rate", "mass"), ("blowup_time",))
TWO_POPULATIONS = Layout(
    ("rate_e", "rate_i", "mass_e", "mass_i", "refractory_e", "refractory_i"), ("trip_time_e", "trip_time_i")
)


@dataclass(frozen=True)
class DensitySnapshot:
    """Density at time ``t`` on the comparison ``grid``: shape (n,) for one
    population, (2, n) with rows E, I for two."""

    t: float
    grid: np.ndarray
    density: np.ndarray


@dataclass
class RunRecord:
    """Every recorded step of one run, whatever its model.

    ``times`` holds n·dt for step n.  ``columns`` maps the layout's column
    names to per-step series and ``trips`` its trip keys to the time k·dt of
    the step k at which each population passed the blow-up threshold (None
    if it did not); ``wall_time`` covers the stepping loop only, from its
    start to the run's stop: for a run of a lockstep batch, its share of
    the loop time, which is split evenly among the runs in the batch while
    they step together.
    ``snapshots`` holds the densities at the snapshot times reached.
    """

    times: np.ndarray
    columns: dict[str, np.ndarray]
    trips: dict[str, float | None]
    status: str
    wall_time: float
    dt: float
    snapshots: list[DensitySnapshot]

    def final_density(self, what: str) -> np.ndarray:
        """The density at t_final, which the caller made the run's last
        snapshot time; raises :class:`NnlifError` naming ``what`` unless the
        run completed, since a run that stopped or tripped has no error to
        report at t_final."""
        if self.status != STATUS_COMPLETED:
            raise NnlifError(f"{what} ended with status {self.status} before t_final or tripped by it")
        return self.snapshots[-1].density


class Stepper(Protocol):
    """One model as :func:`integrate` drives it, in the space of either solver:
    ``onepop._OnePop`` or ``twopop._TwoPop``, each written once for both.

    A stepper is immutable: it holds what its run needs from construction,
    and no method writes to it.  ``layout`` names the record's columns and
    trips.  ``start`` is pure: it gets the record's rate columns, one per
    population, and returns the initial state; entry k of a column holds
    the rate of step k once that step is recorded, so a step may read the
    entries before its own index.  ``step`` returns the next state without
    modifying its argument; the loop keeps time.  ``lockstep``, needed only
    by a model whose runs go in lockstep batches (the two-population
    sweep), gives two or more steppers of this model that share one space,
    dt and factored operator, self first, at ``states``, all at one step,
    and whose columns are the rows ``rows`` of the loop's ``record``, as one
    array batch and its state; or None, and they then step alone.  The
    batch's ``step`` returns the next batch state, each cell bit for bit
    what ``step`` gives it; ``observe`` returns the (cells, columns) array
    of its values in the layout's order, and ``unpack`` each cell's own
    state.  The loop holds the batch state.  ``observe`` returns a state's
    values in the layout's column order: the rates, as many masses, then
    optionally as many refractory masses; a mass is non-finite whenever any
    entry of its density is, so finiteness is tested on it.  ``densities`` returns the
    state's density on ``space.out_grid`` in the :class:`DensitySnapshot` shape.
    """

    layout: Layout
    space: Any

    def start(self, rates: list[np.ndarray]) -> Any: ...

    def step(self, state: Any) -> Any: ...

    def lockstep(self, cells: list, states: list, record: np.ndarray, rows: list) -> tuple | None: ...

    def observe(self, state: Any) -> tuple[float, ...]: ...

    def densities(self, state: Any) -> np.ndarray: ...


def whole_steps(t: float, dt: float) -> int | None:
    """The number of dt steps in t, or None when t is not a whole number of
    them (to 1e-9 max(1, |t|))."""
    k = round(t / dt)
    return k if abs(k * dt - t) <= 1e-9 * max(1.0, abs(t)) else None


def check_times(dt: float, t_final: float, snapshot_times=(), blowup_threshold=DEFAULT_BLOWUP_THRESHOLD) -> int:
    """Number of steps; rejects a dt or t_final outside (0, inf), a t_final
    off the dt lattice, more than :data:`MAX_STEPS` steps, snapshot times
    that are not finite, off the lattice or outside [0, t_final] and a
    blow-up threshold outside (0, inf], where +inf never trips.  The config
    parser checks here too."""
    check_positive("dt", dt)
    check_positive("t_final", t_final)
    if blowup_threshold != math.inf:
        check_positive("blowup_threshold", blowup_threshold)
    n_steps = whole_steps(t_final, dt)
    if not n_steps:
        raise ConfigurationError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    if n_steps > MAX_STEPS:
        raise ConfigurationError(f"t_final={t_final} at dt={dt} takes {n_steps} steps, at most {MAX_STEPS} are allowed")
    for ts in snapshot_times:
        check_finite("snapshot time", ts)
        if not 0.0 <= ts <= t_final:
            raise ConfigurationError(f"snapshot time {ts} is negative or exceeds t_final={t_final}")
        if whole_steps(ts, dt) is None:
            raise ConfigurationError(f"snapshot time {ts} is not an integer multiple of dt={dt}")
    return n_steps


class _Run:
    """One run of a batch while the loop steps it: its stepper, its state,
    record columns, the states kept at snapshot times, its trip steps and
    its share of the loop time, and once it stops, its last recorded step
    and status."""

    def __init__(self, stepper: Stepper, record: np.ndarray, row: int):
        k = len(stepper.layout.trips)
        self.row, self.columns = row, list(record[row])
        self.state = stepper.start(self.columns[:k])
        self.stepper, self.step, self.observe = stepper, stepper.step, stepper.observe
        self.snapshots: list[tuple[float, Any]] = []
        # the step at which each population tripped
        self.trips: list[int | None] = [None] * k
        self.first_trip = None
        self.last, self.status, self.wall = None, STATUS_COMPLETED, 0.0

    def trip(self, n: int, rates_n, masses, dt: float, blowup_threshold: float) -> bool:
        """Trip the populations that tripped at step n; whether the run stops
        there."""
        # a non-finite state trips every population: none can be advanced further
        finite = all(math.isfinite(mass) for mass in masses)
        self.trips = [
            n if trip is None and (rate > blowup_threshold or not finite) else trip
            for trip, rate in zip(self.trips, rates_n)
        ]
        first = self.first_trip = min((trip for trip in self.trips if trip is not None), default=None)
        return None not in self.trips or (first is not None and (n - first) * dt > _POST_TRIP_WINDOW)

    def result(self, dt: float) -> RunRecord:
        layout, stepper, keep = self.stepper.layout, self.stepper, self.last + 1
        # a trip ends the run blown up, also when it reached t_final inside the window
        status = STATUS_BLOWUP if self.status == STATUS_COMPLETED and self.first_trip is not None else self.status
        return RunRecord(
            dt * np.arange(keep),
            {name: col[:keep] for name, col in zip(layout.columns, self.columns)},
            {key: None if trip is None else trip * dt for key, trip in zip(layout.trips, self.trips)},
            status,
            self.wall,
            dt,
            [DensitySnapshot(t, stepper.space.out_grid, stepper.densities(st)) for t, st in self.snapshots],
        )


def _share(runs: list, since: float) -> float:
    """Split the loop time since ``since`` evenly among the live ``runs``,
    which stepped together all that time; returns the time now."""
    now = time.perf_counter()
    for run in runs:
        run.wall += (now - since) / len(runs)
    return now


def _batch(runs: list, record: np.ndarray) -> tuple | None:
    """The live runs as an array batch and its state (:meth:`Stepper.lockstep`),
    and the index of their rows in ``record``, a slice while the rows are
    contiguous, as they are until a run stops; None for a lone run, or for
    runs that step alone."""
    if len(runs) < 2:
        return None
    rows = [run.row for run in runs]
    batch = runs[0].stepper.lockstep([run.stepper for run in runs], [run.state for run in runs], record, rows)
    contiguous = rows[-1] - rows[0] == len(rows) - 1
    return None if batch is None else (*batch, slice(rows[0], rows[-1] + 1) if contiguous else rows)


def integrate(
    steppers: list[Stepper],
    dt: float,
    t_final: float,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> list[RunRecord]:
    """Step the lockstep batch ``steppers`` (independent runs of one model
    on one space) to ``t_final``, recording every step; returns their
    records in order.  Each run keeps its own record, trips and stop, and a
    solver error in its step ends it with status "solver-failure".  The
    snapshot densities are taken after the loop.  Rejects an empty batch
    and the inputs :func:`check_times` rejects."""
    n_steps = check_times(dt, t_final, snapshot_times, blowup_threshold)
    if not steppers:
        raise ConfigurationError("a batch needs at least one run")
    snap_lookup = {round(ts / dt): ts for ts in snapshot_times}
    # every run's columns are rows of one record, so that a batch step
    # records all its cells with one assignment
    record = np.empty((len(steppers), len(steppers[0].layout.columns), n_steps + 1))
    runs = [_Run(cell, record, row) for row, cell in enumerate(steppers)]
    k = len(runs[0].trips)
    for run in runs:
        for col, value in zip(run.columns, run.observe(run.state)):
            col[0] = value
        if 0 in snap_lookup:
            run.snapshots.append((snap_lookup[0], run.state))

    live, batch, tripped = runs, _batch(runs, record), False
    t_since = time.perf_counter()
    # a state that goes non-finite is the trip test's to report: the solves
    # that produce it print no numpy warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(1, n_steps + 1):
            stopped = False
            if batch is not None:
                cells, state, rows = batch
                try:
                    state = cells.step(state)
                except _SOLVER_ERRORS:
                    # each run steps alone below, from its state: steps are
                    # pure, so the run that raised the error raises it again
                    batch = None
                else:
                    batch, values = (cells, state, rows), cells.observe(state)
                    record[rows, :, n] = values
                    # the common batch step: no rate past the threshold (nor
                    # NaN), every mass finite, no snapshot and no trip yet
                    if np.maximum.reduce(values[:, :k], None) <= blowup_threshold \
                            and math.isfinite(np.add.reduce(values[:, k:2 * k], None)) \
                            and n not in snap_lookup and not tripped:
                        continue
                # any other step goes through the runs' own states
                for run, cell_state in zip(live, cells.unpack(state)):
                    run.state = cell_state
            if batch is None:
                # a solver error ends only the run that raised it
                for run in live:
                    try:
                        run.state = run.step(run.state)
                    except _SOLVER_ERRORS:
                        run.last, run.status, stopped = n - 1, STATUS_SOLVER_FAILURE, True
            for run in live:
                if run.last is not None:
                    continue
                state = run.state
                values = run.observe(state)
                for col, value in zip(run.columns, values):
                    col[n] = value
                if n in snap_lookup:
                    run.snapshots.append((snap_lookup[n], state))
                # the common step: nothing tripped, everything finite (a NaN rate
                # never trips, and max() returns NaN only when the first rate is)
                if max(values[:k]) <= blowup_threshold and math.isfinite(sum(values[k:2 * k])) \
                        and run.first_trip is None:
                    continue
                if run.trip(n, values[:k], values[k:2 * k], dt, blowup_threshold):
                    run.last = n
                    stopped = True
                tripped = tripped or run.first_trip is not None
            if stopped:
                t_since = _share(live, t_since)
                live = [run for run in live if run.last is None]
                if not live:
                    break
                batch = _batch(live, record)
                tripped = any(run.first_trip is not None for run in live)
    _share(live, t_since)
    for run in live:
        run.last = n_steps
    return [run.result(dt) for run in runs]
