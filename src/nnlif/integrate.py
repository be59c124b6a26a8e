"""The one time-integration loop shared by every solver.

A model hands :func:`integrate` a :class:`Stepper`: its record layout, its
initial state, a pure step, its observables and its densities.  The loop
owns the rest: the record buffers, the states kept at snapshot times,
solver-failure handling, the loop timer and the trip policy, and it returns
one :class:`RunRecord` for every model.
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

from .errors import ConfigurationError, LinearSolveError, NnlifError, NonpositiveDiffusionError, SingularFiringRateError

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
    if it did not); ``wall_time`` covers the stepping loop only.
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

    ``layout`` names the record's columns and trips.  ``start`` gets the
    record's rate columns, one per population, and returns the initial
    state; entry k of a column holds the rate of step k once that step is
    recorded, so a step may read the entries before its own index.
    ``step`` returns the next state without modifying its argument; the
    loop keeps time.  ``observe`` returns a state's values in the layout's
    column order: the rates, as many masses, then optionally as many
    refractory masses; a mass is non-finite whenever any entry of its
    density is, so finiteness is tested on it.  ``densities`` returns the
    state's density on ``out_grid`` in the :class:`DensitySnapshot` shape.
    """

    layout: Layout
    out_grid: np.ndarray

    def start(self, rates: list[np.ndarray]) -> Any: ...

    def step(self, state: Any) -> Any: ...

    def observe(self, state: Any) -> tuple[float, ...]: ...

    def densities(self, state: Any) -> np.ndarray: ...


def whole_steps(t: float, dt: float) -> int | None:
    """The number of dt steps in t, or None when t is not a whole number of
    them (to 1e-9 max(1, |t|))."""
    k = round(t / dt)
    return k if abs(k * dt - t) <= 1e-9 * max(1.0, abs(t)) else None


def check_times(dt: float, t_final: float, snapshot_times=()) -> int:
    """Number of steps; rejects non-finite times, a t_final off the dt
    lattice, more than :data:`MAX_STEPS` steps and snapshot times off the
    lattice or outside [0, t_final].  The config parser checks here too."""
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ConfigurationError(f"need finite dt > 0 and t_final > 0, got {dt}, {t_final}")
    n_steps = whole_steps(t_final, dt)
    if not n_steps:
        raise ConfigurationError(f"t_final={t_final} is not an integer multiple of dt={dt}")
    if n_steps > MAX_STEPS:
        raise ConfigurationError(f"t_final={t_final} at dt={dt} takes {n_steps} steps, at most {MAX_STEPS} are allowed")
    for ts in snapshot_times:
        if not 0.0 <= ts <= t_final:
            raise ConfigurationError(f"snapshot time {ts} is negative or exceeds t_final={t_final}")
        if whole_steps(ts, dt) is None:
            raise ConfigurationError(f"snapshot time {ts} is not an integer multiple of dt={dt}")
    return n_steps


def integrate(
    stepper: Stepper,
    dt: float,
    t_final: float,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> RunRecord:
    """Step ``stepper`` from its initial state to ``t_final``, recording
    every step; a solver error in a step ends the run with status
    "solver-failure".  The snapshot densities are taken after the loop."""
    n_steps = check_times(dt, t_final, snapshot_times)
    snap_lookup = {round(ts / dt): ts for ts in snapshot_times}
    layout = stepper.layout
    k = len(layout.trips)
    rates = [np.empty(n_steps + 1) for _ in range(k)]
    state = stepper.start(rates)
    columns = rates + [np.empty(n_steps + 1) for _ in layout.columns[k:]]
    snapshots: list[tuple[float, Any]] = []
    step, observe = stepper.step, stepper.observe

    def record(n: int, st, values) -> None:
        for col, value in zip(columns, values):
            col[n] = value
        if n in snap_lookup:
            snapshots.append((snap_lookup[n], st))

    record(0, state, observe(state))
    status = STATUS_COMPLETED
    # the step at which each population tripped
    trips: list[int | None] = [None] * k
    first_trip = None
    last = 0
    t_start = time.perf_counter()
    for n in range(1, n_steps + 1):
        try:
            state = step(state)
        except _SOLVER_ERRORS:
            status = STATUS_SOLVER_FAILURE
            break
        values = observe(state)
        record(n, state, values)
        last = n
        rates_n, masses = values[:k], values[k:2 * k]
        # the common step: nothing tripped, everything finite (a NaN rate
        # never trips, and max() returns NaN only when the first rate is)
        if first_trip is None and max(rates_n) <= blowup_threshold and math.isfinite(sum(masses)):
            continue
        # a non-finite state trips every population: none can be advanced further
        finite = all(math.isfinite(mass) for mass in masses)
        trips = [
            n if trip is None and (rate > blowup_threshold or not finite) else trip
            for trip, rate in zip(trips, rates_n)
        ]
        first_trip = min((trip for trip in trips if trip is not None), default=None)
        if None not in trips or (first_trip is not None and (n - first_trip) * dt > _POST_TRIP_WINDOW):
            break
    wall = time.perf_counter() - t_start
    # a trip ends the run blown up, also when it reached t_final inside the window
    if status == STATUS_COMPLETED and first_trip is not None:
        status = STATUS_BLOWUP

    keep = last + 1
    return RunRecord(
        dt * np.arange(keep),
        {name: col[:keep] for name, col in zip(layout.columns, columns)},
        {key: None if trip is None else trip * dt for key, trip in zip(layout.trips, trips)},
        status,
        wall,
        dt,
        [DensitySnapshot(t, stepper.out_grid, stepper.densities(st)) for t, st in snapshots],
    )
