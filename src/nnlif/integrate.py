"""The one time-integration loop shared by every solver.

A model hands :func:`integrate` a :class:`Stepper`: its initial state, a pure
step and its observables.  The loop owns the rest: the record buffers, the
states kept at snapshot times, solver-failure handling, the loop timer and
the trip policy.
A population trips when its rate passes the blow-up threshold; the run stops
when every population has tripped, when the state goes non-finite (the
populations not yet tripped trip then), or ``_POST_TRIP_WINDOW`` after the
first trip, which gives near-simultaneous events a trip time each.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from .errors import ConfigurationError, LinearSolveError, NonpositiveDiffusionError, SingularFiringRateError

DEFAULT_BLOWUP_THRESHOLD = 1e3
_NEGATIVE_RATE_TOL = -1e-12
_POST_TRIP_WINDOW = 1.0

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blow-up-detected"
STATUS_SOLVER_FAILURE = "solver-failure"

# errors of a single step that end the run with a status instead of raising
_SOLVER_ERRORS = (SingularFiringRateError, LinearSolveError, NonpositiveDiffusionError)


class Stepper(Protocol):
    """One model as :func:`integrate` drives it.

    ``start`` gets the record's rate columns, one per population, and returns
    the initial state; entry k of a column holds the rate of step k once that
    step is recorded, so a step may read the entries before its own index.
    ``step`` returns the next state without modifying its argument; every
    state has a time ``t``.  ``observe`` returns the ``populations`` rates,
    as many masses, then optionally as many refractory masses; a mass is
    non-finite whenever any entry of its density is, so finiteness is tested
    on it.
    """

    populations: int

    def start(self, rates: list[np.ndarray]) -> Any: ...

    def step(self, state: Any) -> Any: ...

    def observe(self, state: Any) -> tuple[float, ...]: ...


@dataclass
class Integration:
    """Per-step columns in ``observe`` order, cut at the last recorded step,
    termination bookkeeping, the (time, state) pairs at the snapshot times
    reached and the last recorded state."""

    times: np.ndarray
    columns: list[np.ndarray]
    status: str
    trip_times: list[float | None]
    negative_rate: bool
    wall_time: float
    snapshots: list[tuple[float, Any]]
    state: Any


def _validate_times(dt: float, t_final: float, snapshot_times) -> int:
    """Number of steps; rejects non-finite times, a dt that does not divide
    t_final and snapshot times off the step lattice."""
    if not (0.0 < dt < math.inf and 0.0 < t_final < math.inf):
        raise ConfigurationError(f"need finite dt > 0 and t_final > 0, got {dt}, {t_final}")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigurationError(f"dt={dt} does not divide t_final={t_final}")
    for ts in snapshot_times:
        if not 0.0 <= ts <= t_final or abs(round(ts / dt) * dt - ts) > 1e-9 * max(1.0, abs(ts)):
            raise ConfigurationError(f"snapshot time {ts} is not a multiple of dt={dt}")
    return n_steps


def integrate(
    stepper: Stepper,
    dt: float,
    t_final: float,
    snapshot_times=(),
    blowup_threshold: float = DEFAULT_BLOWUP_THRESHOLD,
) -> Integration:
    """Step ``stepper`` from its initial state to ``t_final``, recording
    every step; a solver error in a step ends the run with status
    "solver-failure".  ``wall_time`` covers the stepping loop only."""
    n_steps = _validate_times(dt, t_final, snapshot_times)
    snap_lookup = {round(ts / dt): ts for ts in snapshot_times}
    k = stepper.populations
    rates = [np.empty(n_steps + 1) for _ in range(k)]
    state = stepper.start(rates)
    values = stepper.observe(state)
    columns = rates + [np.empty(n_steps + 1) for _ in values[k:]]
    times = np.empty(n_steps + 1)
    snapshots: list[tuple[float, Any]] = []
    step, observe = stepper.step, stepper.observe

    def record(n: int, st, values) -> None:
        times[n] = st.t
        for col, value in zip(columns, values):
            col[n] = value
        if n in snap_lookup:
            snapshots.append((snap_lookup[n], st))

    record(0, state, values)
    status = STATUS_COMPLETED
    negative = False
    trips: list[float | None] = [None] * k
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
        negative = negative or any(rate < _NEGATIVE_RATE_TOL for rate in rates_n)
        # the common step: nothing tripped, everything finite (a NaN rate
        # never trips, and max() returns NaN only when the first rate is)
        if first_trip is None and max(rates_n) <= blowup_threshold and math.isfinite(sum(masses)):
            continue
        # a non-finite state trips every population: none can be advanced further
        finite = all(math.isfinite(mass) for mass in masses)
        trips = [
            state.t if trip is None and (rate > blowup_threshold or not finite) else trip
            for trip, rate in zip(trips, rates_n)
        ]
        first_trip = min((trip for trip in trips if trip is not None), default=None)
        if None not in trips or (first_trip is not None and state.t - first_trip > _POST_TRIP_WINDOW):
            status = STATUS_BLOWUP
            break
    wall = time.perf_counter() - t_start

    keep = last + 1
    return Integration(
        times[:keep], [col[:keep] for col in columns], status, trips, negative, wall, snapshots, state
    )
