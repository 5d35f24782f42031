"""The discrete-event engine driving the fluid simulation model.

The engine interleaves two kinds of events:

* *timers* — callbacks scheduled at an absolute simulated time (process
  wake-ups, activity latency phases, timeouts);
* *activity completions* — derived from the fluid model: whenever the set
  of running activities changes, the max-min sharing solver recomputes the
  rates of the activities the change can reach, and the next completion is
  the activity with the smallest ``remaining / rate``.

The main loop advances the clock to the earliest of those two, updates the
remaining work of all running activities, fires whatever completed, and
repeats until no work is left.

Rates are recomputed incrementally.  Resources that share no running
activity do not influence each other's max-min shares, so the running
activities split into connected components of the resource/activity graph
and a component's rates depend on its own capacities and members only.
Whatever changes that input — an activity entering or leaving the fluid
phase, a capacity change — marks the resources involved *dirty*; the next
loop iteration walks from the dirty resources to their component(s),
re-solves those, and leaves every other activity's rate as it is.  The
solver performs the same arithmetic on a component whether it is handed
that component alone or together with others, so the rates are bit for bit
those a solve of all running activities would give.

A run meets few distinct components, many times each (one more block read on
the same disk), so the engine keeps what the solver returned for each and
calls it only for a component it has not met (:meth:`_update_rates`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Generator
from operator import attrgetter
from time import perf_counter
from typing import Any, Protocol

from repro.simgrid.activity import _CANCELED, _DONE, _LATENCY, _NEW, _RUNNING, Activity
from repro.simgrid.errors import DeadlockError, InvalidStateError, SimulationError
from repro.simgrid.process import Process
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import solve_max_min

__all__ = ["SimulationEngine"]

_REL_EPSILON = 1e-9
_BY_UID = attrgetter("uid")


class _PhaseProfile(Protocol):
    """What :attr:`SimulationEngine.profile` must offer."""

    def add(self, name: str, seconds: float, count: int = 1) -> None: ...


class SimulationEngine:
    """Event loop, clock and activity scheduler.

    A typical simulation:

    >>> engine = SimulationEngine()
    >>> host = Host(engine, "node", speed=1e9, cores=4)      # doctest: +SKIP
    >>> def main():                                           # doctest: +SKIP
    ...     yield host.exec_async("work", 2e9)
    >>> engine.add_process(main(), "main")                    # doctest: +SKIP
    >>> engine.run()                                          # doctest: +SKIP
    >>> engine.now                                            # doctest: +SKIP
    2.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        self._active: set[Activity] = set()
        #: resources whose component must be re-solved before time advances
        self._dirty: set[Resource] = set()
        #: solved components: members' share keys in uid order -> their rates
        #: and, per resource, (resource, capacity solved under)
        self._solved: dict[tuple, tuple[list[float], list[tuple[Resource, float]]]] = {}
        self._processes: list[Process] = []
        self._alive_processes = 0
        self._failures: list[tuple[Process, BaseException]] = []
        self._completed_activities = 0
        self._sharing_updates = 0
        #: optional :class:`repro.telemetry.profiling.SimulationProfile`
        #: (or any object with ``add(name, seconds, count)``); attach one
        #: before :meth:`run` to attribute wall-clock and event counts to
        #: the loop's phases.  ``None`` (the default) costs the loop one
        #: ``is None`` check per phase.
        self.profile: _PhaseProfile | None = None

    # ------------------------------------------------------------------ #
    # clock and statistics
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def completed_activity_count(self) -> int:
        """Number of activities completed so far (a proxy for event count)."""
        return self._completed_activities

    @property
    def sharing_update_count(self) -> int:
        """Number of event-loop iterations that recomputed rates, i.e. that
        began with a changed running set or capacity while activities were
        running (simulation cost proxy)."""
        return self._sharing_updates

    # ------------------------------------------------------------------ #
    # timers
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise InvalidStateError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._timers, (self._now + delay, next(self._timer_seq), callback))

    # ------------------------------------------------------------------ #
    # processes
    # ------------------------------------------------------------------ #
    def add_process(self, generator: Generator[Any, Any, Any], name: str = "process") -> Process:
        """Register a simulated process and schedule its first step at the
        current simulated time."""
        process = Process(self, generator, name)
        self._processes.append(process)
        self._alive_processes += 1
        self.schedule(0.0, lambda: process._step(None))
        return process

    def _process_finished(self, process: Process) -> None:
        self._alive_processes -= 1

    def _record_failure(self, process: Process, exc: BaseException) -> None:
        self._failures.append((process, exc))

    # ------------------------------------------------------------------ #
    # activities
    # ------------------------------------------------------------------ #
    def start_activity(self, activity: Activity) -> Activity:
        """Start an activity.  If it has a latency, it first sits in the
        LATENCY state for that long, then joins the fluid model."""
        if activity.state is not _NEW:
            raise InvalidStateError(f"activity {activity.name!r} already started")
        if activity._engine is not None and activity._engine is not self:
            raise InvalidStateError(
                f"activity {activity.name!r} is already bound to another engine"
            )
        activity._engine = self
        activity.start_time = self._now
        if activity.latency > 0:
            activity.state = _LATENCY
            self.schedule(activity.latency, lambda: self._enter_fluid_phase(activity))
        else:
            self._enter_fluid_phase(activity)
        return activity

    def _enter_fluid_phase(self, activity: Activity) -> None:
        if activity.state is _CANCELED:
            return
        activity.state = _RUNNING
        if activity.remaining <= 0:
            # Zero-work activity: complete right away (still asynchronously so
            # that waiters registered in the same step are notified).
            self._complete_activity(activity)
            return
        self._active.add(activity)
        usages = activity.usages
        activity._share_key = (tuple(usages.items()), activity.rate_cap)
        shared = False
        for resource, usage in usages.items():
            resource._activities[activity] = usage
            if usage > 0:
                self._dirty.add(resource)
                shared = True
        if not shared:
            # Competes for nothing, so it belongs to no component and no
            # solve will ever reach it: its rate is its cap, for good.
            activity.rate = activity.rate_cap if activity.rate_cap is not None else math.inf

    def _leave_fluid_phase(self, activity: Activity) -> None:
        """Take a terminating activity off the running set and its resources."""
        if activity in self._active:
            self._active.remove(activity)
            for resource, usage in activity.usages.items():
                resource._activities.pop(activity, None)
                if usage > 0:
                    self._dirty.add(resource)

    def _capacity_changed(self, resource: Resource) -> None:
        """``resource`` got a new capacity while activities run on it."""
        self._dirty.add(resource)

    def cancel_activity(self, activity: Activity) -> None:
        """Cancel a pending activity; waiters receive an
        :class:`~repro.simgrid.errors.ActivityCanceledError`."""
        if activity.is_terminated:
            return
        self._leave_fluid_phase(activity)
        activity.state = _CANCELED
        activity.finish_time = self._now
        activity._notify_waiters()

    def _complete_activity(self, activity: Activity) -> None:
        self._leave_fluid_phase(activity)
        activity.state = _DONE
        activity.finish_time = self._now
        activity.remaining = 0.0
        activity.rate = 0.0
        self._completed_activities += 1
        waiters = activity._waiters
        if waiters:
            activity._waiters = []
            for waiter in waiters:
                waiter(activity)

    # ------------------------------------------------------------------ #
    # fluid model
    # ------------------------------------------------------------------ #
    def _update_rates(self) -> None:
        """Give the component of every dirty resource its max-min rates.

        A component is what the walk resource -> registered activities ->
        their resources reaches over positive usages.  Its members go to the
        solver in ``uid`` order: the order of the solver's float operations
        is then a function of the simulation, not of set hashing.  That
        makes a solve a pure function of the members' share keys in that
        order and of the capacities, so a component met before (under the
        same capacities) takes the rates stored then.  This is the only
        place a running activity's rate changes.

        Most look-ups need no walk: when every user of the dirty resource
        uses that resource alone (with a positive weight), the component is
        exactly its user list.
        """
        reached: set[Resource] | None = None
        for origin in self._dirty:
            users = origin._activities
            if not users:
                continue
            for activity, usage in users.items():
                if usage <= 0 or len(activity.usages) != 1:
                    break
            else:
                ordered = list(users)
                if len(ordered) > 1:
                    ordered.sort(key=_BY_UID)
                self._apply(ordered)
                continue
            # Some user also uses another resource: walk to the whole
            # component (``reached`` keeps a component from being walked twice).
            if reached is None:
                reached = set()
            elif origin in reached:
                continue
            reached.add(origin)
            frontier = [origin]
            members: set[Activity] = set()
            while frontier:
                for activity, usage in frontier.pop()._activities.items():
                    if usage > 0 and activity not in members:
                        members.add(activity)
                        for resource, weight in activity.usages.items():
                            if weight > 0 and resource not in reached:
                                reached.add(resource)
                                frontier.append(resource)
            if members:
                self._apply(sorted(members, key=_BY_UID))
        self._dirty.clear()
        self._sharing_updates += 1

    def _apply(self, ordered: list[Activity]) -> None:
        """Give a component's members (in ``uid`` order) their rates, from
        the store or from a solve."""
        solved = self._solved
        key = tuple([activity._share_key for activity in ordered])
        entry = solved.get(key)
        if entry is not None:
            for resource, capacity in entry[1]:
                if resource._capacity != capacity:
                    entry = None
                    break
        if entry is None:
            entry = solved[key] = self._solve(ordered)
        for activity, rate in zip(ordered, entry[0], strict=True):
            activity.rate = rate

    @staticmethod
    def _solve(ordered: list[Activity]) -> tuple[list[float], list[tuple[Resource, float]]]:
        """Solve one component: its members' rates, in the order given, and
        the capacity each of its resources had when they were solved."""
        rates = solve_max_min(ordered)
        resources = dict.fromkeys(
            resource
            for activity in ordered
            for resource, usage in activity.usages.items()
            if usage > 0
        )
        capacities = [(resource, resource._capacity) for resource in resources]
        return [rates[activity] for activity in ordered], capacities

    def _advance_to(self, when: float) -> list[Activity]:
        """Move the clock to ``when``, charge every running activity the work
        it did on the way, and return the activities that are now complete.

        Complete means: the remaining work is (numerically) zero, or the
        remaining time at the current rate is below the clock's
        floating-point resolution.  The second clause matters when activity
        rates differ by many orders of magnitude late in a long simulation:
        the next completion delay can then be smaller than one ULP of the
        clock, and without it the loop would advance by zero time forever
        (observed with extreme calibration candidates — e.g. a multi-GB/s
        page cache next to a ~6 MB/s WAN).
        """
        dt = when - self._now
        if dt < 0:
            raise InvalidStateError("clock cannot go backwards")
        if dt > 0:
            self._now = when
        clock_resolution = max(abs(self._now), 1.0) * 1e-12
        completed: list[Activity] = []
        for activity in self._active:
            rate = activity.rate
            remaining = activity.remaining
            if rate > 0:
                if dt > 0:
                    # max(remaining - rate * dt, 0.0), without the call
                    remaining -= rate * dt
                    if 0.0 > remaining:
                        remaining = 0.0
                    activity.remaining = remaining
                if remaining <= rate * clock_resolution:
                    completed.append(activity)
                    continue
            scale = activity.amount  # max(amount, 1.0)
            if 1.0 > scale:
                scale = 1.0
            if remaining <= _REL_EPSILON * scale:
                completed.append(activity)
        return completed

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self, until: float | None = None) -> float:
        """Run the simulation until no event remains (or until the given
        simulated time).  Returns the final simulated time.

        Raises
        ------
        SimulationError
            If a simulated process raised an exception.
        DeadlockError
            If processes remain alive but no event can ever wake them.
        """
        profile = self.profile
        active = self._active
        timers = self._timers
        while True:
            if self._failures:
                process, exc = self._failures[0]
                raise SimulationError(f"process {process.name!r} failed: {exc!r}") from exc

            if self._dirty:
                if not active:
                    # nothing is registered anywhere: no rate to give
                    self._dirty.clear()
                elif profile is None:
                    self._update_rates()
                else:
                    t0 = perf_counter()
                    self._update_rates()
                    profile.add("sharing", perf_counter() - t0)

            # The next event: the earliest timer or the smallest ``remaining /
            # rate``.  A pass of its own: it needs this iteration's rates,
            # ``_advance_to`` charges work at them only afterwards.
            next_event = timers[0][0] if timers else math.inf
            delay = math.inf
            for activity in active:
                rate = activity.rate
                if rate > 0:
                    candidate = activity.remaining / rate
                    if candidate < delay:
                        delay = candidate
            if delay < math.inf:
                next_completion = self._now + delay
                if next_completion < next_event:
                    next_event = next_completion

            if next_event == math.inf:
                if self._alive_processes > 0:
                    raise DeadlockError(
                        f"{self._alive_processes} process(es) still alive but no pending event"
                    )
                break

            if until is not None and next_event > until:
                self._advance_to(until)
                return self._now

            if profile is not None:
                t0 = perf_counter()
            completed = self._advance_to(next_event)
            completed.sort(key=_BY_UID)
            for activity in completed:
                self._complete_activity(activity)
            if profile is not None:
                profile.add("advance", perf_counter() - t0, len(completed))

            # Fire timers due at (or before) the new clock value.
            if profile is None:
                while timers and timers[0][0] <= self._now + 1e-15:
                    heapq.heappop(timers)[2]()
            else:
                t0 = perf_counter()
                fired = 0
                while timers and timers[0][0] <= self._now + 1e-15:
                    heapq.heappop(timers)[2]()
                    fired += 1
                if fired:
                    profile.add("timers", perf_counter() - t0, fired)

        if self._failures:
            process, exc = self._failures[0]
            raise SimulationError(f"process {process.name!r} failed: {exc!r}") from exc
        return self._now
