"""Generator-based simulated processes and the things they can wait on.

A simulated process is a Python generator.  It advances the simulation by
``yield``-ing:

* an :class:`~repro.simgrid.activity.Activity` — start it (if needed) and
  wait for it to terminate;
* a :class:`Timeout` — wait for a fixed amount of simulated time;
* an :class:`AllOf` / :class:`AnyOf` — wait for all / any of a collection of
  activities, processes or timeouts;
* another :class:`Process` — wait for that process to finish (join);
* ``None`` — yield the processor and resume immediately (same timestamp).

Sub-behaviours are composed with ``yield from helper(...)`` and the helper's
``return`` value is the value of the ``yield from`` expression.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator, Iterable
from typing import Any, TYPE_CHECKING

from repro.simgrid.activity import _CANCELED, _NEW, _TERMINATED, Activity
from repro.simgrid.errors import ActivityCanceledError, InvalidStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine

_process_counter = itertools.count()


class Timeout:
    """Wait for ``duration`` seconds of simulated time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise InvalidStateError(f"negative timeout {duration}")
        self.duration = float(duration)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.duration:g})"


class _Combinator:
    """Base class for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Any]) -> None:
        self.items: list[Any] = list(items)


class AllOf(_Combinator):
    """Wait until every item has terminated.  The wait value is the list of
    items, in the order given."""


class AnyOf(_Combinator):
    """Wait until at least one item has terminated.  The wait value is the
    first item that terminated."""


class Process:
    """A running simulated process wrapping a generator.

    Processes are created through
    :meth:`repro.simgrid.engine.SimulationEngine.add_process`; they are
    waitable (another process may ``yield`` a :class:`Process` to join it)
    and expose the generator's ``return`` value as :attr:`result` once
    finished.
    """

    __slots__ = (
        "name",
        "uid",
        "generator",
        "engine",
        "finished",
        "failed",
        "result",
        "exception",
        "_waiters",
        "_pending_wait",
    )

    def __init__(self, engine: SimulationEngine, generator: Generator, name: str) -> None:
        self.name = name
        self.uid = next(_process_counter)
        self.generator = generator
        self.engine = engine
        self.finished = False
        self.failed = False
        self.result: Any = None
        self.exception: BaseException | None = None
        self._waiters: list = []
        self._pending_wait: object | None = None

    # ------------------------------------------------------------------ #
    # waitable protocol
    # ------------------------------------------------------------------ #
    @property
    def is_terminated(self) -> bool:
        return self.finished

    def add_waiter(self, waiter) -> None:
        if self.finished:
            waiter(self)
        else:
            self._waiters.append(waiter)

    def _notify_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(self)

    # ------------------------------------------------------------------ #
    # execution (driven by the engine)
    # ------------------------------------------------------------------ #
    def _step(self, value: Any = None, exception: BaseException | None = None) -> None:
        """Advance the generator by one step and register the next wait."""
        try:
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.engine._process_finished(self)
            self._notify_waiters()
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller of run()
            self.finished = True
            self.failed = True
            self.exception = exc
            self.engine._process_finished(self)
            self._notify_waiters()
            self.engine._record_failure(self, exc)
            return
        self._register_wait(target)

    # ------------------------------------------------------------------ #
    # wait registration
    # ------------------------------------------------------------------ #
    def _register_wait(self, target: Any) -> None:
        engine = self.engine
        self._pending_wait = target
        if target is None:
            engine.schedule(0.0, lambda: self._step(None))
        elif isinstance(target, Timeout):
            engine.schedule(target.duration, lambda: self._step(None))
        elif isinstance(target, Activity):
            if target.state is _NEW:
                engine.start_activity(target)
            if target.state in _TERMINATED:
                self._on_activity_done(target)
            else:
                target._waiters.append(self._on_activity_done)
        elif isinstance(target, Process):
            target.add_waiter(self._step)
        elif isinstance(target, AllOf):
            self._wait_all(target)
        elif isinstance(target, AnyOf):
            self._wait_any(target)
        else:
            self._step(
                exception=InvalidStateError(
                    f"process {self.name!r} yielded an unwaitable object: {target!r}"
                )
            )

    def _on_activity_done(self, activity: Activity) -> None:
        if activity.state is _CANCELED:
            self._step(
                exception=ActivityCanceledError(f"activity {activity.name!r} was canceled")
            )
        else:
            self._step(activity)

    def _wait_all(self, combinator: AllOf) -> None:
        items = combinator.items
        engine = self.engine
        pending = 0
        remaining = 0
        fired = False

        def on_done(_item: Any) -> None:
            nonlocal remaining, fired
            remaining -= 1
            if remaining <= 0 and not fired:
                fired = True
                self._step(items)

        for item in items:
            if isinstance(item, Activity):
                if item.state is _NEW:
                    engine.start_activity(item)
                if item.state not in _TERMINATED:
                    pending += 1
                    item._waiters.append(on_done)
            elif isinstance(item, Timeout):
                pending += 1
                engine.schedule(item.duration, lambda it=item: on_done(it))
            elif isinstance(item, Process):
                if not item.finished:
                    pending += 1
                    item._waiters.append(on_done)
            else:
                raise InvalidStateError(f"AllOf cannot wait on {item!r}")
        remaining = pending
        if pending == 0:
            engine.schedule(0.0, lambda: self._step(items))

    def _wait_any(self, combinator: AnyOf) -> None:
        items = combinator.items
        state = {"fired": False}

        def on_done(item: Any) -> None:
            if not state["fired"]:
                state["fired"] = True
                self._step(item)

        immediate = None
        for item in items:
            if isinstance(item, (Activity, Process)) and item.is_terminated:
                immediate = item
                break
        if immediate is not None:
            self.engine.schedule(0.0, lambda it=immediate: self._step(it))
            return
        if not items:
            raise InvalidStateError("AnyOf requires at least one item")
        for item in items:
            if isinstance(item, Timeout):
                self.engine.schedule(item.duration, lambda it=item: on_done(it))
            elif isinstance(item, (Activity, Process)):
                if isinstance(item, Activity) and item.state is _NEW:
                    self.engine.start_activity(item)
                item.add_waiter(on_done)
            else:
                raise InvalidStateError(f"AnyOf cannot wait on {item!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = "finished" if self.finished else "running"
        return f"<Process {self.name!r} {status}>"
