"""Activities: units of simulated work that progress on resources.

An activity carries a total *amount* of work (flops, bytes) and a set of
resource usages.  The engine assigns each running activity a *rate*
(work/s) through max-min fair sharing; the activity completes when its
remaining work reaches zero.  Activities may also carry a *latency*
phase (used for network communications): the activity first waits for
``latency`` seconds without consuming resource capacity and only then
enters the fluid-sharing phase.
"""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING

from repro.simgrid.errors import InvalidStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine
    from repro.simgrid.resources import Resource

_activity_counter = itertools.count()

#: What an activity is named by: the name itself, or a ``str.format``
#: template followed by its fields, formatted on the first read of
#: :attr:`Activity.name`.  A simulator creates thousands of activities per
#: run and only tracers and error messages ever read a name.
ActivityName = str | tuple


class ActivityState(enum.Enum):
    """Lifecycle states of an :class:`Activity`."""

    NEW = "new"
    LATENCY = "latency"
    RUNNING = "running"
    DONE = "done"
    CANCELED = "canceled"


# The engine and the processes test states on every activity: module
# constants spare them the enum class's attribute lookup.
_NEW = ActivityState.NEW
_LATENCY = ActivityState.LATENCY
_RUNNING = ActivityState.RUNNING
_DONE = ActivityState.DONE
_CANCELED = ActivityState.CANCELED
_TERMINATED = (ActivityState.DONE, ActivityState.CANCELED)


class Activity:
    """A unit of simulated work.

    Parameters
    ----------
    name:
        Label used in traces and debugging output, or the parts it is
        formatted from (see :data:`ActivityName`).
    amount:
        Total amount of work (>= 0).  A zero-amount activity completes as
        soon as its latency phase (if any) has elapsed.
    usages:
        Mapping of :class:`~repro.simgrid.resources.Resource` to usage weight.
        A weight of 1.0 means the activity consumes capacity equal to its
        rate on that resource; other weights scale the consumption.
    rate_cap:
        Optional upper bound on the activity's rate (e.g. the per-core speed
        of a host, or an application-level bandwidth cap).
    latency:
        Optional startup latency in seconds (network round-trip, disk seek,
        service overhead) spent before the fluid phase starts.
    """

    __slots__ = (
        "_name",
        "amount",
        "remaining",
        "usages",
        "rate_cap",
        "latency",
        "state",
        "rate",
        "start_time",
        "finish_time",
        "uid",
        "_engine",
        "_waiters",
        "_share_key",
    )

    def __init__(
        self,
        name: ActivityName,
        amount: float,
        usages: dict[Resource, float],
        rate_cap: float | None = None,
        latency: float = 0.0,
    ) -> None:
        self._name = name
        if amount < 0:
            raise InvalidStateError(f"activity {self.name!r} has negative amount {amount}")
        if latency < 0:
            raise InvalidStateError(f"activity {self.name!r} has negative latency {latency}")
        if rate_cap is not None and rate_cap <= 0:
            raise InvalidStateError(
                f"activity {self.name!r} has non-positive rate cap {rate_cap}"
            )
        self.amount = self.remaining = float(amount)
        self.usages = dict(usages)
        self.rate_cap = rate_cap
        self.latency = float(latency)
        self.state = _NEW
        self.rate = 0.0
        self.start_time: float | None = None
        self.finish_time: float | None = None
        self.uid = next(_activity_counter)
        self._engine: SimulationEngine | None = None
        self._waiters: list = []
        #: what the sharing solver reads of this activity; set by the engine
        #: when the activity enters the fluid phase
        self._share_key: tuple | None = None

    # ------------------------------------------------------------------ #
    # state queries
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The activity's label, formatted from its parts on first read."""
        name = self._name
        if isinstance(name, tuple):
            name = self._name = name[0].format(*name[1:])
        return name

    @property
    def is_done(self) -> bool:
        return self.state is ActivityState.DONE

    @property
    def is_canceled(self) -> bool:
        return self.state is ActivityState.CANCELED

    @property
    def is_terminated(self) -> bool:
        return self.state in _TERMINATED

    @property
    def is_pending(self) -> bool:
        return self.state in (ActivityState.NEW, ActivityState.LATENCY, ActivityState.RUNNING)

    @property
    def progress(self) -> float:
        """Fraction of the work already performed, in [0, 1]."""
        if self.amount <= 0:
            return 1.0 if self.is_done else 0.0
        return 1.0 - self.remaining / self.amount

    def duration(self) -> float:
        """Wall-clock (simulated) duration, only meaningful once done."""
        if self.start_time is None or self.finish_time is None:
            raise InvalidStateError(f"activity {self.name!r} has not completed yet")
        return self.finish_time - self.start_time

    # ------------------------------------------------------------------ #
    # engine-facing hooks
    # ------------------------------------------------------------------ #
    def add_waiter(self, waiter) -> None:
        """Register a callback ``waiter(activity)`` invoked on termination."""
        if self.is_terminated:
            waiter(self)
        else:
            self._waiters.append(waiter)

    def _notify_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(self)

    # No ``__hash__``/``__eq__``: activities hash and compare by identity, in
    # C.  The engine's sets and dicts hold them on every event, and nothing
    # result-affecting iterates those in hash order (see docs/architecture.md).

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Activity {self.name!r} state={self.state.value} "
            f"remaining={self.remaining:g}/{self.amount:g}>"
        )
