"""Resources: capacity-bearing entities shared by activities.

A resource has a *capacity* expressed in "work units per second" (flop/s
for hosts, byte/s for links, disks and memories).  Activities register a
*usage weight* on one or more resources; the engine's sharing solver
(:mod:`repro.simgrid.sharing`) splits each resource's capacity among the
activities currently using it with max-min fairness.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.simgrid.errors import PlatformError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.activity import Activity


class Resource:
    """A shareable resource with a finite capacity.

    Parameters
    ----------
    name:
        Human-readable identifier, unique within a platform.
    capacity:
        Total capacity in work units per second.  Must be strictly positive.
    """

    __slots__ = ("name", "_capacity", "_activities")

    def __init__(self, name: str, capacity: float) -> None:
        if capacity <= 0:
            raise PlatformError(f"resource {name!r} must have a positive capacity, got {capacity}")
        self.name = str(name)
        self._capacity = float(capacity)
        self._activities: dict[Activity, float] = {}

    # ------------------------------------------------------------------ #
    # capacity management
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> float:
        """Total capacity of the resource (work units per second)."""
        return self._capacity

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (used by calibration to re-parameterise a
        platform in place).  Takes effect at the next sharing update: the
        engine of the activities running on the resource, if any, is told to
        re-solve their rates before it advances the clock again."""
        if capacity <= 0:
            raise PlatformError(
                f"resource {self.name!r} must have a positive capacity, got {capacity}"
            )
        self._capacity = float(capacity)
        user = next(iter(self._activities), None)
        if user is not None and user._engine is not None:
            user._engine._capacity_changed(self)

    # ------------------------------------------------------------------ #
    # activity bookkeeping (engine-facing)
    # ------------------------------------------------------------------ #
    @property
    def activities(self) -> Iterator[Activity]:
        """Iterate over the activities currently registered on the resource."""
        return iter(self._activities)

    @property
    def load(self) -> int:
        """Number of activities currently registered on this resource."""
        return len(self._activities)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r} capacity={self._capacity:g}>"
