"""In-memory storage (the Linux page cache in the case study).

A :class:`Memory` behaves like a very fast disk: reads served from the
page cache consume its bandwidth and share it fairly among the jobs of the
node.  The case study's FC ("fast cache") platforms enable the page cache;
the SC platforms do not, and reads fall through to the HDD.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simgrid.activity import Activity, ActivityName
from repro.simgrid.errors import PlatformError
from repro.simgrid.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine
    from repro.simgrid.host import Host


class Memory:
    """A RAM-backed storage area with a bandwidth in byte/s."""

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise PlatformError(f"memory {name!r} needs a positive bandwidth")
        if latency < 0:
            raise PlatformError(f"memory {name!r} needs a non-negative latency")
        self.engine = engine
        self.name = str(name)
        self.resource = Resource(f"{name}.mem", bandwidth)
        self.latency = float(latency)
        self.host: Host | None = None

    @property
    def bandwidth(self) -> float:
        return self.resource.capacity

    def read_async(self, name: ActivityName, size: float) -> Activity:
        """Create (without starting) a read of ``size`` bytes from memory."""
        return Activity(name, size, {self.resource: 1.0}, latency=self.latency)

    def write_async(self, name: ActivityName, size: float) -> Activity:
        """Create (without starting) a write of ``size`` bytes to memory."""
        return Activity(name, size, {self.resource: 1.0}, latency=self.latency)

    def read(self, name: str, size: float):
        """Generator helper: perform a blocking read inside a process."""
        activity = self.read_async(name, size)
        yield activity
        return activity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Memory {self.name!r} {self.bandwidth:g} B/s>"
