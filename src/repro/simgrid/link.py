"""Network links."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simgrid.errors import PlatformError
from repro.simgrid.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine


class Link:
    """A network link with a bandwidth (byte/s) and a latency (seconds).

    Links are pure resources: communications are created through
    :func:`repro.simgrid.network.communicate` (or through a
    :class:`~repro.simgrid.platform.Platform` route) and share the link
    bandwidth with max-min fairness.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise PlatformError(f"link {name!r} must have positive bandwidth, got {bandwidth}")
        if latency < 0:
            raise PlatformError(f"link {name!r} must have non-negative latency, got {latency}")
        self.engine = engine
        self.name = str(name)
        self.resource = Resource(f"{name}.bw", bandwidth)
        self.latency = float(latency)

    @property
    def bandwidth(self) -> float:
        """Bandwidth in byte/s."""
        return self.resource.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Link {self.name!r} {self.bandwidth:g} B/s lat={self.latency:g}s>"
