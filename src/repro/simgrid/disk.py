"""Storage devices (disks).

A disk exposes a read bandwidth and a write bandwidth.  Reads and writes
share a single underlying resource whose capacity is the larger of the two
(modelling a device that can serve mixed traffic), while individual
operations are additionally capped at their direction's bandwidth — this
keeps the model simple and matches the behaviour of the SimGrid disk model
used by the paper's simulator (one bandwidth value per direction, fair
sharing under concurrency).

An optional ``read_latency`` models per-operation overhead (e.g. an HDD
seek); the paper's calibratable simulator leaves it at 0 (the paper notes
that "HDD effects (e.g., seek times) are not modeled by the simulator"),
but the ground-truth reference system uses it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simgrid.activity import Activity, ActivityName
from repro.simgrid.errors import PlatformError
from repro.simgrid.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine
    from repro.simgrid.host import Host


class Disk:
    """A disk with independent read/write bandwidth caps (byte/s)."""

    def __init__(
        self,
        engine: SimulationEngine,
        name: str,
        read_bandwidth: float,
        write_bandwidth: float | None = None,
        read_latency: float = 0.0,
        write_latency: float = 0.0,
    ) -> None:
        if read_bandwidth <= 0:
            raise PlatformError(f"disk {name!r} needs a positive read bandwidth")
        write_bandwidth = read_bandwidth if write_bandwidth is None else write_bandwidth
        if write_bandwidth <= 0:
            raise PlatformError(f"disk {name!r} needs a positive write bandwidth")
        self.engine = engine
        self.name = str(name)
        self._read_bw = float(read_bandwidth)
        self._write_bw = float(write_bandwidth)
        self.read_latency = float(read_latency)
        self.write_latency = float(write_latency)
        self.resource = Resource(f"{name}.io", max(self._read_bw, self._write_bw))
        self.host: Host | None = None

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @property
    def read_bandwidth(self) -> float:
        return self._read_bw

    @property
    def write_bandwidth(self) -> float:
        return self._write_bw

    def set_bandwidth(self, read_bandwidth: float, write_bandwidth: float | None = None) -> None:
        """Re-parameterise the disk bandwidth (used by calibration)."""
        if read_bandwidth <= 0:
            raise PlatformError(f"disk {self.name!r} needs a positive read bandwidth")
        self._read_bw = float(read_bandwidth)
        self._write_bw = float(write_bandwidth) if write_bandwidth else float(read_bandwidth)
        self.resource.set_capacity(max(self._read_bw, self._write_bw))

    # ------------------------------------------------------------------ #
    # activities
    # ------------------------------------------------------------------ #
    def read_async(self, name: ActivityName, size: float) -> Activity:
        """Create (without starting) a read of ``size`` bytes."""
        return Activity(
            name,
            size,
            {self.resource: 1.0},
            rate_cap=self._read_bw,
            latency=self.read_latency,
        )

    def write_async(self, name: ActivityName, size: float) -> Activity:
        """Create (without starting) a write of ``size`` bytes."""
        return Activity(
            name,
            size,
            {self.resource: 1.0},
            rate_cap=self._write_bw,
            latency=self.write_latency,
        )

    def read(self, name: str, size: float):
        """Generator helper: perform a blocking read inside a process."""
        activity = self.read_async(name, size)
        yield activity
        return activity

    def write(self, name: str, size: float):
        """Generator helper: perform a blocking write inside a process."""
        activity = self.write_async(name, size)
        yield activity
        return activity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Disk {self.name!r} r={self._read_bw:g} w={self._write_bw:g} B/s>"
