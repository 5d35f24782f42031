"""Multicore compute hosts.

A host owns a single CPU resource whose capacity is ``speed * cores``;
each execution activity is additionally rate-capped at ``speed`` so that a
single task can never use more than one core, while more tasks than cores
degrade gracefully through fair sharing — the same model SimGrid uses for
its multicore hosts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simgrid.activity import Activity, ActivityName
from repro.simgrid.errors import PlatformError
from repro.simgrid.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.disk import Disk
    from repro.simgrid.engine import SimulationEngine
    from repro.simgrid.memory import Memory


class Host:
    """A compute host with ``cores`` cores of ``speed`` flop/s each.

    The host also acts as the attachment point for disks and memories
    (see :meth:`attach_disk` / :meth:`attach_memory`), mirroring the
    hardware platform descriptions used by the paper's simulator.
    """

    def __init__(self, engine: SimulationEngine, name: str, speed: float, cores: int = 1) -> None:
        if speed <= 0:
            raise PlatformError(f"host {name!r} must have positive speed, got {speed}")
        if cores < 1:
            raise PlatformError(f"host {name!r} must have at least one core, got {cores}")
        self.engine = engine
        self.name = str(name)
        self._speed = float(speed)
        self._cores = int(cores)
        self.cpu = Resource(f"{name}.cpu", self._speed * self._cores)
        self.disks: dict[str, Disk] = {}
        self.memories: dict[str, Memory] = {}
        self.properties: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    @property
    def speed(self) -> float:
        """Per-core speed in flop/s (work units per second)."""
        return self._speed

    @property
    def cores(self) -> int:
        return self._cores

    def set_speed(self, speed: float) -> None:
        """Re-parameterise the per-core speed (used by calibration)."""
        if speed <= 0:
            raise PlatformError(f"host {self.name!r} must have positive speed, got {speed}")
        self._speed = float(speed)
        self.cpu.set_capacity(self._speed * self._cores)

    def attach_disk(self, disk: Disk) -> None:
        if disk.name in self.disks:
            raise PlatformError(f"host {self.name!r} already has a disk named {disk.name!r}")
        self.disks[disk.name] = disk
        disk.host = self

    def attach_memory(self, memory: Memory) -> None:
        if memory.name in self.memories:
            raise PlatformError(f"host {self.name!r} already has a memory named {memory.name!r}")
        self.memories[memory.name] = memory
        memory.host = self

    # ------------------------------------------------------------------ #
    # activities
    # ------------------------------------------------------------------ #
    def exec_async(
        self,
        name: ActivityName,
        flops: float,
        parallelism: int = 1,
        priority: float = 1.0,
    ) -> Activity:
        """Create (without starting) a computation of ``flops`` work units.

        ``parallelism`` expresses how many cores the task can exploit: its
        rate cap is ``parallelism * speed`` (bounded by the whole host).
        ``priority`` scales the share the task gets under contention.
        """
        if parallelism < 1:
            raise PlatformError(f"parallelism must be >= 1, got {parallelism}")
        cap = min(self._speed * parallelism, self.cpu.capacity)
        usage = 1.0 / priority if priority > 0 else 1.0
        return Activity(name, flops, {self.cpu: usage}, rate_cap=cap)

    def execute(self, name: str, flops: float, parallelism: int = 1):
        """Generator helper: run a computation to completion.

        Use as ``yield from host.execute("phase", 1e9)`` inside a process.
        """
        activity = self.exec_async(name, flops, parallelism=parallelism)
        yield activity
        return activity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Host {self.name!r} {self._cores}x{self._speed:g} flop/s>"
