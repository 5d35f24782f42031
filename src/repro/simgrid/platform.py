"""Platform descriptions: hosts, links, disks, memories and routes.

A :class:`Platform` is a convenience container that owns a
:class:`~repro.simgrid.engine.SimulationEngine` and provides factory
methods plus a route table mapping host pairs to link sequences.  It plays
the role of SimGrid's platform XML files / C++ platform-creation API in
the paper's simulator.
"""

from __future__ import annotations


from repro.simgrid.activity import Activity
from repro.simgrid.disk import Disk
from repro.simgrid.engine import SimulationEngine
from repro.simgrid.errors import PlatformError
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.memory import Memory
from repro.simgrid.network import communicate

__all__ = ["Platform"]


class Platform:
    """A named collection of hosts, links, disks, memories and routes."""

    def __init__(self, name: str = "platform", engine: SimulationEngine | None = None) -> None:
        self.name = name
        self.engine = engine if engine is not None else SimulationEngine()
        self.hosts: dict[str, Host] = {}
        self.links: dict[str, Link] = {}
        self.disks: dict[str, Disk] = {}
        self.memories: dict[str, Memory] = {}
        self._routes: dict[tuple[str, str], list[Link]] = {}

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    def add_host(self, name: str, speed: float, cores: int = 1) -> Host:
        if name in self.hosts:
            raise PlatformError(f"duplicate host {name!r}")
        host = Host(self.engine, name, speed, cores)
        self.hosts[name] = host
        return host

    def add_link(self, name: str, bandwidth: float, latency: float = 0.0) -> Link:
        if name in self.links:
            raise PlatformError(f"duplicate link {name!r}")
        link = Link(self.engine, name, bandwidth, latency)
        self.links[name] = link
        return link

    def add_disk(
        self,
        host: Host,
        name: str,
        read_bandwidth: float,
        write_bandwidth: float | None = None,
        read_latency: float = 0.0,
        write_latency: float = 0.0,
    ) -> Disk:
        if name in self.disks:
            raise PlatformError(f"duplicate disk {name!r}")
        disk = Disk(self.engine, name, read_bandwidth, write_bandwidth, read_latency, write_latency)
        self.disks[name] = disk
        host.attach_disk(disk)
        return disk

    def add_memory(self, host: Host, name: str, bandwidth: float, latency: float = 0.0) -> Memory:
        if name in self.memories:
            raise PlatformError(f"duplicate memory {name!r}")
        memory = Memory(self.engine, name, bandwidth, latency)
        self.memories[name] = memory
        host.attach_memory(memory)
        return memory

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def add_route(self, src: Host, dst: Host, links: list[Link]) -> None:
        """Declare that traffic between ``src`` and ``dst``, either way,
        traverses ``links``."""
        if not links:
            raise PlatformError(f"route {src.name!r}->{dst.name!r} must contain at least one link")
        self._routes[(src.name, dst.name)] = list(links)
        self._routes[(dst.name, src.name)] = list(links)

    def route(self, src: Host, dst: Host) -> list[Link]:
        """Return the links between two hosts (empty list for a loopback)."""
        if src.name == dst.name:
            return []
        try:
            return self._routes[(src.name, dst.name)]
        except KeyError:
            raise PlatformError(f"no route between {src.name!r} and {dst.name!r}") from None

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def transfer_async(
        self,
        name: str,
        size: float,
        src: Host,
        dst: Host,
        rate_cap: float | None = None,
    ) -> Activity:
        """Create a communication between two hosts using the route table.

        Loopback (``src is dst``) transfers complete instantaneously and are
        modelled as zero-work activities.
        """
        links = self.route(src, dst)
        if not links:
            return Activity(name, 0.0, {})
        return communicate(name, size, links, rate_cap=rate_cap)

    def summary(self) -> str:
        """One-line-per-element description of the platform (for logs/docs)."""
        lines = [f"Platform {self.name!r}"]
        for host in self.hosts.values():
            lines.append(f"  host {host.name}: {host.cores} cores x {host.speed:g} flop/s")
            for disk in host.disks.values():
                lines.append(
                    f"    disk {disk.name}: read {disk.read_bandwidth:g} B/s, "
                    f"write {disk.write_bandwidth:g} B/s"
                )
            for memory in host.memories.values():
                lines.append(f"    memory {memory.name}: {memory.bandwidth:g} B/s")
        for link in self.links.values():
            lines.append(f"  link {link.name}: {link.bandwidth:g} B/s, {link.latency:g} s")
        for (src, dst), links in sorted(self._routes.items()):
            lines.append(f"  route {src} -> {dst}: {' + '.join(l.name for l in links)}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<Platform {self.name!r} hosts={len(self.hosts)} links={len(self.links)} "
            f"disks={len(self.disks)}>"
        )
