"""The four case-study platform configurations (Table II) and the platform
builder (Figure 1).

The execution platform comprises one compute site with three homogeneous
compute nodes (two with 12 cores and one with 24 cores in the paper; the
scaled-down variants keep the 1:1:2 ratio), each with a node-local HDD
cache and an in-RAM page cache, interconnected by a local network, plus a
remote storage site reached over a wide-area network.

The four configurations of Table II toggle two things:

=========  =================  ==============
Platform   RAM page cache     WAN interface
=========  =================  ==============
SCFN       disabled           10 Gbps
FCFN       enabled            10 Gbps
SCSN       disabled           1 Gbps
FCSN       enabled            1 Gbps
=========  =================  ==============

The *calibration parameters* (Figure 1) are the compute-node core speed,
the disk (HDD cache) bandwidth, the LAN bandwidth, the WAN bandwidth and —
see docs/architecture.md, "Reproduction deviations" — the page-cache
bandwidth.
"""

from __future__ import annotations

import dataclasses

from repro.hepsim.units import GBps, format_bandwidth, format_disk_bandwidth, format_speed, gbps
from repro.simgrid.platform import Platform

__all__ = [
    "CalibrationValues",
    "NodeSpec",
    "PlatformConfig",
    "PLATFORM_CONFIGS",
    "PAPER_NODES",
    "BENCH_NODES",
    "TINY_NODES",
    "BuiltPlatform",
    "build_platform",
    "platform_ascii_art",
]


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """One compute node: a name and a core count."""

    name: str
    cores: int


#: The paper's compute site: two 12-core nodes and one 24-core node.
PAPER_NODES: tuple[NodeSpec, ...] = (
    NodeSpec("node1", 12),
    NodeSpec("node2", 12),
    NodeSpec("node3", 24),
)

#: Scaled-down site used by the benchmark harness (same 1:1:2 shape).
BENCH_NODES: tuple[NodeSpec, ...] = (
    NodeSpec("node1", 3),
    NodeSpec("node2", 3),
    NodeSpec("node3", 6),
)

#: Small site used by the calibration benchmarks (same 1:1:2 node shape,
#: enough per-node concurrency to preserve the cache/disk sharing effects).
CALIB_NODES: tuple[NodeSpec, ...] = (
    NodeSpec("node1", 2),
    NodeSpec("node2", 2),
    NodeSpec("node3", 4),
)

#: Minimal site used by the unit tests.
TINY_NODES: tuple[NodeSpec, ...] = (
    NodeSpec("node1", 1),
    NodeSpec("node2", 1),
    NodeSpec("node3", 2),
)


@dataclasses.dataclass(frozen=True)
class PlatformConfig:
    """One of the Table II hardware platform configurations."""

    name: str
    page_cache_enabled: bool
    wan_nominal_bandwidth: float  # byte/s (hardware interface specification)

    @property
    def description(self) -> str:
        cache = "enabled" if self.page_cache_enabled else "disabled"
        return (
            f"{self.name}: RAM page cache {cache}, "
            f"WAN interface {format_bandwidth(self.wan_nominal_bandwidth)}"
        )


#: Table II.  FC/SC = fast/slow cache (page cache on/off); FN/SN = 10/1 Gbps WAN.
PLATFORM_CONFIGS: dict[str, PlatformConfig] = {
    "SCFN": PlatformConfig("SCFN", page_cache_enabled=False, wan_nominal_bandwidth=gbps(10)),
    "FCFN": PlatformConfig("FCFN", page_cache_enabled=True, wan_nominal_bandwidth=gbps(10)),
    "SCSN": PlatformConfig("SCSN", page_cache_enabled=False, wan_nominal_bandwidth=gbps(1)),
    "FCSN": PlatformConfig("FCSN", page_cache_enabled=True, wan_nominal_bandwidth=gbps(1)),
}


@dataclasses.dataclass(frozen=True)
class CalibrationValues:
    """A complete assignment of the calibration parameters.

    All values are in base units: flop/s for the core speed and byte/s for
    the bandwidths.  ``to_dict``/``from_dict`` use the parameter names of
    the calibration framework.
    """

    core_speed: float
    disk_bandwidth: float
    lan_bandwidth: float
    wan_bandwidth: float
    page_cache_bandwidth: float

    def to_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(values: dict[str, float]) -> CalibrationValues:
        return CalibrationValues(
            core_speed=float(values["core_speed"]),
            disk_bandwidth=float(values["disk_bandwidth"]),
            lan_bandwidth=float(values["lan_bandwidth"]),
            wan_bandwidth=float(values["wan_bandwidth"]),
            page_cache_bandwidth=float(values["page_cache_bandwidth"]),
        )

    def describe(self) -> str:
        """Human-readable rendering in the paper's units (Table IV style)."""
        return (
            f"core={format_speed(self.core_speed)}, "
            f"disk={format_disk_bandwidth(self.disk_bandwidth)}, "
            f"LAN={format_bandwidth(self.lan_bandwidth)}, "
            f"WAN={format_bandwidth(self.wan_bandwidth)}, "
            f"page cache={format_disk_bandwidth(self.page_cache_bandwidth)}"
        )


#: Bandwidth of the remote storage site's storage system.  It is not one of
#: the calibration parameters (the paper does not calibrate it either) and is
#: set high enough that it is never the bottleneck.
REMOTE_STORAGE_BANDWIDTH = GBps(8)

#: Network latencies.  These are not calibrated; they only add a small
#: constant per transfer.
WAN_LATENCY = 0.002
LAN_LATENCY = 0.0002


@dataclasses.dataclass
class BuiltPlatform:
    """The result of :func:`build_platform`: the platform plus named parts."""

    platform: Platform
    config: PlatformConfig
    compute_hosts: list
    storage_host: object
    node_disks: dict[str, object]
    node_memories: dict[str, object]
    remote_disk: object
    lan_link: object
    wan_link: object

    @property
    def engine(self):
        return self.platform.engine


def build_platform(
    config: PlatformConfig,
    values: CalibrationValues,
    nodes: tuple[NodeSpec, ...] = BENCH_NODES,
    disk_read_latency: float = 0.0,
    disk_write_latency: float = 0.0,
) -> BuiltPlatform:
    """Build the Figure 1 platform for a given parameter assignment.

    Parameters
    ----------
    config:
        Which Table II configuration to build (controls whether the page
        cache is usable; the WAN *nominal* bandwidth of the config is
        informational — the simulated WAN uses ``values.wan_bandwidth``).
    values:
        The calibration parameter values to apply.
    nodes:
        Compute-node specs (defaults to the scaled-down benchmark site).
    disk_read_latency / disk_write_latency:
        Optional per-operation HDD latency, used only by the ground-truth
        reference system (the calibratable simulator does not model seeks,
        as stated in the paper).
    """
    platform = Platform(f"wlcg-{config.name}")
    storage_host = platform.add_host("remote_storage", speed=1e9, cores=1)
    remote_disk = platform.add_disk(storage_host, "remote_disk", REMOTE_STORAGE_BANDWIDTH)

    wan = platform.add_link("wan", values.wan_bandwidth, WAN_LATENCY)
    lan = platform.add_link("lan", values.lan_bandwidth, LAN_LATENCY)

    compute_hosts = []
    node_disks: dict[str, object] = {}
    node_memories: dict[str, object] = {}
    for node in nodes:
        host = platform.add_host(node.name, speed=values.core_speed, cores=node.cores)
        disk = platform.add_disk(
            host,
            f"{node.name}_hdd",
            values.disk_bandwidth,
            read_latency=disk_read_latency,
            write_latency=disk_write_latency,
        )
        memory = platform.add_memory(host, f"{node.name}_ram", values.page_cache_bandwidth)
        platform.add_route(host, storage_host, [lan, wan])
        for other in compute_hosts:
            platform.add_route(host, other, [lan])
        compute_hosts.append(host)
        node_disks[node.name] = disk
        node_memories[node.name] = memory

    return BuiltPlatform(
        platform=platform,
        config=config,
        compute_hosts=compute_hosts,
        storage_host=storage_host,
        node_disks=node_disks,
        node_memories=node_memories,
        remote_disk=remote_disk,
        lan_link=lan,
        wan_link=wan,
    )


def platform_ascii_art(nodes: tuple[NodeSpec, ...] = PAPER_NODES) -> str:
    """ASCII rendering of Figure 1 (the execution platform)."""
    lines = [
        "+--------------------- Compute site ----------------------+",
    ]
    for node in nodes:
        lines.append(
            f"|  [{node.name}: {node.cores:>2} cores]--(HDD cache)--(page cache)          |"
        )
    lines += [
        "|        |            local network (LAN bandwidth)       |",
        "+--------+-------------------------------------------------+",
        "         |",
        "   wide-area network (WAN bandwidth)",
        "         |",
        "+--------+---------+",
        "|  Storage site    |",
        "|  (all input data)|",
        "+------------------+",
        "",
        "calibration parameters: core speed, disk bandwidth, LAN bandwidth,",
        "                        WAN bandwidth, page-cache bandwidth",
    ]
    return "\n".join(lines)
