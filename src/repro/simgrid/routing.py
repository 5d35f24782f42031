"""Topology-aware route computation.

The paper's execution platform (Figure 1) is simple enough that its routes
can be declared by hand (compute node -> LAN link -> WAN link -> storage),
but the WLCG system it abstracts is a multi-site grid.  This module adds
the small amount of graph machinery needed to describe such platforms
conveniently:

* hosts are added to a :class:`NetworkTopology` as graph nodes;
* links connect pairs of hosts (or intermediate router nodes);
* :meth:`NetworkTopology.apply` computes shortest-path routes between every
  pair of hosts — minimising either hop count, total latency, or total
  transfer cost (1/bandwidth) — and registers them on the
  :class:`~repro.simgrid.platform.Platform` route table.

Routers are pure graph nodes: they carry no compute capacity and exist only
so that several hosts can share a backbone link, like SimGrid's zone
gateways.
"""

from __future__ import annotations

from repro.simgrid.errors import PlatformError
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.platform import Platform

__all__ = ["NetworkTopology"]

#: Supported shortest-path weight policies.
_WEIGHTS = ("hops", "latency", "transfer_cost")


class NetworkTopology:
    """A graph of hosts, routers and links used to auto-compute routes."""

    def __init__(self, platform: Platform) -> None:
        import networkx as nx  # on first use: no case-study platform needs it

        self.platform = platform
        self.graph = nx.Graph()
        self._link_by_edge: dict[tuple[str, str], Link] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_host(self, host: Host) -> None:
        """Add a platform host as an endpoint of the topology."""
        self.graph.add_node(host.name, kind="host")

    def add_router(self, name: str) -> None:
        """Add a pass-through router node (no compute capacity)."""
        if name in self.platform.hosts:
            raise PlatformError(f"{name!r} is already a host; routers need their own names")
        self.graph.add_node(name, kind="router")

    def connect(self, a: str, b: str, link: Link) -> None:
        """Connect two topology nodes with a platform link."""
        for endpoint in (a, b):
            if endpoint not in self.graph:
                raise PlatformError(f"unknown topology node {endpoint!r}; add it first")
        if a == b:
            raise PlatformError("cannot connect a node to itself")
        self.graph.add_edge(
            a,
            b,
            link=link,
            hops=1.0,
            latency=max(link.latency, 0.0),
            transfer_cost=1.0 / link.bandwidth,
        )
        self._link_by_edge[(a, b)] = link
        self._link_by_edge[(b, a)] = link

    # ------------------------------------------------------------------ #
    # route computation
    # ------------------------------------------------------------------ #
    def shortest_route(self, src: str, dst: str, weight: str = "hops") -> list[Link]:
        """The list of links on the shortest path between two nodes."""
        if weight not in _WEIGHTS:
            raise PlatformError(f"unknown weight policy {weight!r}; expected one of {_WEIGHTS}")
        import networkx as nx

        try:
            path = nx.shortest_path(self.graph, src, dst, weight=weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise PlatformError(f"no path between {src!r} and {dst!r}") from exc
        return [self._link_by_edge[(a, b)] for a, b in zip(path, path[1:], strict=False)]

    def apply(self, weight: str = "hops", hosts: list[Host] | None = None) -> int:
        """Compute and register routes between every pair of hosts.

        Parameters
        ----------
        weight:
            ``"hops"`` (default), ``"latency"`` or ``"transfer_cost"``.
        hosts:
            Restrict to these hosts (default: every host node added so far).

        Returns the number of routes registered.
        """
        if hosts is None:
            host_names = [n for n, data in self.graph.nodes(data=True) if data.get("kind") == "host"]
        else:
            host_names = [h.name for h in hosts]
        count = 0
        for i, src in enumerate(host_names):
            for dst in host_names[i + 1 :]:
                links = self.shortest_route(src, dst, weight=weight)
                if not links:
                    continue
                self.platform.add_route(
                    self.platform.host_by_name(src),
                    self.platform.host_by_name(dst),
                    links,
                    symmetric=True,
                )
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def bottleneck_link(self, src: str, dst: str, weight: str = "hops") -> Link:
        """The lowest-bandwidth link on the route between two nodes."""
        links = self.shortest_route(src, dst, weight=weight)
        if not links:
            raise PlatformError(f"{src!r} and {dst!r} are the same node")
        return min(links, key=lambda link: link.bandwidth)

    def describe(self) -> str:
        """Human-readable description of the topology graph."""
        lines = [f"NetworkTopology: {self.graph.number_of_nodes()} nodes, {self.graph.number_of_edges()} edges"]
        for a, b, data in sorted(self.graph.edges(data=True)):
            link: Link = data["link"]
            lines.append(f"  {a} -- {b} via {link.name} ({link.bandwidth:g} B/s)")
        return "\n".join(lines)
