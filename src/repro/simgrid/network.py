"""Network communications over single links or multi-link routes."""

from __future__ import annotations

from collections.abc import Iterable

from repro.simgrid.activity import Activity, ActivityName
from repro.simgrid.errors import PlatformError
from repro.simgrid.link import Link

__all__ = ["communicate"]


def communicate(
    name: ActivityName,
    size: float,
    links: Iterable[Link],
    rate_cap: float | None = None,
) -> Activity:
    """Create (without starting) a data transfer of ``size`` bytes across the
    given sequence of links.

    The transfer's rate is bounded by the max-min fair share it obtains on
    every traversed link (the bottleneck link wins), and its startup latency
    is the sum of link latencies — the standard flow-level network model.

    Parameters
    ----------
    name:
        Label for traces.
    size:
        Payload size in bytes.
    links:
        Links traversed by the flow, in order (order does not matter for the
        fluid model).
    rate_cap:
        Optional application-level bandwidth cap in byte/s.
    """
    links = list(links)
    if not links:
        raise PlatformError(f"communication {name!r} must traverse at least one link")
    usages = {}
    latency = 0.0
    for link in links:
        usages[link.resource] = usages.get(link.resource, 0.0) + 1.0
        latency += link.latency
    return Activity(name, size, usages, rate_cap=rate_cap, latency=latency)
