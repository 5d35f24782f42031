"""Max-min fair sharing solver.

Given a set of running activities, each using one or more resources with a
usage weight and possibly a per-activity rate cap, compute the rate of each
activity under max-min fairness (progressive filling):

1. All activities start unassigned with rate 0.
2. Repeatedly find the tightest constraint — either a resource whose
   remaining capacity divided by the total weight of its unassigned
   activities is minimal, or an unassigned activity whose rate cap is
   smaller than every such fair share.
3. Freeze the corresponding activities at that rate, subtract their
   consumption from every resource they use, and iterate.

This is the same fluid model SimGrid uses for network flows ("LV08"-style
sharing without the RTT cross-traffic factors) and for CPU sharing on
multicore hosts.  The solver is written for small platforms (tens of
resources, hundreds of concurrent activities), which is what the paper's
case study requires; it is exact and deterministic: every sum and
subtraction runs in the order the activities were passed in, so the result
is a function of that order and of nothing else (no set is ever iterated).

Cost.  One pass over the activities builds, per resource, the list of its
users and the total weight of those still unassigned.  A filling step then
compares one cached weight per resource and one cap per capped activity;
only the resources a freeze just touched have their user list pruned and
their weight summed again.  The per-call dictionaries and lists are the
only allocations; nothing is allocated per filling step except the pruned
lists.

Resources that share no activity do not interact: the shares of one
connected component depend on its own capacities and members only, so the
engine (:meth:`SimulationEngine._update_rates`) passes just the component
an event touched and gets the rates a solve of everything would give.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.simgrid.activity import Activity
from repro.simgrid.resources import Resource

__all__ = ["solve_max_min"]

_EPSILON = 1e-12
_INFINITY = float("inf")


def solve_max_min(activities: Iterable[Activity]) -> dict[Activity, float]:
    """Compute max-min fair rates for ``activities``.

    Returns a mapping from each activity to its rate in work units per
    second.  Activities with no resource usage are only limited by their
    rate cap (infinite rate if they have none — callers normally give such
    activities an amount of zero).
    """
    rates: dict[Activity, float] = {}
    # Per resource involved: remaining capacity, users still unassigned (in
    # the order given) and their total weight.  A resource leaves ``weights``
    # when its last user is frozen.
    remaining: dict[Resource, float] = {}
    users: dict[Resource, list[tuple[Activity, float]]] = {}
    weights: dict[Resource, float] = {}
    unassigned: set[Activity] = set()
    capped: list[tuple[Activity, float]] = []

    for activity in activities:
        shared = False
        for resource, usage in activity.usages.items():
            if usage <= 0:
                continue
            shared = True
            if resource in remaining:
                users[resource].append((activity, usage))
                weights[resource] += usage
            else:
                remaining[resource] = resource.capacity
                users[resource] = [(activity, usage)]
                weights[resource] = 0.0 + usage  # summed from 0.0, as when re-summed below
        cap = activity.rate_cap
        if not shared:
            # Uses no resource at all: the rate is only bounded by the cap.
            rates[activity] = cap if cap is not None else _INFINITY
            continue
        unassigned.add(activity)
        if cap is not None:
            capped.append((activity, cap))

    while unassigned:
        # Find the tightest bottleneck among resources...
        bottleneck_share = _INFINITY
        bottleneck_resource = None
        for resource, weight in weights.items():
            share = remaining[resource] / weight
            if share < bottleneck_share - _EPSILON:
                bottleneck_share = share
                bottleneck_resource = resource

        # ... and among the rate caps of unassigned activities.
        capped_activity = None
        for activity, limit in capped:
            if limit < bottleneck_share - _EPSILON and activity in unassigned:
                bottleneck_share = limit
                capped_activity = activity

        if capped_activity is not None:
            # A single activity saturates its own cap before any resource
            # saturates: freeze it and charge its consumption.
            frozen = [capped_activity]
        elif bottleneck_resource is not None:
            frozen = [activity for activity, _ in users[bottleneck_resource]]
        else:
            # No constraint applies.  Every unassigned activity uses a
            # resource of positive weight, so this takes a capacity that is
            # infinite or not a number.
            for activity in unassigned:
                rates[activity] = _INFINITY
            break

        touched: dict[Resource, None] = {}
        for activity in frozen:
            rate = bottleneck_share
            cap = activity.rate_cap
            if cap is not None and cap < rate:
                rate = cap
            rates[activity] = 0.0 if rate < 0.0 else rate
            unassigned.discard(activity)
            for resource, usage in activity.usages.items():
                if usage <= 0:
                    continue
                left = remaining[resource] - rate * usage
                remaining[resource] = 0.0 if left < 0.0 else left
                touched[resource] = None

        for resource in touched:
            live = [entry for entry in users[resource] if entry[0] in unassigned]
            if live:
                weight = 0.0
                for _, usage in live:
                    weight += usage
                users[resource] = live
                weights[resource] = weight
            else:
                del weights[resource]

    return rates
