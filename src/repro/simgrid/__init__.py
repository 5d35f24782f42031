"""Fluid-model discrete-event simulation substrate.

This subpackage is a from-scratch, pure-Python reimplementation of the
modelling level that the paper's case-study simulator obtains from
SimGrid: resources (hosts with cores, network links, disks, memory) with
capacities, activities (computations, communications, I/O operations)
that progress at rates determined by max-min fair sharing of the
resources they use, and generator-based simulated processes scheduled by
a discrete-event engine.

The public surface is intentionally small:

* :class:`~repro.simgrid.engine.SimulationEngine` — the event loop.
* :class:`~repro.simgrid.platform.Platform` — hosts/links/disks and routes.
* :class:`~repro.simgrid.host.Host`, :class:`~repro.simgrid.link.Link`,
  :class:`~repro.simgrid.disk.Disk`, :class:`~repro.simgrid.memory.Memory`.
* Activity constructors: ``host.exec_async``, ``link/route`` communications via
  :func:`~repro.simgrid.network.communicate`, ``disk.read_async`` /
  ``disk.write_async``, ``memory.read_async``.
* Process helpers: :class:`~repro.simgrid.process.Timeout`,
  :class:`~repro.simgrid.process.AllOf`, :class:`~repro.simgrid.process.AnyOf`.

Routes are explicit link lists given to the platform.
"""

from repro.simgrid.activity import Activity, ActivityState
from repro.simgrid.disk import Disk
from repro.simgrid.engine import SimulationEngine
from repro.simgrid.errors import (
    ActivityCanceledError,
    PlatformError,
    SimulationError,
)
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.memory import Memory
from repro.simgrid.network import communicate
from repro.simgrid.platform import Platform
from repro.simgrid.process import AllOf, AnyOf, Process, Timeout
from repro.simgrid.resources import Resource

__all__ = [
    "Activity",
    "ActivityState",
    "ActivityCanceledError",
    "AllOf",
    "AnyOf",
    "Disk",
    "Host",
    "Link",
    "Memory",
    "Platform",
    "PlatformError",
    "Process",
    "Resource",
    "SimulationEngine",
    "SimulationError",
    "Timeout",
    "communicate",
]
