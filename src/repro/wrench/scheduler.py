"""Workload-level scheduling.

The case-study platform runs 48 independent jobs on 48 cores spread over
three nodes, dispatched by HTCondor.  :class:`FCFSScheduler` reproduces the
relevant behaviour: jobs are assigned, in submission order, to the compute
service that currently has the most free cores (ties broken by service
order), and queue locally when every core is busy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.simgrid.errors import SimulationError
from repro.wrench.compute import BareMetalComputeService, JobBody
from repro.wrench.jobs import Job, JobSpec


class FCFSScheduler:
    """First-come-first-served greedy scheduler over several compute services."""

    def __init__(self, services: Sequence[BareMetalComputeService]) -> None:
        if not services:
            raise SimulationError("the scheduler needs at least one compute service")
        self.services = list(services)
        self.jobs: list[Job] = []

    @property
    def total_cores(self) -> int:
        return sum(s.total_cores for s in self.services)

    def _pick_service(self) -> BareMetalComputeService:
        # Most free cores first; stable tie-break on declaration order keeps
        # the schedule deterministic.
        best = self.services[0]
        for service in self.services[1:]:
            if service.free_cores - service.queued_jobs > best.free_cores - best.queued_jobs:
                best = service
        return best

    def submit(self, spec: JobSpec, body_factory: Callable[[Job], JobBody]) -> Job:
        """Submit one job; returns the created :class:`Job`."""
        job = Job(spec)
        service = self._pick_service()
        service.submit(job, body_factory(job))
        self.jobs.append(job)
        return job
