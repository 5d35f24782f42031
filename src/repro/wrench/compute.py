"""Bare-metal compute service.

A :class:`BareMetalComputeService` owns a host and hands out *core slots*
to jobs: a job occupies one core from the moment it starts to the moment it
completes (computation, I/O and transfers included), which is how the
HTCondor worker slots of the case study behave.  The actual work performed
by a job is described by a caller-provided generator factory, so the same
service is reused by the case-study simulator and the ground-truth
reference system.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from repro.simgrid.errors import SimulationError
from repro.wrench.jobs import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simgrid.engine import SimulationEngine
    from repro.simgrid.host import Host


JobBody = Callable[[Job, "Host"], Generator]


class BareMetalComputeService:
    """A compute service exposing the cores of a single host."""

    def __init__(self, name: str, host: Host) -> None:
        self.name = str(name)
        self.host = host
        self.engine: SimulationEngine = host.engine
        self._free_cores = host.cores
        self._queue: deque[tuple] = deque()
        self._completed: list[Job] = []
        self._running = 0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def total_cores(self) -> int:
        return self.host.cores

    @property
    def free_cores(self) -> int:
        return self._free_cores

    @property
    def queued_jobs(self) -> int:
        return len(self._queue)

    @property
    def completed_jobs(self) -> list[Job]:
        return list(self._completed)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, job: Job, body: JobBody) -> None:
        """Submit a job: it starts as soon as a core is free (FCFS)."""
        if job.submit_time is None:
            job.submit_time = self.engine.now
        job.node_name = self.host.name
        self._queue.append((job, body))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._free_cores > 0 and self._queue:
            job, body = self._queue.popleft()
            self._free_cores -= 1
            self._running += 1
            self.engine.add_process(self._run_job(job, body), f"{self.name}:{job.name}")

    def _run_job(self, job: Job, body: JobBody) -> Generator:
        job.start_time = self.engine.now
        try:
            yield from body(job, self.host)
        except Exception as exc:  # noqa: BLE001 - converted to a simulation error
            raise SimulationError(f"job {job.name!r} failed on {self.host.name!r}: {exc}") from exc
        finally:
            job.end_time = self.engine.now
            self._free_cores += 1
            self._running -= 1
            self._completed.append(job)
            # A core was released: start queued jobs, if any.
            self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<BareMetalComputeService {self.name!r} host={self.host.name!r} "
            f"free={self._free_cores}/{self.total_cores}>"
        )
