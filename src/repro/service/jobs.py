"""Calibration jobs: requests, lifecycle state, events and the queue.

A :class:`CalibrationRequest` is the generic unit of work the service
accepts — a parameter space, an objective callable, a scenario
fingerprint (so evaluations land in the shared store under the right
key), an algorithm, a budget and the run configuration its evaluations
settle failures by.  The case-study bridge that builds a
request from a platform/scale specification lives in
:mod:`repro.service.case_study` so this module stays free of any
simulator knowledge; custom simulators submit requests directly.

A :class:`CalibrationJob` tracks one submitted request through
``PENDING -> RUNNING -> DONE | FAILED``, accumulating progress events
that the server streams to its ``on_event`` subscribers.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from collections.abc import Callable
from typing import Any

from repro.core.algorithms import CalibrationAlgorithm
from repro.core.async_driver import RunConfig
from repro.core.budget import Budget
from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult

__all__ = [
    "CalibrationRequest",
    "JobStatus",
    "JobEvent",
    "CalibrationJob",
    "JobQueue",
]


@dataclasses.dataclass
class CalibrationRequest:
    """Everything needed to run one calibration as a service job."""

    space: ParameterSpace
    objective: Callable[[dict[str, float]], float]
    fingerprint: str
    #: a registry name, or a configured instance from ``get_algorithm``
    algorithm: str | CalibrationAlgorithm = "random"
    budget: Budget | None = None
    seed: int = 0
    label: str = ""
    #: free-form request metadata, echoed into status reports (the CLI puts
    #: the platform/scale/metric specification here)
    metadata: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: how the job's evaluations settle failures, wherever they run (the
    #: server turns ``replay_cache_hits`` on itself)
    config: RunConfig = RunConfig()
    #: emit a ``checkpoint`` job event (carrying the new tell-log entries
    #: in its payload, see :meth:`repro.core.async_driver.AsyncCalibrator.run`)
    #: every this many tells; 0 disables
    checkpoint_every: int = 0
    #: the tell log of an interrupted run of this job (every entry its
    #: checkpoint events carried) — the job replays it and finishes the
    #: interrupted trajectory
    checkpoint: list[dict[str, Any]] | None = None


class JobStatus(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclasses.dataclass(frozen=True)
class JobEvent:
    """One progress event; ``seq`` orders events within a job."""

    seq: int
    kind: str
    message: str
    payload: dict[str, Any] = dataclasses.field(default_factory=dict)


class CalibrationJob:
    """One submitted request and its lifecycle."""

    def __init__(self, job_id: str, request: CalibrationRequest) -> None:
        self.id = job_id
        self.request = request
        self.status = JobStatus.PENDING
        self.result: CalibrationResult | None = None
        self.error: str | None = None
        self.cache_hits = 0
        self.evaluations = 0
        self.elapsed = 0.0
        self.events: list[JobEvent] = []
        self._seq = 0
        self._done = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def emit(self, kind: str, message: str, store: bool = True, **payload: Any) -> JobEvent:
        """Create the next event; ``store=False`` delivers it to
        subscribers without retaining it on the job — used for checkpoint
        events, whose tell-log entries would otherwise pin the whole log
        in memory for the server's lifetime."""
        with self._lock:
            event = JobEvent(seq=self._seq, kind=kind, message=message, payload=payload)
            self._seq += 1
            if store:
                self.events.append(event)
        return event

    def mark_done(self) -> None:
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finished (or failed); returns False on timeout."""
        return self._done.wait(timeout)

    @property
    def finished(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible status snapshot (used by ``repro status``)."""
        data: dict[str, Any] = {
            "id": self.id,
            "status": self.status.value,
            "algorithm": self.request.algorithm,
            "seed": self.request.seed,
            "label": self.request.label,
            "fingerprint": self.request.fingerprint,
            "metadata": dict(self.request.metadata),
            "cache_hits": self.cache_hits,
            "evaluations": self.evaluations,
            "elapsed": self.elapsed,
        }
        if self.result is not None:
            data["best_value"] = self.result.best_value
            data["best_values"] = dict(self.result.best_values)
        if self.error is not None:
            data["error"] = self.error
        return data


class JobQueue:
    """Thread-safe FIFO of pending jobs, closable for worker shutdown."""

    def __init__(self) -> None:
        self._jobs: list[CalibrationJob] = []
        self._cond = threading.Condition()
        self._closed = False

    def push(self, job: CalibrationJob) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("the job queue is closed")
            self._jobs.append(job)
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> CalibrationJob | None:
        """Next pending job; ``None`` once the queue is closed and drained
        (or on timeout)."""
        with self._cond:
            while not self._jobs and not self._closed:
                if not self._cond.wait(timeout=timeout):
                    return None
            if self._jobs:
                return self._jobs.pop(0)
            return None

    def close(self) -> None:
        """No more pushes; blocked pops return once the backlog drains."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._jobs)
