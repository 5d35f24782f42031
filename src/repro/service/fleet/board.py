"""The task board: open evaluation tasks a fleet server wants computed.

A fleet job's driver posts one task per candidate; pull-based workers
fetch the open tasks over HTTP, claim them through the store's lease
protocol and publish results back, which resolves the posted future and
lets the driver continue.  The board itself knows nothing about leases —
cross-process single-flight is the *store's* job — it only deduplicates
identical open points (two jobs on the same scenario and run
configuration reaching the same candidate share one task) and routes
results to futures.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from typing import Any

from repro.core.async_driver import RunConfig
from repro.core.faults import EvaluationFailed, EvaluationFailure
from repro.service.store import evaluation_key
from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

__all__ = ["FleetTask", "TaskBoard"]

Outcome = tuple[float, float]  # (objective value, worker-measured duration)


@dataclasses.dataclass(frozen=True)
class FleetTask:
    """One open evaluation: a candidate some job wants computed."""

    id: str
    #: the job the task is posted for (the first of its riders still open)
    job_id: str
    fingerprint: str
    values: dict[str, float]
    #: the job specification the worker rebuilds the objective from
    #: (platform / scale / icds / metric for case-study jobs) and the
    #: job's run configuration, under ``config``
    spec: dict[str, Any]
    created_at: float

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


#: what makes two posts one task: the evaluation key and the run config
_TaskKey = tuple[str, RunConfig]


@dataclasses.dataclass
class _Rider:
    job_id: str
    spec: dict[str, Any]
    future: Future[Outcome]


@dataclasses.dataclass
class _Entry:
    task: FleetTask
    key: _TaskKey
    riders: list[_Rider]


class TaskBoard:
    """Thread-safe registry of open tasks, deduplicated by content key."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._entries: dict[str, _Entry] = {}
        self._by_key: dict[_TaskKey, str] = {}  # -> open task id
        self._counter = 0

    # ------------------------------------------------------------------ #
    # producer side (the fleet server's drivers)
    # ------------------------------------------------------------------ #
    def post(
        self,
        job_id: str,
        fingerprint: str,
        values: dict[str, float],
        spec: dict[str, Any],
    ) -> Future[Outcome]:
        """Register one candidate; returns the future its result lands on.

        An identical point already open (same fingerprint and canonical
        values, from any job) under the same run configuration (the
        spec's ``config``) is *joined*, not re-posted: the new future
        rides on the existing task and one worker evaluation settles both.
        The same point under another configuration is another task, so
        each job's point runs under its own retries, timeout and failure
        policy.
        """
        key = (evaluation_key(fingerprint, values), RunConfig.from_dict(spec.get("config") or {}))
        future: Future[Outcome] = Future()
        rider = _Rider(job_id, dict(spec), future)
        with self._cond:
            task_id = self._by_key.get(key)
            if task_id is not None:
                self._entries[task_id].riders.append(rider)
                return future
            self._counter += 1
            task_id = f"task-{self._counter:06d}"
            task = FleetTask(
                id=task_id,
                job_id=job_id,
                fingerprint=fingerprint,
                values=dict(values),
                spec=rider.spec,
                created_at=time.time(),
            )
            self._entries[task_id] = _Entry(task, key, [rider])
            self._by_key[key] = task_id
            self._cond.notify_all()
        self._count("repro_fleet_tasks_posted_total", "Evaluation tasks posted to the board.")
        return future

    def withdraw_job(self, job_id: str) -> int:
        """Cancel a job's futures on the open tasks (its driver is done or
        failed); returns how many were cancelled.

        A task no other job rides on is dropped.  A shared one stays
        open for its other riders; if the closing job posted it, it
        passes to the next rider's job and spec, under the same id, so a
        worker already evaluating it still publishes to it.
        """
        cancelled: list[Future[Outcome]] = []
        with self._cond:
            for task_id, entry in list(self._entries.items()):
                staying = [r for r in entry.riders if r.job_id != job_id]
                if len(staying) == len(entry.riders):
                    continue
                cancelled.extend(r.future for r in entry.riders if r.job_id == job_id)
                entry.riders = staying
                if not staying:
                    del self._entries[task_id]
                    del self._by_key[entry.key]
                elif entry.task.job_id == job_id:
                    heir = staying[0]
                    entry.task = dataclasses.replace(
                        entry.task, job_id=heir.job_id, spec=heir.spec
                    )
        for future in cancelled:
            future.cancel()
        return len(cancelled)

    # ------------------------------------------------------------------ #
    # consumer side (the HTTP front-end, on behalf of workers)
    # ------------------------------------------------------------------ #
    def open_tasks(self) -> list[FleetTask]:
        with self._cond:
            return [entry.task for entry in self._entries.values()]

    def wait_for_tasks(self, timeout: float) -> list[FleetTask]:
        """Open tasks, long-polling up to ``timeout`` seconds for one."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while not self._entries:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    break
            return [entry.task for entry in self._entries.values()]

    def resolve(self, task_id: str, value: float, duration: float = 0.0) -> bool:
        """Publish a result; resolves every future riding on the task.

        Idempotent in effect: a second publish of an already-resolved
        task returns ``False`` and changes nothing (two workers racing a
        lease takeover are expected to collide here occasionally).
        """
        entry = self._take(task_id)
        if entry is None:
            return False
        # Futures are settled outside the lock: set_result wakes driver
        # threads immediately and must not do so while holding the board.
        for rider in entry.riders:
            rider.future.set_result((float(value), float(duration)))
        self._count("repro_fleet_tasks_resolved_total", "Evaluation tasks resolved by workers.")
        return True

    def fail(self, task_id: str, failure: EvaluationFailure) -> bool:
        """A worker reports the evaluation failed: the failure reaches the
        futures as :class:`~repro.core.faults.EvaluationFailed`, which
        each owning driver settles by its own failure policy, as it does
        a local pool's.  (A worker *dying* is not a failure — its lease
        expires and another worker takes the task over.)"""
        entry = self._take(task_id)
        if entry is None:
            return False
        for rider in entry.riders:
            rider.future.set_exception(EvaluationFailed(failure))
        self._count("repro_fleet_tasks_failed_total", "Evaluation tasks failed by workers.")
        return True

    def _take(self, task_id: str) -> _Entry | None:
        """Remove an open task; ``None`` if it is resolved already."""
        with self._cond:
            entry = self._entries.pop(task_id, None)
            if entry is not None:
                del self._by_key[entry.key]
            return entry

    def _count(self, name: str, help_text: str) -> None:
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None:
            reg.counter(name, help_text).inc()
            reg.gauge(
                "repro_fleet_tasks_open", "Evaluation tasks currently open on the board."
            ).set(len(self))

    def __len__(self) -> int:
        with self._cond:
            return len(self._entries)
