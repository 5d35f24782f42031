"""The fleet job's evaluation transport and its lease-free cache.

A fleet job runs a normal :class:`~repro.core.async_driver.AsyncCalibrator`;
two pieces adapt it to remote evaluation:

* :class:`StoreReadCache` — the job cache.  Unlike
  :class:`~repro.service.cache.StoreBackedCache` it **never takes a
  lease**: the driver is a *dispatcher* here, and the lease protocol
  belongs to the workers (the processes actually computing).  A driver
  that leased its own candidates would fence its workers out of them.
* :class:`FleetEvaluator` — the
  :class:`~repro.core.parallel.ParallelEvaluator` drop-in whose
  ``submit`` posts the candidate to the :class:`~repro.service.fleet.board.TaskBoard`
  instead of a local pool; the future resolves when some worker (or the
  server's store poller) publishes the result.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from collections.abc import Collection, Mapping
from typing import Any

from repro.core.evaluation import CacheKey
from repro.core.faults import EvaluationFailure
from repro.core.history import CalibrationHistory
from repro.core.parameters import ParameterSpace
from repro.service.cache import JobCache, _to_core_failure
from repro.service.fleet.board import Outcome, TaskBoard
from repro.service.store import EvaluationStore

__all__ = ["StoreReadCache", "FleetEvaluator"]


class StoreReadCache(JobCache):
    """Read-through store cache for one scenario; never leases.

    ``claim`` answers ``hit`` for stored points and hands everything else
    to the caller as ``claimed`` — in-flight deduplication happens on the
    task board (in-process) and through the workers' store leases
    (cross-process), not here.  ``put`` is an idempotent re-publish: the
    worker that computed the point already stored it, so the driver's put
    merely overwrites an equal entry.
    """

    def __init__(self, store: EvaluationStore, fingerprint: str) -> None:
        self.store = store
        self.fingerprint = fingerprint
        self.hits = 0

    def get(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        value = self.store.peek(self.fingerprint, values)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key: CacheKey, values: Mapping[str, float], value: float) -> None:
        self.store.put(self.fingerprint, values, value)

    def get_failure(
        self, key: CacheKey, values: Mapping[str, float]
    ) -> EvaluationFailure | None:
        """Surface worker-recorded quarantines to a fault-aware driver."""
        stored = self.store.get_failure(self.fingerprint, values)
        return None if stored is None else _to_core_failure(stored)


class FleetEvaluator:
    """Posts candidates to a task board; workers do the computing.

    Implements the evaluator surface the asynchronous driver needs —
    ``submit`` / ``wait`` / ``history`` / ``elapsed`` / ``reset_clock`` /
    ``close``
    — so it injects straight into
    :class:`~repro.core.async_driver.AsyncCalibrator` via its
    ``evaluator`` parameter.
    """

    def __init__(
        self,
        board: TaskBoard,
        job_id: str,
        fingerprint: str,
        spec: dict[str, Any] | None = None,
        space: ParameterSpace | None = None,
    ) -> None:
        self.board = board
        self.job_id = job_id
        self.fingerprint = fingerprint
        self.spec = dict(spec) if spec else {}
        self.space = space
        self.history = CalibrationHistory()
        self._start_time = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start_time

    def reset_clock(self, elapsed_offset: float = 0.0) -> None:
        self._start_time = time.perf_counter() - elapsed_offset

    def submit(self, candidate: dict[str, float]) -> Future[Outcome]:
        return self.board.post(self.job_id, self.fingerprint, dict(candidate), self.spec)

    def wait(
        self, futures: Collection[Future[Outcome]], timeout: float | None = None
    ) -> set[Future[Outcome]]:
        """Block until one of ``futures`` is done or ``timeout`` seconds
        have passed, and return those that are done."""
        return wait(futures, timeout, FIRST_COMPLETED).done

    def close(self) -> None:
        """Withdraw whatever this job still has open on the board."""
        self.board.withdraw_job(self.job_id)
