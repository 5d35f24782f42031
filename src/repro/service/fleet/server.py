"""The fleet server: calibration jobs whose evaluations run elsewhere.

A :class:`FleetServer` is a :class:`~repro.service.server.CalibrationServer`
with the two template hooks overridden:

* the job cache is a lease-free
  :class:`~repro.service.fleet.evaluator.StoreReadCache` — the driver
  dispatches, the *workers* own the store leases;
* the driver is an :class:`~repro.core.async_driver.AsyncCalibrator`
  holding ``max_pending`` candidates in flight through a
  :class:`~repro.service.fleet.evaluator.FleetEvaluator` over the shared
  :class:`~repro.service.fleet.board.TaskBoard`, with ordered tells so a
  fleet job reproduces the single-process serial trajectory byte for
  byte.  Each task carries the job's ``RunConfig``, which the workers
  evaluate under; the driver settles a failure they report by its policy.

A light *store poller* backs up the HTTP publish path: a worker that
stored its result but died before the publish round-trip (or published
to a front-end that restarted) still resolves the task, because the
poller peeks every open task's key in the store on a short cadence.
"""

from __future__ import annotations

import dataclasses
import threading
from collections.abc import Callable
from typing import Any

from repro.core.async_driver import AsyncCalibrator
from repro.core.budget import EvaluationBudget
from repro.core.result import CalibrationResult
from repro.service.cache import JobCache
from repro.service.fleet.board import TaskBoard
from repro.service.fleet.evaluator import FleetEvaluator, StoreReadCache
from repro.service.jobs import CalibrationJob, CalibrationRequest
from repro.service.server import CalibrationServer, EventCallback
from repro.service.store import EvaluationStore

__all__ = ["FleetServer"]


class FleetServer(CalibrationServer):
    """Serves calibration jobs evaluated by remote fleet workers.

    Parameters (beyond :class:`~repro.service.server.CalibrationServer`'s)
    ----------
    max_pending:
        Candidates each job holds in flight on the task board — the
        fleet-wide analogue of the local pool width.
    poll_interval:
        Cadence of the store poller (seconds).
    """

    def __init__(
        self,
        store: EvaluationStore | None = None,
        workers: int = 2,
        on_event: EventCallback | None = None,
        max_pending: int = 4,
        poll_interval: float = 0.25,
    ) -> None:
        # progress_every=0: a fleet job's objective runs on the workers,
        # so the serial progress-wrapper would never fire anyway.
        super().__init__(
            store=store, workers=workers, on_event=on_event, progress_every=0
        )
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_pending = int(max_pending)
        self.poll_interval = float(poll_interval)
        self.board = TaskBoard()
        self._poller_stop = threading.Event()
        self._poller = threading.Thread(
            target=self._poll_store, name="fleet-store-poller", daemon=True
        )
        self._poller.start()

    # ------------------------------------------------------------------ #
    # template hooks
    # ------------------------------------------------------------------ #
    def _make_cache(self, request: CalibrationRequest) -> JobCache:
        return StoreReadCache(self.store, request.fingerprint)

    def _execute(
        self,
        job: CalibrationJob,
        objective: Callable[[dict[str, float]], float],
        cache: JobCache,
        on_checkpoint: Callable[[list[dict[str, Any]]], None] | None,
    ) -> CalibrationResult:
        request = job.request
        # Same replay semantics as the serial server path: first-seen
        # store hits are recorded and charged, in-run revisits free.
        config = dataclasses.replace(request.config, replay_cache_hits=True)
        evaluator = FleetEvaluator(
            self.board,
            job.id,
            request.fingerprint,
            spec={**request.metadata, "config": config.to_dict()},
        )
        driver = AsyncCalibrator(
            request.space,
            objective,
            algorithm=request.algorithm,
            max_pending=self.max_pending,
            budget=request.budget if request.budget is not None else EvaluationBudget(100),
            seed=request.seed,
            cache=cache,
            config=config,
            # Ordered tells buy the acceptance guarantee: the fleet run's
            # trajectory and best point are byte-identical to the
            # single-process serial run, whatever order workers finish in.
            ordered_tells=True,
            evaluator=evaluator,
        )
        try:
            return driver.run(
                resume=request.checkpoint,
                checkpoint_every=request.checkpoint_every,
                on_checkpoint=on_checkpoint,
            )
        finally:
            evaluator.close()

    # ------------------------------------------------------------------ #
    # the store poller
    # ------------------------------------------------------------------ #
    def _poll_store(self) -> None:
        while not self._poller_stop.wait(self.poll_interval):
            for task in self.board.open_tasks():
                value = self.store.peek(task.fingerprint, task.values)
                if value is not None:
                    # Worker-measured duration is lost on this path; zero
                    # keeps the record's interval degenerate but ordered.
                    self.board.resolve(task.id, value, 0.0)

    def shutdown(self, wait: bool = True) -> None:
        self._poller_stop.set()
        super().shutdown(wait=wait)
        if wait:
            self._poller.join()
