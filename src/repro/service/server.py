"""The calibration server: a bounded worker pool over a job queue.

The server accepts :class:`~repro.service.jobs.CalibrationRequest`
submissions, schedules them over ``workers`` threads, and runs each one
through a plain :class:`~repro.core.calibrator.Calibrator` whose cache is
a :class:`~repro.service.cache.StoreBackedCache` bound to the shared
:class:`~repro.service.store.EvaluationStore`:

* evaluations computed by any job are immediately visible to every other
  job (and, with a file-backed store, to future server processes);
* identical in-flight evaluations are deduplicated — when two concurrent
  jobs on the same scenario reach the same point, one simulates and the
  other waits for the result;
* jobs served from a warm store still terminate at the same point as the
  cold run they replay (first-seen cache hits are recorded in the history
  and charged against the budget; in-run revisits stay free, exactly as
  in a plain calibrator), so a re-submitted evaluation-budget job
  reproduces the cold run's best point exactly, in a fraction of the
  wall-clock.  Time-budget jobs cannot replay exactly — store hits cost
  ~no wall-clock, so a warm job simply gets much further within its T
  seconds; it still reuses every stored point it revisits.

Progress is streamed as :class:`~repro.service.jobs.JobEvent` records to
an optional ``on_event`` callback (submitted / started / progress /
checkpoint / finished / failed).

Jobs are resumable: a request with ``checkpoint_every > 0`` emits
``checkpoint`` events whose payload ``entries`` extends the run's tell
log (delivered to the callback only — entries are not retained on the
job), and a request carrying that log as its ``checkpoint`` replays it
and picks the trajectory up where it stopped — the logged evaluations
re-enter the budget, the history *and* the shared store, so a
killed-then-resubmitted job finishes with exactly the best point of an
uninterrupted one without re-simulating the work already done (``repro
serve`` logs every tell to a file in the job spool, and replays it for a
job a killed server left behind).
"""

from __future__ import annotations

import dataclasses
import threading
import traceback
from collections.abc import Callable
from typing import Any

from repro.core.budget import EvaluationBudget
from repro.core.calibrator import Calibrator
from repro.core.result import CalibrationResult
from repro.service.cache import JobCache, StoreBackedCache
from repro.service.jobs import CalibrationJob, CalibrationRequest, JobEvent, JobQueue, JobStatus
from repro.service.store import EvaluationStore, InMemoryStore
from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

__all__ = ["CalibrationServer"]

EventCallback = Callable[[CalibrationJob, JobEvent], None]


class CalibrationServer:
    """Serves calibration jobs over a shared evaluation store.

    Parameters
    ----------
    store:
        The shared evaluation store; defaults to a fresh
        :class:`~repro.service.store.InMemoryStore`.
    workers:
        Size of the worker pool (concurrent jobs).
    on_event:
        Optional callback invoked as ``on_event(job, event)`` for every
        progress event of every job.  What it raises is ignored, except
        on a ``checkpoint`` event: a tell log that cannot be written fails
        the job.
    progress_every:
        Emit a ``progress`` event every this many objective evaluations of
        a job (0 disables progress events).
    """

    def __init__(
        self,
        store: EvaluationStore | None = None,
        workers: int = 2,
        on_event: EventCallback | None = None,
        progress_every: int = 25,
    ) -> None:
        if workers < 1:
            raise ValueError("the server needs at least one worker")
        self.store = store if store is not None else InMemoryStore()
        self.on_event = on_event
        self.progress_every = int(progress_every)
        self.queue = JobQueue()
        self.jobs: dict[str, CalibrationJob] = {}
        self._jobs_lock = threading.Lock()
        self._job_counter = 0
        self._workers: list[threading.Thread] = []
        self._shutdown = False
        for index in range(int(workers)):
            thread = threading.Thread(
                target=self._worker_loop, name=f"calibration-worker-{index}", daemon=True
            )
            thread.start()
            self._workers.append(thread)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(self, request: CalibrationRequest, job_id: str | None = None) -> CalibrationJob:
        """Enqueue one calibration request and return its job handle."""
        if self._shutdown:
            raise RuntimeError("the server has been shut down")
        with self._jobs_lock:
            self._job_counter += 1
            if job_id is None:
                job_id = f"job-{self._job_counter:04d}"
            if job_id in self.jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            job = CalibrationJob(job_id, request)
            self.jobs[job_id] = job
        self._emit(job, "submitted", f"{job.id} submitted ({request.algorithm})")
        try:
            self.queue.push(job)
        except RuntimeError:
            # A concurrent shutdown() closed the queue between the check
            # above and the push: unregister the job so no drain()/wait()
            # blocks on work that will never run.
            with self._jobs_lock:
                self.jobs.pop(job_id, None)
            job.mark_done()
            raise RuntimeError("the server has been shut down") from None
        return job

    def get(self, job_id: str) -> CalibrationJob:
        with self._jobs_lock:
            return self.jobs[job_id]

    def snapshot(self) -> list[dict]:
        """Status of every known job, in submission order."""
        with self._jobs_lock:
            return [job.to_dict() for job in self.jobs.values()]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for the backlog to finish.

        Workers only exit once the queue backlog drains, so after the
        joins anything still queued was stranded by a dying pool (every
        worker thread crashed out): those jobs are failed and released so
        no waiter blocks on work that can never run.
        """
        with self._jobs_lock:
            self._shutdown = True
        self.queue.close()
        if wait:
            for thread in self._workers:
                thread.join()
            while True:
                job = self.queue.pop(timeout=0)
                if job is None:
                    break
                job.status = JobStatus.FAILED
                job.error = "the worker pool died before the job ran"
                self._emit(job, "failed", f"{job.id} failed: {job.error}")
                job.mark_done()

    def __enter__(self) -> CalibrationServer:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # On an exception (a Ctrl-C in a waiting caller) leave at once:
        # the worker threads are daemons, and a job they leave unfinished
        # is resumed from its tell log by the next server.
        self.shutdown(wait=exc_type is None)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return
            try:
                self._run_job(job)
            except BaseException:
                # _run_job only lets non-Exception escapes through
                # (SystemExit/KeyboardInterrupt raised by an objective,
                # interpreter teardown).  The thread is about to die —
                # fail the job and release its waiters first so drain()
                # and shutdown() don't block on it forever.
                if not job.finished:
                    job.status = JobStatus.FAILED
                    job.error = "worker died mid-job"
                    self._emit(job, "failed", f"{job.id} failed: {job.error}")
                job.mark_done()
                raise

    # ------------------------------------------------------------------ #
    # template hooks — subclasses (the fleet server) override these to
    # swap the cache claim semantics and the calibration driver without
    # re-implementing job lifecycle, events or metrics.
    # ------------------------------------------------------------------ #
    def _make_cache(self, request: CalibrationRequest) -> JobCache:
        """Build the evaluation cache one job runs against."""
        return StoreBackedCache(self.store, request.fingerprint)

    def _execute(
        self,
        job: CalibrationJob,
        objective: Callable[[dict[str, float]], float],
        cache: JobCache,
        on_checkpoint: Callable[[list[dict[str, Any]]], None] | None,
    ) -> CalibrationResult:
        """Run one job's calibration to completion."""
        request = job.request
        calibrator = Calibrator(
            request.space,
            objective,
            algorithm=request.algorithm,
            budget=request.budget if request.budget is not None else EvaluationBudget(100),
            seed=request.seed,
            cache=cache,
            # First-seen cache hits stay visible in the history and
            # charge the budget: a fully warm job performs zero
            # simulator invocations yet replays the cold run's
            # trajectory and terminates at the same point (in-run
            # revisits stay free, as in a plain calibrator).
            config=dataclasses.replace(request.config, replay_cache_hits=True),
        )
        return calibrator.run(
            resume=request.checkpoint,
            checkpoint_every=request.checkpoint_every,
            on_checkpoint=on_checkpoint,
        )

    def _run_job(self, job: CalibrationJob) -> None:
        request = job.request
        job.status = JobStatus.RUNNING
        self._emit(job, "started", f"{job.id} running ({request.algorithm})")
        cache = self._make_cache(request)
        objective = request.objective
        if self.progress_every > 0:
            objective = self._with_progress(job, objective)
        try:
            on_checkpoint = None
            if request.checkpoint_every > 0:

                def on_checkpoint(entries):
                    # Delivered to subscribers only (store=False): the log
                    # grows with the run and must not accumulate on the
                    # job for the server's lifetime.  Not swallowed as
                    # ``_emit`` does: the subscriber writes the job's one
                    # record, so a failed append fails the job.
                    event = job.emit(
                        "checkpoint",
                        f"{job.id}: {len(entries)} more tells logged",
                        store=False,
                        entries=entries,
                    )
                    if self.on_event is not None:
                        self.on_event(job, event)

            result = self._execute(job, objective, cache, on_checkpoint)
        except Exception as exc:
            job.status = JobStatus.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            job.cache_hits = cache.hits
            self._count_job(job, cache)
            self._emit(job, "failed", f"{job.id} failed: {job.error}",
                       traceback=traceback.format_exc())
            job.mark_done()
            return
        job.result = result
        job.status = JobStatus.DONE
        job.cache_hits = cache.hits
        job.evaluations = result.evaluations
        job.elapsed = result.elapsed
        self._count_job(job, cache)
        self._emit(
            job,
            "finished",
            f"{job.id} done: best {result.best_value:.4g} after "
            f"{result.evaluations} simulations ({cache.hits} cache hits)",
            best_value=result.best_value,
            evaluations=result.evaluations,
            cache_hits=cache.hits,
        )
        job.mark_done()

    @staticmethod
    def _count_job(job: CalibrationJob, cache: JobCache) -> None:
        """Mirror one finished/failed job into the metrics registry."""
        if not _REGISTRY.enabled:
            return
        _REGISTRY.counter(
            "repro_service_jobs_total",
            "Calibration jobs finished, by terminal status.",
            status=job.status.value,
        ).inc()
        _REGISTRY.counter(
            "repro_service_job_cache_hits_total",
            "Store cache hits accumulated by finished jobs.",
        ).inc(cache.hits)
        _REGISTRY.counter(
            "repro_service_job_evaluations_total",
            "Objective evaluations charged to finished jobs.",
        ).inc(job.evaluations)
        _REGISTRY.histogram(
            "repro_service_job_seconds",
            "Wall-clock duration of one calibration job.",
        ).observe(job.elapsed)

    def _with_progress(self, job: CalibrationJob, objective):
        """Wrap the objective so the job emits periodic progress events."""
        counter = {"n": 0}

        def wrapped(values):
            value = objective(values)
            counter["n"] += 1
            if counter["n"] % self.progress_every == 0:
                self._emit(job, "progress", f"{job.id}: {counter['n']} simulations",
                           simulations=counter["n"])
            return value

        return wrapped

    def _emit(
        self, job: CalibrationJob, kind: str, message: str, store: bool = True, **payload
    ) -> None:
        event = job.emit(kind, message, store=store, **payload)
        if self.on_event is not None:
            try:
                self.on_event(job, event)
            except Exception:
                # A broken subscriber must not take the worker down.
                pass
