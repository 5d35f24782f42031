"""Parallel objective evaluation.

In the paper's experimental protocol "each algorithm executes one
simulation on each core of a dedicated 2.5 GHz Intel Xeon Gold 6248
40-core CPU": candidate parameter sets are evaluated concurrently, one
simulator invocation per core.  This module provides that capability:

* :class:`ParallelEvaluator` — the evaluation transport: dispatches one
  parameter-value dictionary at a time to a process pool (or a thread
  pool, or inline) and hands back a future; the pool lives until
  :meth:`~ParallelEvaluator.close`;
* :class:`BatchCalibrator` — drives *any* ask/tell
  :class:`~repro.core.algorithms.CalibrationAlgorithm` through a
  :class:`ParallelEvaluator` with ``k``-wide asks: population algorithms
  (DE, CMA-ES, Sobol/LHS/grid/random designs) surface whole generations
  that are evaluated ``workers`` at a time, optionally answering
  candidates from a shared evaluation cache before dispatching them.  It
  is the pooled event loop of :mod:`repro.core.async_driver` with a
  barrier between batches.

Process-based execution requires the objective function to be picklable —
a plain function, or a callable object such as the case study's
:class:`repro.hepsim.calibration.CaseStudyObjective` (closures will not
work).  Thread-based execution accepts any callable but only pays off when
the objective releases the GIL; the default ``"process"`` mode matches the
paper's protocol.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor

from repro.core.algorithms import CalibrationAlgorithm
from repro.core.async_driver import AsyncCalibrator, RunConfig
from repro.core.budget import Budget
from repro.core.evaluation import CacheBackend
from repro.core.faults import EVAL_METRIC_HELP, RetryPolicy, run_guarded
from repro.core.history import CalibrationHistory
from repro.core.parameters import ParameterSpace
from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

__all__ = ["ParallelEvaluator", "BatchCalibrator"]

ObjectiveFunction = Callable[[dict[str, float]], float]
Outcome = tuple[float, float]  # (objective value, worker-measured duration)


def _timed_call(function: ObjectiveFunction, candidate: dict[str, float]) -> Outcome:
    """Worker-side wrapper: evaluate and time one candidate.

    The duration is measured *on the worker* — ``perf_counter`` deltas
    are only meaningful within one process, so the worker reports how
    long its own call took and the driver anchors that interval to its
    clock at completion time.  Top-level (not a closure) so process
    pools can pickle it.
    """
    started = time.perf_counter()
    value = float(function(candidate))
    return value, time.perf_counter() - started


#: (value, worker-measured duration, retries burned) — the fault-tolerant
#: sibling of :data:`Outcome`
GuardedOutcome = tuple[float, float, int]


def _guarded_timed_call(
    function: ObjectiveFunction,
    candidate: dict[str, float],
    timeout: float | None,
    retry: RetryPolicy | None,
) -> GuardedOutcome:
    """Worker-side fault-tolerant wrapper: retries and timeouts run *in*
    the worker (a process pool pickles the callable per submission, so
    per-attempt state cannot live on the driver side), and the per-attempt
    ``SIGALRM`` timeout works precisely because this is the worker
    process's main thread.  Exhaustion raises
    :class:`~repro.core.faults.EvaluationFailed`, which pickles back
    through the future.  Top-level so process pools can pickle it.
    """
    started = time.perf_counter()
    value, retries = run_guarded(function, candidate, retry, timeout)
    return value, time.perf_counter() - started, retries


class ParallelEvaluator:
    """Evaluates candidate calibrations concurrently, one future each.

    ``mode`` is ``"process"``, ``"thread"`` or ``"serial"`` (inline).
    ``config`` supplies the per-attempt timeout and retry policy, which
    run inside the worker (see :func:`_guarded_timed_call`); a config
    that is not :attr:`~repro.core.async_driver.RunConfig.guarded` keeps
    the plain dispatch, so an objective exception reaches the driver as
    itself instead of as :class:`~repro.core.faults.EvaluationFailed`.
    """

    def __init__(
        self,
        function: ObjectiveFunction,
        space: ParameterSpace,
        workers: int = 4,
        mode: str = "process",
        config: RunConfig | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("the number of workers must be at least 1")
        if mode not in ("process", "thread", "serial"):
            raise ValueError(f"unknown execution mode {mode!r}")
        self.function = function
        self.space = space
        self.workers = int(workers)
        self.mode = mode
        self.config = config if config is not None else RunConfig()
        #: retries burned across all dispatches (transient failures that
        #: were re-attempted in a worker and eventually succeeded or not)
        self.retries_total = 0
        #: created by the first :meth:`submit` and kept until
        #: :meth:`close` (pool start-up would otherwise dominate a driver
        #: that dispatches many single candidates)
        self._executor: Executor | None = None
        #: the driver's record of the run (the evaluator only carries it)
        self.history = CalibrationHistory()
        self._start_time = time.perf_counter()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _make_executor(self) -> Executor | None:
        if self.mode == "process":
            return ProcessPoolExecutor(max_workers=self.workers)
        if self.mode == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return None

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since the evaluator was created (or reset)."""
        return time.perf_counter() - self._start_time

    def reset_clock(self, elapsed_offset: float = 0.0) -> None:
        """Restart the clock; a resumed run passes the wall-clock its
        tell log had already spent so new timestamps stay monotone
        after the replayed ones."""
        self._start_time = time.perf_counter() - elapsed_offset

    def close(self) -> None:
        """Shut down the pool (no-op before the first dispatch)."""
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True, cancel_futures=True)

    def replace_pool(self) -> None:
        """Hard-replace a wedged pool: kill its worker processes and drop
        the executor, so the next dispatch starts a fresh one.

        This is the driver-side backstop for evaluations the in-worker
        ``SIGALRM`` timeout could not interrupt (C extensions holding the
        GIL, platforms without alarms).  Pending futures on the old pool
        fail with ``BrokenProcessPool``; the caller decides which of them
        to resubmit.  Only process pools can be killed — in thread mode
        this just detaches the executor (threads are not interruptible).
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None)
        if processes:
            for process in list(processes.values()):
                process.kill()
        executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> ParallelEvaluator:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def submit(self, candidate: dict[str, float]) -> Future[Outcome]:
        """Dispatch one candidate to the pool and return its future.

        The one dispatch method: it neither blocks nor records history
        (the caller owns completion handling and decides the record
        order).  The future resolves to ``(value, duration)`` — the worker
        times its own call, so the caller can attribute true per-point
        wall-clock even though completions arrive out of order.  In
        ``"serial"`` mode the candidate is evaluated inline and an
        already-completed future is returned.
        """
        if self._executor is None:
            self._executor = self._make_executor()
        if self._executor is None:  # serial mode
            future: Future[Outcome] = Future()
            try:
                if self.config.guarded:
                    value, duration, retries = _guarded_timed_call(
                        self.function, dict(candidate), self.config.eval_timeout,
                        self.config.retry_policy,
                    )
                    self._note_retries(retries)
                    future.set_result((value, duration))
                else:
                    future.set_result(_timed_call(self.function, dict(candidate)))
            except BaseException as exc:  # delivered through future.result()
                future.set_exception(exc)
            return future
        if not self.config.guarded:
            return self._executor.submit(_timed_call, self.function, dict(candidate))
        # The guarded worker call reports (value, duration, retries); the
        # contract of submit() is a (value, duration) future, so relay the
        # inner future into an outer one — retries are accounted here and
        # failures (EvaluationFailed) pass through unchanged.
        inner = self._executor.submit(
            _guarded_timed_call,
            self.function,
            dict(candidate),
            self.config.eval_timeout,
            self.config.retry_policy,
        )
        outer: Future[Outcome] = Future()

        def _relay(done: Future[GuardedOutcome]) -> None:
            if done.cancelled():
                outer.cancel()
                outer.set_running_or_notify_cancel()
                return
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            value, duration, retries = done.result()
            self._note_retries(retries)
            outer.set_result((value, duration))

        inner.add_done_callback(_relay)
        return outer

    def _note_retries(self, retries: int) -> None:
        if retries <= 0:
            return
        self.retries_total += retries
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None:
            reg.counter(
                "repro_eval_retries_total",
                EVAL_METRIC_HELP["repro_eval_retries_total"],
            ).inc(retries)


class BatchCalibrator(AsyncCalibrator):
    """Budget-bounded lock-step parallel calibration of *any* ask/tell algorithm.

    The pooled event loop of
    :class:`~repro.core.async_driver.AsyncCalibrator` with a barrier:
    once nothing is pending it asks the algorithm for up to
    ``batch_size`` candidates (population algorithms surface whole
    generations, which are drained ``batch_size`` at a time), launches
    them in ask order, waits for all of them and tells the results back
    in ask order — the paper's one-simulation-per-core protocol.  Claim,
    lease-wait, record, failure and checkpoint/resume handling are the
    loop's own; this class only fixes the refill policy.

    ``batch_size`` is the number of candidates asked per round (default
    ``workers``).  An evaluation cap trims the final batch so the run never
    overshoots: only the prefix the cap affords is launched and told, and
    the claim of the first candidate it cannot afford is cancelled.  The
    other parameters, ``config`` included, are those of
    :class:`~repro.core.async_driver.AsyncCalibrator`.
    """

    _driver = "batch"
    _barrier = True

    def __init__(
        self,
        space: ParameterSpace,
        objective_function: ObjectiveFunction,
        algorithm: str | CalibrationAlgorithm = "random",
        workers: int = 4,
        mode: str = "process",
        batch_size: int | None = None,
        budget: Budget | None = None,
        seed: int = 0,
        cache: bool | CacheBackend = True,
        algorithm_options: dict[str, object] | None = None,
        config: RunConfig | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("the batch size must be at least 1")
        super().__init__(
            space, objective_function, algorithm=algorithm, workers=workers, mode=mode,
            max_pending=batch_size, budget=budget, seed=seed, cache=cache,
            algorithm_options=algorithm_options, ordered_tells=True, config=config,
        )
        self.batch_size = self.max_pending
