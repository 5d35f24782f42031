"""Parallel objective evaluation.

In the paper's experimental protocol "each algorithm executes one
simulation on each core of a dedicated 2.5 GHz Intel Xeon Gold 6248
40-core CPU": candidate parameter sets are evaluated concurrently, one
simulator invocation per core.  This module provides that capability:

* :class:`ParallelEvaluator` — the evaluation transport: dispatches one
  parameter-value dictionary at a time to a pool of worker processes (or
  a thread pool, or inline) and hands back a future, which the caller's
  own thread settles through :meth:`~ParallelEvaluator.wait`; the pool
  lives until :meth:`~ParallelEvaluator.close`;
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
work).  The pool pickles it once and each worker unpickles a fresh copy
for every task, so no evaluation sees state an earlier one left behind.
Thread-based execution accepts any callable but only pays off when the
objective releases the GIL; the default ``"process"`` mode matches the
paper's protocol.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import pickle
import time
import traceback
from collections import deque
from collections.abc import Callable, Collection
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as wait_connections
from multiprocessing.process import BaseProcess
from typing import Any, cast

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
    clock at completion time.  Top-level (not a closure) so it pickles
    into a task by name.
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
    the worker (a process pool pickles the callable once and unpickles a
    fresh copy per task, so per-attempt state cannot live on the driver
    side), and the per-attempt ``SIGALRM`` timeout works precisely
    because this is the worker process's main thread.  Exhaustion raises
    :class:`~repro.core.faults.EvaluationFailed`, which pickles back
    through the reply.  Top-level so it pickles into a task by name.
    """
    started = time.perf_counter()
    value, retries = run_guarded(function, candidate, retry, timeout)
    return value, time.perf_counter() - started, retries


# --------------------------------------------------------------------- #
# the process pool
# --------------------------------------------------------------------- #
class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as its exception's cause."""

    def __str__(self) -> str:
        return str(self.args[0])


def _rebuild_error(error: BaseException, text: str) -> BaseException:
    error.__cause__ = _RemoteTraceback(text)
    return error


class _WorkerError:
    """An exception raised in a worker, wrapped so that it unpickles in
    the parent as itself, with the worker's traceback as its cause."""

    def __init__(self, error: BaseException) -> None:
        self.error = error
        self.text = "".join(traceback.format_exception(error))

    def __reduce__(self) -> tuple[Any, ...]:
        return _rebuild_error, (self.error, f'\n"""\n{self.text}"""')


def _worker(conn: Connection, objective: bytes) -> None:
    """A pool worker's main loop: receive ``(call, candidate, args)``,
    run ``call(objective, candidate, *args)`` on a freshly unpickled
    objective and reply ``(ok, value_or_exception)``.  It returns on a
    ``None`` task or when the parent's end of the pipe is gone."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        call, candidate, args = task
        try:
            reply = (True, call(pickle.loads(objective), candidate, *args))
        except Exception as error:  # delivered through the task's future
            reply = (False, _WorkerError(error))
        try:
            data = pickle.dumps(reply)
        except Exception as error:  # an unpicklable exception or value
            data = pickle.dumps((False, _WorkerError(error)))
        try:
            conn.send_bytes(data)
        except OSError:  # the parent is gone
            return


class _Worker:
    """One pool process and the parent's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn


class _PoolFuture(Future[Outcome]):
    """A process-pool future.  No helper thread delivers its result, so
    reading it settles the pool from the reading thread first."""

    def __init__(self, pool: ParallelEvaluator) -> None:
        super().__init__()
        self._pool = pool

    def result(self, timeout: float | None = None) -> Outcome:
        self._pool.wait((self,), timeout)
        return super().result(timeout=0)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._pool.wait((self,), timeout)
        return super().exception(timeout=0)


class ParallelEvaluator:
    """Evaluates candidate calibrations concurrently, one future each.

    ``mode`` is ``"process"``, ``"thread"`` or ``"serial"`` (inline).
    ``config`` supplies the per-attempt timeout and retry policy, which
    run inside the worker (see :func:`_guarded_timed_call`); a config
    that is not :attr:`~repro.core.async_driver.RunConfig.guarded` keeps
    the plain dispatch, so an objective exception reaches the driver as
    itself instead of as :class:`~repro.core.faults.EvaluationFailed`.

    In ``"process"`` mode the pool is this object, run by the thread that
    calls it: up to ``workers`` processes are started from the default
    :mod:`multiprocessing` context as tasks arrive, each with one duplex
    pipe; :meth:`submit` writes a task to an idle worker's pipe (or
    queues it), and :meth:`wait` reads the replies, settles their
    futures and hands queued tasks to the freed workers.  The objective
    is pickled once per evaluator and passed to each worker as it
    starts.  There is no helper thread, so the object belongs to one
    thread: settle its futures through :meth:`wait` (or their own
    ``result()``), not :func:`concurrent.futures.wait`.  A worker that
    dies fails its task's future with
    :class:`~concurrent.futures.process.BrokenProcessPool`.
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
        #: the retries of each dispatch that burned any (appended from the
        #: pool's threads in thread mode: ``list.append`` is atomic)
        self._retries: list[int] = []
        #: thread mode's executor, created by the first :meth:`submit` and
        #: kept until :meth:`close` (pool start-up would otherwise
        #: dominate a driver that dispatches many single candidates)
        self._executor: ThreadPoolExecutor | None = None
        #: process mode: the pickled objective, the idle workers, the busy
        #: ones with their task's future (by their pipe) and the tasks
        #: waiting for a worker
        self._objective: bytes | None = None
        self._idle: list[_Worker] = []
        self._busy: dict[Connection, tuple[_Worker, Future[Outcome]]] = {}
        self._queue: deque[tuple[Future[Outcome], tuple[Any, ...]]] = deque()
        #: the driver's record of the run (the evaluator only carries it)
        self.history = CalibrationHistory()
        self._start_time = time.perf_counter()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    @property
    def retries_total(self) -> int:
        """Retries burned across all dispatches (transient failures that
        were re-attempted in a worker and eventually succeeded or not)."""
        return sum(self._retries)

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
        """Shut the pool down (no-op before the first dispatch).

        Idle worker processes are told to exit; busy ones are killed,
        since nobody can receive their results any more, and their
        futures fail with ``BrokenProcessPool``; queued tasks are
        cancelled.  So a run that aborts with evaluations in flight does
        not wait for them.  Every worker is joined before this returns.
        A thread pool is shut down after its running calls return.
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True, cancel_futures=True)
        for future, _ in self._queue:
            future.cancel()
        self._queue.clear()
        for worker in self._idle:
            with contextlib.suppress(OSError):  # it died while idle
                worker.conn.send(None)
        workers = self._idle
        for worker, future in self._busy.values():
            worker.process.kill()
            future.set_exception(
                BrokenProcessPool("the pool was closed with this evaluation in flight")
            )
            workers.append(worker)
        for worker in workers:
            worker.process.join()
            worker.conn.close()
        self._idle = []
        self._busy.clear()

    def replace_pool(self) -> None:
        """Hard-replace a wedged pool: kill its workers, so the next
        dispatch starts fresh ones.

        This is the driver-side backstop for evaluations the in-worker
        ``SIGALRM`` timeout could not interrupt (C extensions holding the
        GIL, platforms without alarms).  The futures of its running
        evaluations fail with ``BrokenProcessPool`` and queued ones are
        cancelled; the caller decides which of them to resubmit.  Only
        worker processes can be killed — in thread mode this just
        detaches the executor (threads are not interruptible).
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=False, cancel_futures=True)
        self.close()

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
        config = self.config
        if self.mode == "process":
            if config.guarded:
                task: tuple[Any, ...] = (
                    _guarded_timed_call, dict(candidate),
                    (config.eval_timeout, config.retry_policy),
                )
            else:
                task = (_timed_call, dict(candidate), ())
            future: Future[Outcome] = _PoolFuture(self)
            if self._idle or len(self._busy) < self.workers:
                self._send(future, task)
            else:
                self._queue.append((future, task))
            return future
        if self.mode == "thread":
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
            return self._executor.submit(self._evaluate, dict(candidate))
        future = Future()
        try:
            future.set_result(self._evaluate(dict(candidate)))
        except BaseException as exc:  # delivered through future.result()
            future.set_exception(exc)
        return future

    def wait(
        self, futures: Collection[Future[Outcome]], timeout: float | None = None
    ) -> set[Future[Outcome]]:
        """Block until one of ``futures`` is done or ``timeout`` seconds
        have passed, and return those that are done.

        In ``"process"`` mode this is where the pool runs: it reads every
        reply that is ready, settles its future (counting the retries a
        guarded call burned) and sends queued tasks to the freed workers.
        Other modes wait on their futures as
        :func:`concurrent.futures.wait` does.
        """
        if self.mode != "process":
            return wait_futures(futures, timeout, FIRST_COMPLETED).done
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            done = {future for future in futures if future.done()}
            remaining = None if deadline is None else deadline - time.monotonic()
            if done or not self._busy or (remaining is not None and remaining <= 0):
                return done
            for conn in wait_connections(list(self._busy), remaining):
                self._receive(cast(Connection, conn))

    def _evaluate(self, candidate: dict[str, float]) -> Outcome:
        """Evaluate one candidate in this process: inline in ``"serial"``
        mode, on a pool thread in ``"thread"`` mode."""
        config = self.config
        if not config.guarded:
            return _timed_call(self.function, candidate)
        value, duration, retries = _guarded_timed_call(
            self.function, candidate, config.eval_timeout, config.retry_policy
        )
        self._note_retries(retries)
        return value, duration

    def _send(self, future: Future[Outcome], task: tuple[Any, ...]) -> None:
        """Write a task to an idle worker's pipe, or to a new worker's."""
        if not future.set_running_or_notify_cancel():
            return
        if self._idle:
            worker = self._idle.pop()
        else:
            try:
                worker = self._start_worker()
            except Exception as error:  # e.g. an objective that does not pickle
                future.set_exception(error)
                return
        try:
            worker.conn.send(task)
        except OSError:  # the worker died while idle
            self._bury(worker, future)
            return
        self._busy[worker.conn] = (worker, future)

    def _start_worker(self) -> _Worker:
        if self._objective is None:
            self._objective = pickle.dumps(self.function)
        conn, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker, args=(child, self._objective), daemon=True
        )
        process.start()
        child.close()
        return _Worker(process, conn)

    def _receive(self, conn: Connection) -> None:
        """Read one busy worker's reply and settle its future, then hand
        queued tasks to the freed worker (or to a new one, if it died)."""
        worker, future = self._busy.pop(conn)
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            self._bury(worker, future)
        else:
            self._idle.append(worker)
            self._settle(future, data)
        while self._queue and (self._idle or len(self._busy) < self.workers):
            self._send(*self._queue.popleft())

    def _settle(self, future: Future[Outcome], data: bytes) -> None:
        """Settle a future from its worker's reply, ``(ok, value_or_exception)``."""
        try:
            ok, outcome = pickle.loads(data)
        except Exception as error:  # an exception the parent cannot rebuild
            future.set_exception(error)
            return
        if not ok:
            future.set_exception(outcome)
        elif self.config.guarded:
            value, duration, retries = outcome
            self._note_retries(retries)
            future.set_result((value, duration))
        else:
            future.set_result(outcome)

    def _bury(self, worker: _Worker, future: Future[Outcome]) -> None:
        """Join a worker that died and fail the future of its task."""
        worker.process.join()
        worker.conn.close()
        future.set_exception(BrokenProcessPool(
            f"a pool worker (pid {worker.process.pid}) exited with code "
            f"{worker.process.exitcode} while evaluating a candidate"
        ))

    def _note_retries(self, retries: int) -> None:
        if retries <= 0:
            return
        self._retries.append(retries)
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
