"""The evaluation loop: asynchronous, out-of-order calibration driving.

This module holds the one event loop every driver runs — claim →
dispatch → settle → tell → record, with lease re-claims and resume by
replaying the run's tell log.  Every outcome of a candidate (evaluated,
hit, deferred hit, fresh failure, quarantine skip, and a rider of any
of them) is settled by one method, :meth:`_Run._settle`, whose
docstring is the rule table of what each outcome records, counts and
costs; the replay counts through the same :meth:`_Run._count`.  Each
:meth:`AsyncCalibrator.run` builds a :class:`_Run` holding every field
the run changes, so a calibrator is only the spec of its runs.
The three drivers differ only in a refill policy fixed per class:
:class:`~repro.core.calibrator.Calibrator` keeps one candidate in flight
and evaluates it inline (the paper's blocking loop);
:class:`~repro.core.parallel.BatchCalibrator` (``_barrier = True``) runs
lock-step generations — every ``k``-wide batch waits for its slowest
evaluation before the next batch is asked — so with heavy-tailed
simulator latencies (the paper's own speed/accuracy measurements show
minutes-scale, highly variable invocation times) most workers sit idle
most of the time.  :class:`AsyncCalibrator` removes that barrier:

* it **asks speculatively** whenever a worker frees up, keeping up to
  ``max_pending`` candidates in flight at all times;
* it **tells out of order**, feeding each result back the moment its
  future completes instead of waiting for batch-mates;
* cache consultation uses the **non-blocking claim/lease protocol** of
  :class:`~repro.core.evaluation.CacheBackend`, so a point being computed
  by a concurrent driver is simply *deferred* (re-claimed between
  completions) while the pool keeps churning through fresh work.

Algorithms participate at one of two levels:

* **async-native** (``supports_async_tell = True``: random, Sobol, Latin
  hypercube, TPE) consume out-of-order results directly — no barrier
  exists anywhere, the pool never drains;
* **ordered** algorithms (populations, line searches) are told in ask
  order: the run parks each completion until every earlier candidate
  has completed too, then releases the contiguous prefix to ``tell``.
  Within a generation the pool stays saturated; the only barrier left
  is the algorithm's own generation boundary.  Because ask order is
  restored exactly, a seeded asynchronous run visits byte-for-byte the
  serial driver's trajectory, whatever order the futures complete in.

All algorithm interaction (ask/tell) happens on the driver thread — the
pool only ever runs the objective function — so algorithms need no
locking.  Process-based execution requires a picklable objective, exactly
as for :class:`~repro.core.parallel.BatchCalibrator`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections.abc import Callable, Collection, Mapping, Sequence
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.algorithms import CalibrationAlgorithm, get_algorithm
from repro.core.budget import Budget, EvaluationBudget, remaining_evaluations
from repro.core.evaluation import (
    CACHE_DECIMALS,
    CacheBackend,
    CacheKey,
    Claim,
    DictCache,
    unit_cache_key,
)
from repro.core.faults import (
    EVAL_METRIC_HELP,
    EvaluationFailed,
    EvaluationFailure,
    FailurePolicy,
    RetryPolicy,
)
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict
from repro.telemetry.metrics import MetricsRegistry, registry as _metrics_registry
from repro.telemetry.tracing import Span, current_tracer

if TYPE_CHECKING:
    # repro.core.parallel subclasses AsyncCalibrator, so it imports this
    # module; the evaluator itself is imported where it is constructed.
    from repro.core.parallel import ObjectiveFunction, Outcome, ParallelEvaluator

_REGISTRY = _metrics_registry()

__all__ = ["AsyncCalibrator", "RunConfig"]

#: failure attached to a point quarantined again while a tell log is
#: replayed, when its entry carries no diagnosis (a log written before
#: failed entries named their ``failure_kind`` and ``error``)
_REPLAYED_FAILURE = EvaluationFailure(error="EvaluationFailed: replayed from the tell log")

#: what a candidate settles as: the rows of ``_Run._settle``'s
#: rule table, and the ``outcome`` attribute of its ``evaluation`` span
_EVALUATED, _HIT, _DEFERRED, _FAILED, _SKIPPED = (
    "evaluated", "hit", "deferred", "failed", "skipped"
)

#: the claim of a run without a cache: every candidate is dispatched
_CLAIMED = Claim(Claim.CLAIMED)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How one run settles failures and charges cache hits.

    The same value configures every driver (serial, batch, async, fleet,
    whose workers evaluate under it) and the evaluator pool, so two drivers
    given one ``RunConfig`` apply one evaluation contract.  The default
    leaves every code path byte-identical to a fault-tolerance-unaware run.

    Attributes
    ----------
    retry_policy:
        Bounded, deterministic retries of transient failures; they run
        inside the worker, so a recovered point looks like a clean one.
    failure_policy:
        What a point that still fails becomes: a penalty tell or a raise,
        with the point quarantined through the cache backend and an
        optional circuit breaker.  ``None`` lets an objective exception
        propagate as itself.
    eval_timeout:
        Per-attempt wall-clock bound in seconds (``None``: unbounded).
        In a process pool the pool's hard deadline backs it up.
    replay_cache_hits:
        Record cache hits in the history (zero-duration ``cached=True``
        records) and charge *first-seen* hits — points served from work
        that predates the run — one budget unit each, while in-run
        revisits stay free.  A warm evaluation-budget run over a shared
        store then stops where the cold run stopped and replays its
        trajectory; its tell log carries each hit's charge.
    """

    retry_policy: RetryPolicy | None = None
    failure_policy: FailurePolicy | None = None
    eval_timeout: float | None = None
    replay_cache_hits: bool = False

    def __post_init__(self) -> None:
        if self.eval_timeout is not None and not self.eval_timeout > 0:
            raise ValueError(f"eval_timeout must be positive, not {self.eval_timeout!r}")

    @property
    def guarded(self) -> bool:
        """Whether dispatch runs the fault-tolerant worker wrapper, which
        turns an exhausted point into a structured
        :class:`~repro.core.faults.EvaluationFailed` outcome."""
        return (
            self.retry_policy is not None
            or self.failure_policy is not None
            or self.eval_timeout is not None
        )

    def hard_deadline(self) -> float | None:
        """Seconds a process-pool worker may hold one task, counted from
        when the worker receives it, before the pool kills that worker:
        every in-worker attempt and backoff, plus a margin of at least
        5 s, so it only fires for hangs the in-worker alarm could not
        interrupt.  ``None`` without an ``eval_timeout``."""
        if self.eval_timeout is None:
            return None
        retry = self.retry_policy
        attempts = retry.max_attempts if retry is not None else 1
        backoff = retry.max_total_backoff() if retry is not None else 0.0
        per_point = self.eval_timeout * attempts + backoff
        return per_point + max(5.0, per_point)

    def to_dict(self) -> dict[str, Any]:
        """The JSON form (job specifications, fleet tasks)."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> RunConfig:
        """The inverse of :meth:`to_dict`; a missing key keeps its default,
        an unknown one raises ``ValueError``."""
        retry, failure = data.get("retry_policy"), data.get("failure_policy")
        try:
            return RunConfig(**{
                **data,
                "retry_policy": None if retry is None else RetryPolicy(**retry),
                "failure_policy": None if failure is None else FailurePolicy(**failure),
            })
        except TypeError as error:
            raise ValueError(f"not a run configuration: {error}") from None


@dataclasses.dataclass(slots=True)
class _InFlight:
    """One candidate between ask and tell."""

    seq: int
    candidate: np.ndarray  # as asked (told back verbatim)
    mapping: dict[str, float]
    unit: np.ndarray  # round-tripped unit point (cache key and record)
    key: CacheKey
    started_at: float
    span: Span | None  # open "evaluation" span (tracing enabled only)
    charged: int  # budget units paid at launch
    future: Future[Outcome] | None = None  # None: deferred (leased elsewhere)
    riders: tuple[tuple[int, np.ndarray], ...] = ()  # in-run revisits, one unit reserved each


class AsyncCalibrator:
    """Budget-bounded asynchronous calibration of *any* ask/tell algorithm.

    Keeps a :class:`~repro.core.parallel.ParallelEvaluator` pool saturated
    by asking speculatively whenever capacity frees up and telling results
    out of order as futures complete (see the module docstring for the
    native/ordered split).  This class is the spec of a calibration:
    each :meth:`run` drives the event loop of a fresh :class:`_Run`.
    :class:`~repro.core.parallel.BatchCalibrator` subclasses it only to
    fix the lock-step refill policy (``_barrier``), and
    :class:`~repro.core.calibrator.Calibrator` to fix one inline
    candidate in flight.

    Parameters
    ----------
    space, objective_function:
        The parameter space, and the callable mapping a parameter-value
        dictionary to the accuracy value to minimise (the case study uses
        the MRE in percent); process-based execution needs a picklable
        objective.
    algorithm:
        Registry name, or a configured instance such as
        ``get_algorithm("cmaes", population_size=8)``; must implement the
        native ask/tell hooks.
    workers, mode:
        Concurrency settings, see :class:`~repro.core.parallel.ParallelEvaluator`.
    max_pending:
        Upper bound on in-flight candidates (dispatched futures plus
        deferred leases); defaults to ``workers``.  Raising it above
        ``workers`` queues extra work behind the busy workers.  In
        ``"thread"`` mode the executor's queue hands it to a completing
        worker at once.  The process pool keeps it in
        ``ParallelEvaluator._queue`` instead, and a freed worker waits
        until the driver's thread reads its reply in
        :meth:`~repro.core.parallel.ParallelEvaluator.wait` and ``_feed``
        sends it the next task.  Lowering it to 1 gives the serial
        driver's trajectory.
    budget:
        Evaluation- or time-based budget.  Evaluation
        budgets are charged at *dispatch* time, so the run performs
        exactly its cap even though results arrive out of order.
    seed:
        Seed for the algorithm's random number generator.
    cache:
        ``True`` (memoise in an in-memory
        :class:`~repro.core.evaluation.DictCache`, fresh for each
        :meth:`run`), ``False`` (always
        dispatch), or a shared :class:`~repro.core.evaluation.CacheBackend`
        such as the service's store-backed cache.  A candidate the cache
        answers is not dispatched and, unless ``config`` replays hits,
        costs no budget (the paper's "cache hits are free").  Consultation
        uses the backend's non-blocking
        :meth:`~repro.core.evaluation.CacheBackend.claim`: a candidate
        another driver is computing is deferred — re-claimed between
        completions, taken over once the lease is released or expires —
        and charged one budget unit like a dispatch, never recomputed.
    config:
        The run's failure and cache-charging rules (:class:`RunConfig`;
        default ``RunConfig()``).
    ordered_tells:
        Force tells in ask order (``True``), force native out-of-order
        tells (``False`` — rejected if the algorithm cannot), or pick
        automatically from ``supports_async_tell`` (``None``, the
        default).
    evaluator:
        Inject the evaluation transport instead of constructing a local
        :class:`~repro.core.parallel.ParallelEvaluator` pool (in which
        case ``workers``/``mode`` are ignored).  Anything implementing
        the same surface works — ``submit(mapping) -> Future[(value,
        duration)]``, ``wait(futures, timeout) -> done`` and ``close()``;
        the driver keeps the history and the clock itself — notably the
        distributed fleet's task-board evaluator
        (:class:`repro.service.fleet.FleetEvaluator`), which hands
        candidates to pull-based worker processes instead of a local
        pool.  The caller owns an injected evaluator and closes it; the
        calibrator closes only a pool it built, at the end of each run.

    After a run returns or raises, ``history``, ``cache_hits``,
    ``deferred_hits``, ``failures`` and ``quarantine_skips`` report it.
    """

    #: label on this driver's spans and counters
    _driver = "async"
    #: refill policy: ``False`` asks one candidate whenever capacity frees
    #: up; ``True`` waits until nothing is pending, then asks
    #: ``max_pending`` candidates at once (lock-step batches)
    _barrier = False

    def __init__(
        self,
        space: ParameterSpace,
        objective_function: ObjectiveFunction,
        algorithm: str | CalibrationAlgorithm = "random",
        workers: int = 4,
        mode: str = "process",
        max_pending: int | None = None,
        budget: Budget | None = None,
        seed: int = 0,
        cache: bool | CacheBackend = True,
        ordered_tells: bool | None = None,
        evaluator: ParallelEvaluator | None = None,
        config: RunConfig | None = None,
    ) -> None:
        self.space = space
        self.algorithm = get_algorithm(algorithm)
        if ordered_tells is None:
            self.ordered_tells = not self.algorithm.supports_async_tell
        else:
            self.ordered_tells = bool(ordered_tells)
            if not self.ordered_tells and not self.algorithm.supports_async_tell:
                raise ValueError(
                    f"algorithm {self.algorithm.name!r} does not support out-of-order "
                    "tells; leave ordered_tells unset (or True) to use ask-order tells"
                )
        self.config = config if config is not None else RunConfig()
        #: whether the evaluator is this calibrator's to close
        self._owns_evaluator = evaluator is None
        if evaluator is None:
            from repro.core.parallel import ParallelEvaluator

            evaluator = ParallelEvaluator(
                objective_function, workers=workers, mode=mode, config=self.config
            )
        self.evaluator = evaluator
        self.max_pending = int(workers) if max_pending is None else int(max_pending)
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.budget = budget if budget is not None else EvaluationBudget(100)
        self.seed = seed
        self._cache_option = cache

    def run(
        self,
        resume: Sequence[dict[str, Any]] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[list[dict[str, Any]]], None] | None = None,
    ) -> CalibrationResult:
        """Ask speculatively, evaluate concurrently, tell out of order.

        The run ends when the budget is exhausted or the algorithm says it
        is done; in-flight work is always drained (and told), never
        discarded, so evaluation budgets are met exactly.

        Parameters
        ----------
        resume:
            The tell log of an interrupted run of this configuration (the
            entries ``on_checkpoint`` received, in order).  The run
            replays it into a fresh algorithm and rng seeded alike, then
            launches the candidates asked but never told under their
            original ``seq`` and carries on.  Budget, log, history and
            trajectory come back exact; two counters only approximately, as
            the log does not tell a peer's work from this run's.  Under
            ``replay_cache_hits`` a replayed deferred hit counts in
            ``cache_hits`` but not ``deferred_hits``; and a replayed skip
            of a point a peer quarantined counts in ``failures``, not
            ``quarantine_skips``.
        checkpoint_every:
            Hand the new tell-log entries to ``on_checkpoint`` whenever at
            least this many have accumulated (0 disables), and the rest
            when the run ends.  Every run keeps its tell log, ``result.log``:
            one :class:`~repro.core.history.Evaluation` per tell — cache
            hits and riders included — with its ``seq`` (the ask index),
            ``asked`` (candidates asked before this tell), ``charged``
            (budget units it cost) and a failure's ``failure_kind`` and
            ``error``, which a replay quarantines the point with;
            ``result.history`` is its recorded subset.  Records are handed
            over as :func:`~repro.core.serialization.evaluation_to_dict`
            entries, only between completions, never while ordered tells
            are mid-release.
        on_checkpoint:
            Callback receiving each list of new entries (e.g. to append
            them to a file).
        """
        run = _Run(self, checkpoint_every, on_checkpoint)
        try:
            run.drive(resume)
        finally:
            # What the latest run reports, also after it raised.
            (self.history, self.cache_hits, self.deferred_hits, self.failures,
             self.quarantine_skips, self._budget_units) = (
                run.history, run.cache_hits, run.deferred_hits, run.failures,
                run.quarantine_skips, run._budget_units)
            if self._owns_evaluator:
                self.evaluator.close()
        return run.result()


class _Run:
    """One run of an :class:`AsyncCalibrator`: every field the run changes
    and the event loop that changes them.  :meth:`AsyncCalibrator.run`
    builds one, drives it and drops it; the calibrator keeps its spec."""

    #: deferred-lease poll cadence while futures are also pending / not
    _POLL_WITH_FUTURES = 0.02
    _POLL_DEFERRED_ONLY = 0.005

    def __init__(
        self,
        spec: AsyncCalibrator,
        checkpoint_every: int,
        on_checkpoint: Callable[[list[dict[str, Any]]], None] | None,
    ) -> None:
        self.spec = spec
        self.space, self.algorithm, self.config = spec.space, spec.algorithm, spec.config
        self.evaluator, self.max_pending, self._driver = (
            spec.evaluator, spec.max_pending, spec._driver)
        #: candidates asked at once: ``max_pending`` behind the barrier, else 1
        self._width = spec.max_pending if spec._barrier else 1
        #: an inline evaluator runs the objective inside ``submit``, so the
        #: run can time it as a ``simulate`` span
        self._inline = getattr(self.evaluator, "mode", None) == "serial"
        cache = spec._cache_option
        self._cache = cache if isinstance(cache, CacheBackend) else DictCache() if cache else None
        self.cache_hits = 0
        self.deferred_hits = 0  # points resolved from a concurrent driver's lease
        self.failures = 0
        self.quarantine_skips = 0
        policy = self.config.failure_policy
        self._breaker = policy.breaker() if policy is not None else None
        self._seq = 0  # candidates asked so far: the next ask index
        self._budget_units = 0
        self._seen: set[CacheKey] = set()
        self._pending: list[_InFlight] = []
        self._inflight_keys: dict[CacheKey, _InFlight] = {}
        self.algorithm.setup(self.space)
        #: ``(seq, candidate)`` asked but not launched, in ask order: a
        #: resumed run's untold ones, or a batch's tail the budget could
        #: not yet afford
        self._unlaunched: list[tuple[int, np.ndarray]] = []
        self.history = CalibrationHistory()
        self._log: list[Evaluation] = []  # one record per tell; see _keep
        self._budget = spec.budget
        #: each settled seq's candidate and record fields, parked until it
        #: is released (see ``_resolve``), and the next seq ordered tells
        #: release
        self._ordered = spec.ordered_tells
        self._parked: dict[int, tuple[Any, ...]] = {}
        self._next_release = 0
        self._checkpoint_every = int(checkpoint_every)
        self._on_checkpoint = on_checkpoint if self._checkpoint_every > 0 else None
        self._tracer = current_tracer()
        self._reg: MetricsRegistry | None = None  # a replay moves no metric

    def drive(self, resume: Sequence[dict[str, Any]] | None) -> None:
        """Replay ``resume`` (if any), then run the loop until the budget
        is spent or the algorithm is done (see :meth:`AsyncCalibrator.run`)."""
        rng = np.random.default_rng(self.spec.seed)
        if resume is not None:
            self._unlaunched = self._restore(resume, rng)
            self._next_release = len(resume)  # the replay told this prefix
        self._handed = len(self._log)  # records the sink has (a resume's are its own)
        #: the run's clock: a resumed run continues from the wall-clock
        #: its tell log had already spent, so timestamps stay monotone
        elapsed = max((record.finished_at for record in self._log), default=0.0)
        self._budget.start(elapsed)
        self._clock_start = time.perf_counter() - elapsed
        # Instruments are looked up once per run, only when telemetry is
        # on: the disabled hot path costs one attribute check per use.
        self._reg = _REGISTRY if _REGISTRY.enabled else None
        if self._reg is not None:
            self._m_inflight = self._reg.gauge(
                "repro_async_in_flight",
                "Candidates currently dispatched or deferred.")
            self._m_dispatched = self._reg.counter(
                "repro_driver_dispatches_total",
                "Candidates dispatched to the worker pool.", driver=self._driver)
            self._m_hits = self._reg.counter(
                "repro_driver_cache_hits_total",
                "Candidates answered from the cache instead of dispatched.",
                driver=self._driver)
            self._m_deferred = self._reg.counter(
                "repro_async_deferred_total",
                "Candidates deferred behind a concurrent driver's lease.")
            self._m_riders = self._reg.counter(
                "repro_async_riders_total",
                "In-run revisits served by riding on an in-flight point.")
            self._m_obj_hits = self._reg.counter(
                "repro_objective_cache_hits_total",
                "Evaluations answered from the cache.")
            self._m_evals = self._reg.counter(
                "repro_objective_evaluations_total",
                "Actual simulator invocations (cache misses).")
            self._m_eval_seconds = self._reg.histogram(
                "repro_objective_evaluation_seconds",
                "Wall-clock per simulator invocation.")

        self._root = self._tracer.begin(
            "calibration", driver=self._driver, algorithm=self.algorithm.name, seed=self.spec.seed
        )
        try:
            self._drive(rng)
            self._hand_over(1)
        except BaseException:
            # Whatever aborted the run — an objective exception out of a
            # worker, a failure the policy raises, an open circuit, an
            # interrupt — release every leadership still announced:
            # concurrent drivers must not wait on points that will never
            # be published.
            self._abandon_claims()
            raise
        finally:
            self._tracer.end(self._root)
            if self._reg is not None:
                self._m_inflight.set(0)

    def result(self) -> CalibrationResult:
        """The finished run's result."""
        history = self.history
        best = history.best
        if best is None:
            raise RuntimeError("the budget was exhausted before a single evaluation completed")
        return CalibrationResult(
            algorithm=self.algorithm.name,
            best_values=dict(best.values),
            best_value=best.value,
            evaluations=sum(1 for e in history if not e.cached),
            elapsed=self._elapsed(),
            history=history,
            log=self._log,
            budget_description=self.spec.budget.describe(),
            seed=self.spec.seed,
            telemetry=_REGISTRY.snapshot() if _REGISTRY.enabled else None,
        )

    # ------------------------------------------------------------------ #
    # resume by replay
    # ------------------------------------------------------------------ #
    def _restore(
        self, log: Sequence[dict[str, Any]], rng: np.random.Generator
    ) -> list[tuple[int, np.ndarray]]:
        """Replay a tell log into the freshly set-up algorithm.

        Before each entry's tell the algorithm is asked, in this driver's
        own width, until it has handed out ``asked`` candidates — the
        interrupted run's exact ask/tell interleaving — then candidate
        ``seq`` must round-trip to the logged unit point and is told the
        logged value.  Each entry's record is classified as the outcome it
        settled as, counted through :meth:`_count` like a live one (a
        failure with its logged diagnosis) and kept (:meth:`_keep`), and
        the budget is Σ ``charged``.  Returns the candidates asked but
        never told, in ask order; raises ``ValueError`` at the first
        ``seq`` this run would not have told (another algorithm, options
        or seed, or a log told out of ask order resumed with ordered
        tells).
        """
        width = self._width
        asked: dict[int, np.ndarray] = {}
        replay = self.config.replay_cache_hits
        policy = self.config.failure_policy
        quarantine = policy is not None and policy.quarantine
        quarantined: set[CacheKey] = set()
        for told, entry in enumerate(log):
            record = evaluation_from_dict(entry)
            seq = record.seq
            while self._seq < record.asked:
                batch = self.algorithm.ask(rng, width)
                if not batch:
                    break
                for candidate in batch:
                    asked[self._seq] = candidate
                    self._seq += 1
            candidate = asked.pop(seq, None)
            unit = (
                None if candidate is None
                else self.space.to_unit_array(self.space.from_unit_array(candidate))
            )
            if (
                unit is None
                or self._seq != record.asked
                or unit.tolist() != list(record.unit)
                or (self._ordered and seq != told)  # ordered tells are in ask order
            ):
                raise ValueError(
                    f"the tell log diverges from this run at seq {seq}: "
                    f"{self.algorithm.name!r} with seed {self.spec.seed} would not "
                    f"tell {list(record.unit)} there"
                )
            self.algorithm.tell([candidate], [record.value])
            key = unit_cache_key(unit, CACHE_DECIMALS)
            if record.failed:
                # A revisit of a point this run quarantined was a skip (so
                # was a failure's rider, ``cached``, in logs written before
                # riders of failures were charged); anything else failed
                # afresh.
                outcome = _SKIPPED if record.cached or key in quarantined else _FAILED
                if outcome == _FAILED and quarantine:
                    quarantined.add(key)
            elif record.cached:
                # Charged hits are replayed first-seen hits or deferred ones.
                deferred = record.charged and not (replay and key not in self._seen)
                outcome = _DEFERRED if deferred else _HIT
            else:
                outcome = _EVALUATED
                quarantined.discard(key)
            failure = (
                EvaluationFailure(error=record.error, kind=record.failure_kind)
                if record.error is not None else _REPLAYED_FAILURE
            )
            self._count(outcome, key, record.values, record.value, failure, replayed=True)
            self._budget_units += record.charged
            self._keep(record)
        return list(asked.items())

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _drive(self, rng: np.random.Generator) -> None:
        # Until nothing is launched and nothing is in flight; candidates
        # the budget never afforded are then dropped, never told.
        while self._refill(rng) or self._pending:
            if self._pending:
                self._await_completions()
                self._hand_over(self._checkpoint_every)

    def _hand_over(self, at_least: int) -> None:
        """Hand the tell log's new records to ``on_checkpoint``, as entries,
        once at least ``at_least`` have accumulated.

        Called only once a round of completions is fully told: with an
        inline evaluator nothing computed is then left untold, so a run
        killed after the hand-over and resumed from the log repeats no
        simulator call.
        """
        if self._on_checkpoint is not None and len(self._log) - self._handed >= at_least:
            records, self._handed = self._log[self._handed:], len(self._log)
            self._on_checkpoint([evaluation_to_dict(record) for record in records])

    def _refill(self, rng: np.random.Generator) -> int:
        """Launch the candidates asked but not yet launched, then ask and
        launch more until capacity or budget runs out.

        Without the barrier one candidate is asked whenever fewer than
        ``max_pending`` are in flight; with it nothing is asked until the
        pool has drained, then ``max_pending`` candidates are asked at
        once and launched in ask order.  A candidate the budget cannot
        afford waits, with those asked after it, until a rider's refund
        lets it launch.  Returns the number of candidates launched (cache
        hits resolve instantly and never enter ``pending``, so progress
        is reported even when nothing was dispatched).
        """
        launched = 0
        unlaunched = self._unlaunched
        width = self._width
        while True:
            while unlaunched and self._launch(*unlaunched[0]):
                del unlaunched[0]
                launched += 1
            if (
                unlaunched
                or len(self._pending) + width > self.max_pending
                or self.algorithm.done()
                or self._budget.exhausted(self._budget_units)
            ):
                return launched
            candidates = self.algorithm.ask(rng, width)
            if not candidates:
                return launched  # ordered algorithm awaiting tells (or done)
            unlaunched.extend(enumerate(candidates, self._seq))
            self._seq += len(candidates)

    def _launch(self, seq: int, candidate: np.ndarray) -> bool:
        """Claim candidate ``seq`` and settle, defer or dispatch it.

        Returns ``False``, with nothing claimed or recorded, when the
        evaluation cap is spent: the budget check the serial driver makes
        before each ask, made here for each candidate of a batch too.
        A candidate with a NaN coordinate maps to no point: ``ValueError``.
        """
        if remaining_evaluations(self._budget, self._budget_units) == 0:
            return False
        if any(map(math.isnan, candidate.tolist())):
            axis = int(np.isnan(candidate).argmax())
            raise ValueError(f"{self.algorithm.name!r} asked a candidate whose coordinate "
                             f"{axis} ({self.space.names[axis]!r}) is NaN: {candidate.tolist()}")
        # No clip_unit first: from_unit already clamps every coordinate to
        # [0, 1], and clip-then-clamp equals clamp (±inf and -0.0 too).
        mapping = self.space.from_unit_array(candidate)
        # Round-tripped unit (the key and the history record), so that
        # non-injective parameters (integers) collapse onto one entry.
        unit = self.space.to_unit_array(mapping)
        key = unit_cache_key(unit, CACHE_DECIMALS)

        # An identical point already in flight *within this run*: ride on
        # it instead of claiming or dispatching again, reserving the unit
        # a revisit of a failure costs (``_settle`` refunds it otherwise).
        if self._cache is not None and key in self._inflight_keys:
            self._inflight_keys[key].riders += ((seq, candidate),)
            self._budget_units += 1
            if self._reg is not None:
                self._m_riders.inc()
            return True

        claim = self._cache.claim(key, mapping) if self._cache is not None else _CLAIMED
        # A dispatch costs 1, so does a leased or quarantined point; a hit
        # costs 1 only when it is first-seen and replayed, so a warm run
        # stops at the cold run's total.
        replayed = self.config.replay_cache_hits and key not in self._seen
        charge = 1 if claim.status != Claim.HIT or replayed else 0
        self._budget_units += charge
        entry = _InFlight(
            seq, candidate, mapping, unit, key, self._elapsed(),
            self._tracer.begin("evaluation", parent=self._root, driver=self._driver, seq=seq),
            charge,
        )
        if claim.status == Claim.HIT:
            self._settle(_HIT, entry, claim.value)
            return True
        if (
            claim.status == Claim.QUARANTINED
            and claim.failure is not None
            and self.config.failure_policy is not None
        ):
            # Known poison point: settled from the recorded failure, no
            # dispatch and no lease wait.  (Without a failure policy the
            # claim falls through to a dispatch — the run re-attempts the
            # point, pre-quarantine behavior.)
            self._settle(_SKIPPED, entry, None, 0.0, claim.failure)
            return True

        if claim.status == Claim.LEASED:
            if self._reg is not None:
                self._m_deferred.inc()
        else:
            self._dispatch(entry)
            if self._reg is not None:
                self._m_dispatched.inc()
        self._pending.append(entry)
        if self._reg is not None:
            self._m_inflight.set(len(self._pending))
        if self._cache is not None:
            self._inflight_keys[key] = entry
        return True

    def _dispatch(self, entry: _InFlight) -> None:
        """Submit one entry to the evaluator; an inline evaluator runs the
        objective right here, inside a ``simulate`` span."""
        span = self._tracer.begin("simulate", parent=entry.span) if self._inline else None
        entry.future = self.evaluator.submit(entry.mapping)
        self._tracer.end(span)

    def _await_completions(self) -> None:
        """Block until at least one pending entry can be resolved."""
        futures = {e.future: e for e in self._pending if e.future is not None}
        deferred = [e for e in self._pending if e.future is None]
        if futures:
            # Futures already done (always so for an inline evaluator) are
            # taken without a wait() call.
            done: Collection[Future[Outcome]] = [f for f in futures if f.done()]
            if not done:
                timeout = self._POLL_WITH_FUTURES if deferred else None
                done = self.evaluator.wait(futures, timeout)
            for future in done:
                self._complete(futures[future])
        elif deferred:
            time.sleep(self._POLL_DEFERRED_ONLY)
        if deferred:
            self._poll_deferred(deferred)

    def _complete(self, entry: _InFlight) -> None:
        try:
            value, duration = entry.future.result()
        except EvaluationFailed as error:
            # The evaluation exhausted its in-worker attempts, or the pool
            # killed its worker at the hard deadline.
            self._remove(entry)
            self._settle(_FAILED, entry, None, error.failure.elapsed, error.failure)
            return
        if self._reg is not None:
            self._m_eval_seconds.observe(duration)
        self._remove(entry)
        self._settle(_EVALUATED, entry, value, duration)

    def _poll_deferred(self, deferred: list[_InFlight]) -> None:
        """Re-claim each deferred point: one claim answers whether it was
        published (hit), quarantined, released or expired (claimed: take
        the computation over) or is still leased (keep waiting)."""
        for entry in deferred:
            claim = self._cache.claim(entry.key, entry.mapping)
            if claim.status == Claim.LEASED:
                continue
            if claim.status == Claim.HIT:
                self._remove(entry)
                self._settle(_DEFERRED, entry, claim.value)
            elif (
                claim.status == Claim.QUARANTINED
                and claim.failure is not None
                and self.config.failure_policy is not None
            ):
                # The leader quarantined the point instead of publishing.
                self._remove(entry)
                self._settle(_SKIPPED, entry, None, 0.0, claim.failure)
            else:
                # The lease was released or expired (or, without a failure
                # policy, the point is quarantined and is re-attempted):
                # compute it ourselves — the defer paid the budget charge.
                entry.started_at = self._elapsed()
                self._dispatch(entry)

    # ------------------------------------------------------------------ #
    # settling an outcome
    # ------------------------------------------------------------------ #
    def _settle(
        self,
        outcome: str,
        entry: _InFlight,
        value: float | None,
        duration: float = 0.0,
        failure: EvaluationFailure | None = None,
    ) -> None:
        """Settle one outcome of candidate ``entry``, and its riders.

        Every outcome of every driver goes through here, in one order:
        count and persist it (:meth:`_count`); apply the failure policy
        (a failure outcome tells the penalty instead of ``value``, or
        raises :class:`~repro.core.faults.EvaluationFailed`); tell and
        record it (:meth:`_resolve`); close its span; after a failure,
        check the circuit breaker once; then settle its riders, the
        in-run revisits asked while it was in flight.  ``duration`` is
        the worker's time on the point.  The rule table, one row per
        outcome and the same under every driver (``charged`` is paid at
        launch and logged with the tell):

        outcome    settles                     cached  failed  counter           charged
        evaluated  a dispatched point          no      no      —                 1
        hit        a store or in-run cache     yes     no      cache_hits        0 [1]
                   hit: at claim, or a rider
                   of a success
        deferred   a point published by the    yes     no      cache_hits and    1
                   lease holder it waited on                   deferred_hits
        failed     a fresh failure, the hard   no      yes     failures          1
                   deadline's timeout too
        skipped    a quarantined point, at     no      yes     quarantine_skips  1
                   claim or after a deferral

        [1] 1 when the point is first-seen and ``replay_cache_hits`` is on.

        A rider reserved one unit at launch.  A success refunds it and
        serves the rider as a free hit; after a failure or a skip the
        rider is launched afresh, met as the serial driver meets the
        revisit: a charged skip once the point is quarantined, else a
        charged dispatch, so an algorithm stuck on a failing point still
        spends its budget.
        """
        self._count(outcome, entry.key, entry.mapping, value, failure)
        failed = failure is not None
        if failure is not None:
            policy = self.config.failure_policy
            if policy is None or not policy.penalize:
                self._tracer.end(entry.span, outcome=outcome)
                raise EvaluationFailed(failure)
            value = policy.penalty
        finished_at = self._elapsed()
        # The worker timed its own call; anchoring that interval to the
        # driver's clock at completion gives the true per-point wall-clock
        # (dispatch-to-completion would fold in executor queueing).
        started_at = max(finished_at - duration, entry.started_at)
        cached = outcome == _HIT or outcome == _DEFERRED
        self._resolve(entry.seq, entry.candidate, entry, value, started_at, finished_at,
                      cached, failure, entry.charged)
        if entry.span is not None:  # None unless tracing: spare the hot path a call
            self._tracer.end(entry.span, outcome=outcome, value=value, duration_in_worker=duration)
        if failed and self._breaker is not None:
            self._breaker.check()
        for seq, candidate in entry.riders:
            self._budget_units -= 1  # the reserved unit; a relaunch charges its own
            if failed:
                self._launch(seq, candidate)
                continue
            self._count(_HIT, entry.key, entry.mapping, value, None)
            span = self._tracer.begin("evaluation", parent=self._root, driver=self._driver, seq=seq)
            self._resolve(seq, candidate, entry, value, finished_at, finished_at, True, None, 0)
            self._tracer.end(span, outcome=_HIT, value=value, rider=True)

    def _count(
        self,
        outcome: str,
        key: CacheKey,
        mapping: dict[str, float],
        value: float | None,
        failure: EvaluationFailure | None,
        replayed: bool = False,
    ) -> None:
        """Count one outcome and persist it, live or ``replayed`` from a
        tell log: the only code that moves ``cache_hits``,
        ``deferred_hits``, ``failures`` and ``quarantine_skips``.

        An evaluated value is published to the cache; a fresh failure is
        quarantined there, or its claim released without quarantine (a
        replayed failure keeps the diagnosis a shared store may still
        hold); the circuit breaker records every evaluated and failure
        outcome.
        """
        self._seen.add(key)
        reg = self._reg
        if outcome == _HIT or outcome == _DEFERRED:
            self.cache_hits += 1
            if outcome == _DEFERRED:
                self.deferred_hits += 1
            if reg is not None:
                self._m_hits.inc()
                self._m_obj_hits.inc()
            return
        if outcome == _EVALUATED:
            if self._cache is not None:
                self._cache.put(key, mapping, value)
            if reg is not None:
                self._m_evals.inc()
            failure = None
        elif outcome == _SKIPPED:
            self.quarantine_skips += 1
            if reg is not None:
                reg.counter(
                    "repro_eval_quarantined_total",
                    EVAL_METRIC_HELP["repro_eval_quarantined_total"],
                ).inc()
        else:
            self.failures += 1
            if reg is not None:
                for name, amount in (
                    ("repro_eval_failures_total", 1),
                    ("repro_eval_retries_total", failure.attempts - 1),
                    ("repro_eval_timeouts_total", int(failure.kind == "timeout")),
                ):
                    if amount > 0:
                        reg.counter(name, EVAL_METRIC_HELP[name]).inc(amount)
            if self._cache is not None:
                policy = self.config.failure_policy
                if policy is None or not policy.quarantine:
                    self._cache.cancel(key, mapping)
                elif not replayed or self._cache.get_failure(key, mapping) is None:
                    self._cache.mark_failed(key, mapping, failure)
        if self._breaker is not None:
            self._breaker.record(failure)

    def _resolve(
        self,
        seq: int,
        candidate: np.ndarray,
        entry: _InFlight,
        value: float,
        started_at: float,
        finished_at: float,
        cached: bool,
        failure: EvaluationFailure | None,
        charged: int,
    ) -> None:
        """Tell one settled candidate and record it (:meth:`_keep`).

        The candidate is parked with its record fields, then the
        contiguous run of parked seqs is released — told and recorded —
        from the next seq in ask order for ordered tells, so the log lands
        in ask order, byte-for-byte the serial sequence; a native tell
        releases its own seq at once, in completion order.  ``entry`` is
        the settled point (a rider's, for a rider), ``failure`` its
        diagnosis or ``None``, and ``charged`` the budget this outcome
        cost.
        """
        parked = self._parked
        parked[seq] = (candidate, entry, value, started_at, finished_at, cached, failure, charged)
        release = self._next_release if self._ordered else seq
        while release in parked:
            candidate, entry, value, started_at, finished_at, cached, failure, charged = (
                parked.pop(release))
            self.algorithm.tell([candidate], [value])
            self._keep(Evaluation(
                index=len(self.history),
                values=dict(entry.mapping),
                unit=tuple(entry.unit.tolist()),
                value=value,
                started_at=started_at,
                finished_at=finished_at,
                cached=cached,
                failed=failure is not None,
                seq=release,
                asked=self._seq,
                charged=charged,
                failure_kind=None if failure is None else failure.kind,
                error=None if failure is None else failure.error,
            ))
            release += 1
        if self._ordered:
            self._next_release = release

    def _keep(self, record: Evaluation) -> None:
        """Log one tell's record; record it unless it is an unreplayed hit."""
        self._log.append(record)
        if not record.cached or self.config.replay_cache_hits:
            self.history.record(record)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _elapsed(self) -> float:
        """Wall-clock seconds into the run."""
        return time.perf_counter() - self._clock_start

    def _remove(self, entry: _InFlight) -> None:
        self._pending.remove(entry)
        if self._reg is not None:
            self._m_inflight.set(len(self._pending))
        if self._cache is not None:
            self._inflight_keys.pop(entry.key, None)

    def _abandon_claims(self) -> None:
        if self._cache is None:
            return
        for entry in self._pending:
            if entry.future is not None:  # ours to cancel; leased points are not
                self._cache.cancel(entry.key, entry.mapping)
