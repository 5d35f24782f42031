"""The evaluation loop: asynchronous, out-of-order calibration driving.

This module holds the one event loop every driver runs — claim →
dispatch → settle → tell → record, with lease re-claims and resume by
replaying the run's tell log.  Every outcome of a candidate (evaluated,
hit, deferred hit, fresh failure, quarantine skip, and the riders of
each) is settled by one method, :meth:`AsyncCalibrator._settle`, whose
docstring is the rule table of what each outcome records, counts and
costs; the replay counts through the same :meth:`AsyncCalibrator._count`.
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
* **ordered** algorithms (populations, line searches) are wrapped in
  :class:`OrderedTellAdapter`, which buffers completions and releases
  them to ``tell`` in ask order.  Within a generation the pool stays
  saturated; the only barrier left is the algorithm's own generation
  boundary.  Because the adapter restores exact ask order, a seeded
  asynchronous run visits byte-for-byte the serial driver's trajectory,
  whatever order the futures complete in.

All algorithm interaction (ask/tell) happens on the driver thread — the
pool only ever runs the objective function — so algorithms need no
locking.  Process-based execution requires a picklable objective, exactly
as for :class:`~repro.core.parallel.BatchCalibrator`.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Collection, Sequence
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
    CircuitBreaker,
    EvaluationFailed,
    EvaluationFailure,
    FailurePolicy,
    RetryPolicy,
)
from repro.core.history import Evaluation
from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict
from repro.telemetry.metrics import registry as _metrics_registry
from repro.telemetry.tracing import Span, current_tracer

if TYPE_CHECKING:
    # repro.core.parallel subclasses AsyncCalibrator, so it imports this
    # module; the evaluator itself is imported where it is constructed.
    from repro.core.parallel import ObjectiveFunction, Outcome, ParallelEvaluator

_REGISTRY = _metrics_registry()

__all__ = ["AsyncCalibrator", "OrderedTellAdapter", "RunConfig"]

#: failure attached to a point quarantined again while a tell log is
#: replayed (the log keeps the penalty record, not the diagnosis)
_REPLAYED_FAILURE = EvaluationFailure(error="EvaluationFailed: replayed from the tell log")

#: what a candidate settles as: the rows of ``AsyncCalibrator._settle``'s
#: rule table, and the ``outcome`` attribute of its ``evaluation`` span
_EVALUATED, _HIT, _DEFERRED, _FAILED, _SKIPPED = (
    "evaluated", "hit", "deferred", "failed", "skipped"
)

#: the claim of a run without a cache: every candidate is dispatched
_CLAIMED = Claim(Claim.CLAIMED)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How one run settles failures and charges cache hits.

    The same value configures every driver (serial, batch, async, fleet)
    and the local evaluator pool, so two drivers given one
    ``RunConfig`` apply one evaluation contract.  The default leaves
    every code path byte-identical to a fault-tolerance-unaware run.

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
        In a process pool a driver-side hard deadline backs it up.
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

    def hard_deadline(self, rounds: int) -> float | None:
        """Driver-side deadline for one dispatched point queued ``rounds``
        deep: long enough for every in-worker attempt plus backoff at
        each queue position, so it only fires for hangs the in-worker
        alarm could not interrupt.  ``None`` without an ``eval_timeout``."""
        if self.eval_timeout is None:
            return None
        retry = self.retry_policy
        attempts = retry.max_attempts if retry is not None else 1
        backoff = retry.max_total_backoff() if retry is not None else 0.0
        per_point = self.eval_timeout * attempts + backoff
        return per_point * rounds + max(5.0, per_point)


class OrderedTellAdapter:
    """Buffers out-of-order completions into ask order for any algorithm.

    The default adapter of :class:`AsyncCalibrator`: candidates are
    numbered as they are asked, completed results are parked until every
    earlier candidate has completed too, and the contiguous prefix is
    released to :meth:`~repro.core.algorithms.CalibrationAlgorithm.tell`
    in exact ask order.  The wrapped algorithm therefore observes the same
    (candidate, value) stream a serial driver would have produced — this
    is what makes asynchronous runs of population algorithms reproduce
    serial trajectories byte for byte.
    """

    def __init__(self, algorithm: CalibrationAlgorithm) -> None:
        self.algorithm = algorithm
        self._next_release = 0
        self._parked: dict[int, tuple[np.ndarray, float]] = {}

    @property
    def buffered(self) -> int:
        """Completed results parked behind a still-running predecessor."""
        return len(self._parked)

    def complete(
        self, seq: int, candidate: np.ndarray, value: float
    ) -> list[tuple[int, np.ndarray, float]]:
        """Record completion ``seq`` and release the ready prefix, telling
        the wrapped algorithm one (candidate, value) at a time in ask
        order.  Returns the released ``(seq, candidate, value)`` triples
        (possibly empty)."""
        self._parked[seq] = (candidate, value)
        released: list[tuple[int, np.ndarray, float]] = []
        while self._next_release in self._parked:
            cand, val = self._parked.pop(self._next_release)
            self.algorithm.tell([cand], [val])
            released.append((self._next_release, cand, val))
            self._next_release += 1
        return released


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
    riders: tuple[tuple[int, np.ndarray], ...] = ()  # in-run revisits riding on it
    #: wall-clock at dispatch, for the driver-side hard deadline (None
    #: while deferred behind another driver's lease)
    dispatched_wall: float | None = None


class AsyncCalibrator:
    """Budget-bounded asynchronous calibration of *any* ask/tell algorithm.

    Keeps a :class:`~repro.core.parallel.ParallelEvaluator` pool saturated
    by asking speculatively whenever capacity frees up and telling results
    out of order as futures complete (see the module docstring for the
    native/adapted split).  This class is the event loop;
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
    algorithm, algorithm_options:
        Registry name (with constructor options) or a configured instance;
        must implement the native ask/tell hooks.
    workers, mode:
        Concurrency settings, see :class:`~repro.core.parallel.ParallelEvaluator`.
    max_pending:
        Upper bound on in-flight candidates (dispatched futures plus
        deferred leases); defaults to ``workers``.  Raising it above
        ``workers`` queues extra work inside the executor so a completing
        worker never waits for the driver thread; lowering it to 1
        gives the serial driver's trajectory.
    budget:
        Evaluation- or time-based budget (or a combination).  Evaluation
        budgets are charged at *dispatch* time, so the run performs
        exactly its cap even though results arrive out of order.
    seed:
        Seed for the algorithm's random number generator.
    cache:
        ``True`` (memoise in a fresh in-memory
        :class:`~repro.core.evaluation.DictCache`), ``False`` (always
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
        Force the :class:`OrderedTellAdapter` (``True``), force native
        out-of-order tells (``False`` — rejected if the algorithm cannot),
        or pick automatically from ``supports_async_tell`` (``None``, the
        default).
    evaluator:
        Inject the evaluation transport instead of constructing a local
        :class:`~repro.core.parallel.ParallelEvaluator` pool (in which
        case ``workers``/``mode`` are ignored).  Anything implementing
        the same surface works — ``submit(mapping) -> Future[(value,
        duration)]``, ``wait(futures, timeout) -> done``, ``history``,
        ``elapsed``, ``reset_clock()``, ``close()`` — notably the
        distributed fleet's task-board evaluator
        (:class:`repro.service.fleet.FleetEvaluator`), which hands
        candidates to pull-based worker processes instead of a local
        pool.
    """

    #: deferred-lease poll cadence while futures are also pending / not
    _POLL_WITH_FUTURES = 0.02
    _POLL_DEFERRED_ONLY = 0.005
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
        algorithm_options: dict[str, object] | None = None,
        ordered_tells: bool | None = None,
        evaluator: ParallelEvaluator | None = None,
        config: RunConfig | None = None,
    ) -> None:
        self.space = space
        self.algorithm = get_algorithm(algorithm, **(algorithm_options or {}))
        if ordered_tells is None:
            self.ordered_tells = not self.algorithm.supports_async_tell
        else:
            self.ordered_tells = bool(ordered_tells)
            if not self.ordered_tells and not self.algorithm.supports_async_tell:
                raise ValueError(
                    f"algorithm {self.algorithm.name!r} does not support out-of-order "
                    "tells; leave ordered_tells unset (or True) to use the buffering adapter"
                )
        self.config = config if config is not None else RunConfig()
        if evaluator is not None:
            self.evaluator = evaluator
        else:
            from repro.core.parallel import ParallelEvaluator

            self.evaluator = ParallelEvaluator(
                objective_function, space, workers=workers, mode=mode, config=self.config
            )
        self.failures = 0
        self.quarantine_skips = 0
        self._breaker: CircuitBreaker | None = None
        #: an inline evaluator runs the objective inside ``submit``, so the
        #: driver can time it as a ``simulate`` span
        self._inline = getattr(self.evaluator, "mode", None) == "serial"
        self.max_pending = int(workers) if max_pending is None else int(max_pending)
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        # Driver-side hard deadline, for a point queued behind every
        # pool-mate.  Killing a wedged worker needs a killable pool, hence
        # process mode on the local evaluator only.
        self._hard_timeout: float | None = None
        if getattr(self.evaluator, "mode", "") == "process":
            rounds = -(-self.max_pending // max(int(workers), 1))
            self._hard_timeout = self.config.hard_deadline(rounds)
        #: the caller's budget (reported in the result) and the one the
        #: loop enforces — the same object unless a subclass adds a
        #: stopping criterion to it
        self.budget = budget if budget is not None else EvaluationBudget(100)
        self._budget: Budget = self.budget
        self.seed = seed
        if isinstance(cache, CacheBackend):
            self._cache: CacheBackend | None = cache
        elif cache:
            self._cache = DictCache()
        else:
            self._cache = None
        self.cache_hits = 0
        self.deferred_hits = 0  # points resolved from a concurrent driver's lease

    # ------------------------------------------------------------------ #
    # resume by replay
    # ------------------------------------------------------------------ #
    def _restore(
        self, log: Sequence[dict[str, Any]], rng: np.random.Generator
    ) -> tuple[list[tuple[int, np.ndarray]], float]:
        """Replay a tell log into the freshly set-up algorithm.

        Before each entry's tell the algorithm is asked, in this driver's
        own width, until it has handed out ``asked`` candidates — the
        interrupted run's exact ask/tell interleaving — then candidate
        ``seq`` must round-trip to the logged unit point and is told the
        logged value.  Each entry is classified as the outcome it settled
        as and counted through :meth:`_count`, like a live one; budget
        (Σ ``charged``), history and clock are rebuilt from the entries.
        Returns the candidates asked but never told, in ask order, and
        the clock to continue from; raises ``ValueError`` at the first
        ``seq`` this run would not have told (another algorithm, options
        or seed, or a log told out of ask order resumed with the ordered
        adapter).
        """
        width = self.max_pending if self._barrier else 1
        asked: dict[int, np.ndarray] = {}
        history = self.evaluator.history
        replay = self.config.replay_cache_hits
        policy = self.config.failure_policy
        quarantine = policy is not None and policy.quarantine
        quarantined: set[CacheKey] = set()
        elapsed = 0.0
        for told, entry in enumerate(log):
            seq = entry["seq"]
            while self._seq < entry["asked"]:
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
                or self._seq != entry["asked"]
                or unit.tolist() != list(entry["unit"])
                or (self.ordered_tells and seq != told)  # the adapter tells in ask order
            ):
                raise ValueError(
                    f"the tell log diverges from this run at seq {seq}: "
                    f"{self.algorithm.name!r} with seed {self.seed} would not "
                    f"tell {entry['unit']} there"
                )
            evaluation = evaluation_from_dict(entry)
            self.algorithm.tell([candidate], [evaluation.value])
            key = unit_cache_key(unit, CACHE_DECIMALS)
            if evaluation.failed:
                # A rider of a failure, or a revisit of a point this run
                # quarantined, was a skip; anything else failed afresh.
                outcome = _SKIPPED if evaluation.cached or key in quarantined else _FAILED
                if outcome == _FAILED and quarantine:
                    quarantined.add(key)
            elif evaluation.cached:
                # Charged hits are replayed first-seen hits or deferred ones.
                deferred = entry["charged"] and not (replay and key not in self._seen)
                outcome = _DEFERRED if deferred else _HIT
            else:
                outcome = _EVALUATED
                quarantined.discard(key)
            self._count(outcome, key, evaluation.values, evaluation.value, _REPLAYED_FAILURE)
            self._budget_units += entry["charged"]
            if not evaluation.cached or replay:
                history.record(dataclasses.replace(evaluation, index=len(history)))
            elapsed = max(elapsed, evaluation.finished_at)
        return list(asked.items()), elapsed

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
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
            original ``seq`` and carries on.
        checkpoint_every:
            Hand the tell-log entries to ``on_checkpoint`` whenever at
            least this many have accumulated (0 disables), and the rest
            when the run ends.  The log has one entry per tell — cache
            hits and riders included — holding the
            :func:`~repro.core.serialization.evaluation_to_dict` record
            plus ``seq`` (the ask index), ``asked`` (candidates asked
            before this tell) and ``charged`` (budget units it cost).
            Entries are handed over only between completions, never while
            the ordered adapter is mid-release.
        on_checkpoint:
            Callback receiving each list of new entries (e.g. to append
            them to a file).
        """
        rng = np.random.default_rng(self.seed)
        self.cache_hits = 0
        self.deferred_hits = 0
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
        #: candidates a resumed run asked but never told, relaunched first
        self._untold: list[tuple[int, np.ndarray]] = []
        elapsed = 0.0
        self._reg = None  # a replay moves no metric
        if resume is not None:
            self._untold, elapsed = self._restore(resume, rng)
        self._adapter = OrderedTellAdapter(self.algorithm) if self.ordered_tells else None
        if self._adapter is not None and resume is not None:
            self._adapter._next_release = len(resume)  # the replay told this prefix
        self._checkpoint_every = int(checkpoint_every)
        self._on_checkpoint = on_checkpoint
        #: tell-log entries not yet handed to ``on_checkpoint`` (None:
        #: the run keeps no log)
        self._log: list[dict[str, Any]] | None = (
            [] if self._checkpoint_every > 0 and on_checkpoint is not None else None
        )
        self._budget.start(elapsed)
        self.evaluator.reset_clock(elapsed)
        #: per-seq record metadata (the settled entry, started_at,
        #: finished_at, cached, failed, charged), parked alongside the
        #: adapter's buffer until the seq is released
        self._meta: dict[int, tuple[_InFlight, float, float, bool, bool, int]] = {}
        self._tracer = current_tracer()
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
            "calibration", driver=self._driver, algorithm=self.algorithm.name, seed=self.seed
        )
        try:
            self._drive(rng)
            if self._log:
                self._hand_over_log()
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
            self.evaluator.close()

        history = self.evaluator.history
        best = history.best
        if best is None:
            raise RuntimeError("the budget was exhausted before a single evaluation completed")
        return CalibrationResult(
            algorithm=self.algorithm.name,
            best_values=dict(best.values),
            best_value=best.value,
            evaluations=sum(1 for e in history if not e.cached),
            elapsed=self.evaluator.elapsed,
            history=history,
            budget_description=self.budget.describe(),
            seed=self.seed,
            telemetry=_REGISTRY.snapshot() if _REGISTRY.enabled else None,
        )

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _drive(self, rng: np.random.Generator) -> None:
        for seq, candidate in self._untold:  # a resumed run's in-flight work
            if not self._launch(candidate, seq):
                break
        while True:
            asked = self._refill(rng)
            if not self._pending:
                if asked:
                    continue  # everything asked was answered by the cache
                break  # nothing in flight and nothing left to ask: done
            self._await_completions()
            self._maybe_checkpoint()
        # Budget exhausted (or algorithm done) with work still in flight:
        # drain it — the dispatches were charged, their results belong to
        # the history and the algorithm.
        while self._pending:
            self._await_completions()
            self._maybe_checkpoint()

    def _maybe_checkpoint(self) -> None:
        """Hand the new tell-log entries over after a round of completions.

        Called only once a round of completions is fully told: with an
        inline evaluator nothing computed is then left untold, so a run
        killed after the hand-over and resumed from the log repeats no
        simulator call.
        """
        if self._log is not None and len(self._log) >= self._checkpoint_every:
            self._hand_over_log()

    def _hand_over_log(self) -> None:
        entries, self._log = self._log, []
        self._on_checkpoint(entries)

    def _refill(self, rng: np.random.Generator) -> int:
        """Ask and launch candidates until capacity or budget runs out.

        Without the barrier one candidate is asked whenever fewer than
        ``max_pending`` are in flight; with it nothing is asked until the
        pool has drained, then ``max_pending`` candidates are asked at
        once and launched in ask order.  Returns the number of candidates
        asked (cache hits resolve instantly and never enter ``pending``,
        so progress is reported even when nothing was dispatched).
        """
        asked = 0
        width = self.max_pending if self._barrier else 1
        while (
            len(self._pending) + width <= self.max_pending
            and not self.algorithm.done()
            and not self._budget.exhausted(self._budget_units)
        ):
            candidates = self.algorithm.ask(rng, width)
            if not candidates:
                break  # ordered algorithm awaiting tells (or done)
            first = self._seq
            self._seq += len(candidates)
            for offset, candidate in enumerate(candidates):
                asked += 1
                if not self._launch(candidate, first + offset):
                    # Truncated final batch: only the affordable prefix is
                    # launched (and told); the run is over anyway.
                    return asked
        return asked

    def _launch(self, candidate: np.ndarray, seq: int) -> bool:
        """Claim candidate ``seq`` and settle, defer or dispatch it.

        Returns ``False`` — with the claim cancelled and nothing recorded
        — when the evaluation cap cannot afford the candidate, which only
        a batch asked wider than the remaining budget can produce.
        """
        # No clip_unit first: from_unit already clamps every coordinate to
        # [0, 1], and clip-then-clamp equals clamp (NaN, ±inf, -0.0 too).
        mapping = self.space.from_unit_array(candidate)
        # Round-tripped unit (the key and the history record), so that
        # non-injective parameters (integers) collapse onto one entry.
        unit = self.space.to_unit_array(mapping)
        key = unit_cache_key(unit, CACHE_DECIMALS)

        # An identical point already in flight *within this run*: ride on
        # it instead of claiming or dispatching again.
        if self._cache is not None and key in self._inflight_keys:
            self._inflight_keys[key].riders += ((seq, candidate),)
            if self._reg is not None:
                self._m_riders.inc()
            return True

        claim = self._cache.claim(key, mapping) if self._cache is not None else _CLAIMED
        # A dispatch costs 1, so does a leased or quarantined point; a hit
        # costs 1 only when it is first-seen and replayed, so a warm run
        # stops at the cold run's total.
        replayed = self.config.replay_cache_hits and key not in self._seen
        charge = 1 if claim.status != Claim.HIT or replayed else 0
        remaining = remaining_evaluations(self._budget, self._budget_units)
        if remaining is not None and charge > remaining:
            if claim.status == Claim.CLAIMED and self._cache is not None:
                # The claim announced this run's responsibility for a
                # point it will never dispatch: release it.
                self._cache.cancel(key, mapping)
            return False

        self._budget_units += charge
        entry = _InFlight(
            seq, candidate, mapping, unit, key, self.evaluator.elapsed,
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
        entry.dispatched_wall = time.time()

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
                if self._hard_timeout is not None:
                    # Bound the wait by the earliest hard deadline so a
                    # wedged worker is noticed even with nothing else to poll.
                    deadline = min(
                        e.dispatched_wall + self._hard_timeout
                        for e in futures.values()
                        if e.dispatched_wall is not None
                    )
                    slack = max(deadline - time.time(), 0.01)
                    timeout = slack if timeout is None else min(timeout, slack)
                done = self.evaluator.wait(futures, timeout)
            for future in done:
                self._complete(futures[future])
            if not done:
                self._reap_stalled()
        elif deferred:
            time.sleep(self._POLL_DEFERRED_ONLY)
        if deferred:
            self._poll_deferred(deferred)

    def _reap_stalled(self) -> None:
        """Driver-side hard-deadline backstop: kill and replace the pool
        when a dispatched evaluation has been running past any possible
        in-worker timeout schedule (a hang the ``SIGALRM`` guard could
        not interrupt), deliver timeout failures for the stalled entries
        and resubmit the innocent in-flight ones on the fresh pool."""
        if self._hard_timeout is None:
            return
        now = time.time()
        stalled = [
            e for e in self._pending
            if e.future is not None and e.dispatched_wall is not None
            and now - e.dispatched_wall >= self._hard_timeout
        ]
        if not stalled:
            return
        replace = getattr(self.evaluator, "replace_pool", None)
        if replace is None:
            return  # transport owns its workers (fleet); its lease TTL recovers
        innocent = [
            e for e in self._pending if e.future is not None and e not in stalled
        ]
        replace()
        for entry in innocent:
            # Their futures died with the killed pool through no fault of
            # their own evaluation: dispatch them again, deadline reset.
            self._dispatch(entry)
        for entry in stalled:
            elapsed = now - (entry.dispatched_wall or now)
            self._remove(entry)
            self._settle(
                _FAILED, entry, None, 0.0,
                EvaluationFailure(
                    error=(
                        "EvaluationTimeout: evaluation exceeded the "
                        f"{self._hard_timeout:g}s hard deadline; "
                        "its pool worker was killed and replaced"
                    ),
                    kind="timeout",
                    attempts=1,
                    elapsed=elapsed,
                ),
            )

    def _complete(self, entry: _InFlight) -> None:
        try:
            value, duration = entry.future.result()
        except EvaluationFailed as error:
            # The evaluation exhausted its in-worker attempts; the pool
            # itself is healthy.
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
                entry.started_at = self.evaluator.elapsed
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
        record it (:meth:`_resolve`); close its span; settle its riders
        — in-run revisits asked while it was in flight — for free; and,
        after a failure, check the circuit breaker once.  ``duration`` is
        the worker's time on the point.  The rule table (``charged`` is
        paid at launch and logged with the tell):

        outcome    settles                     cached  failed  counter           charged
        evaluated  a dispatched point          no      no      —                 1
        hit        a store or in-run cache     yes     no      cache_hits        0 [1]
                   hit, at claim
        deferred   a point published by the    yes     no      cache_hits and    1
                   lease holder it waited on                   deferred_hits
        failed     a fresh failure, the hard   no      yes     failures          1
                   deadline's timeout too
        skipped    a quarantined point, at     no      yes     quarantine_skips  1
                   claim or after a deferral
        hit        the rider of a success      yes     no      cache_hits        0
        skipped    the rider of a failure      yes     yes     quarantine_skips  0
                   or a skip

        [1] 1 when the point is first-seen and ``replay_cache_hits`` is on.

        The table keeps an asymmetry as it stands: the serial driver
        meets the revisit of a failed point in the cache, a ``skipped``
        outcome that is charged, while a pooled driver meets it as the
        free rider of the failure still in flight.
        """
        self._count(outcome, entry.key, entry.mapping, value, failure)
        failed = failure is not None
        if failure is not None:
            policy = self.config.failure_policy
            if policy is None or not policy.penalize:
                self._tracer.end(entry.span, outcome=outcome)
                raise EvaluationFailed(failure)
            value = policy.penalty
        finished_at = self.evaluator.elapsed
        # The worker timed its own call; anchoring that interval to the
        # driver's clock at completion gives the true per-point wall-clock
        # (dispatch-to-completion would fold in executor queueing).
        started_at = max(finished_at - duration, entry.started_at)
        cached = outcome == _HIT or outcome == _DEFERRED
        self._resolve(entry.seq, entry.candidate, entry, value, started_at, finished_at,
                      cached, failed, entry.charged)
        if entry.span is not None:  # None unless tracing: spare the hot path a call
            self._tracer.end(entry.span, outcome=outcome, value=value, duration_in_worker=duration)
        if entry.riders:
            rider = _SKIPPED if failed else _HIT
            for seq, candidate in entry.riders:
                self._count(rider, entry.key, entry.mapping, value, failure)
                span = self._tracer.begin(
                    "evaluation", parent=self._root, driver=self._driver, seq=seq
                )
                self._resolve(seq, candidate, entry, value, finished_at, finished_at,
                              True, failed, 0)
                self._tracer.end(span, outcome=rider, value=value, rider=True)
        if failed and self._breaker is not None:
            self._breaker.check()

    def _count(
        self,
        outcome: str,
        key: CacheKey,
        mapping: dict[str, float],
        value: float | None,
        failure: EvaluationFailure | None,
    ) -> None:
        """Count one outcome and persist it, live or replayed from a tell
        log: the only code that moves ``cache_hits``, ``deferred_hits``,
        ``failures`` and ``quarantine_skips``.

        An evaluated value is published to the cache; a fresh failure is
        quarantined there, or its claim released without quarantine (a
        replayed failure, ``_REPLAYED_FAILURE``, keeps the diagnosis a
        shared store may still hold); the circuit breaker records every
        evaluated and failure outcome.
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
                elif (
                    failure is not _REPLAYED_FAILURE
                    or self._cache.get_failure(key, mapping) is None
                ):
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
        failed: bool,
        charged: int,
    ) -> None:
        """Tell one settled candidate and record it in the history.

        With the ordered adapter the tell (and the history record) may be
        buffered until every earlier candidate completes, so the history
        lands in ask order — byte-for-byte the serial sequence; native
        tells and their records land immediately, in completion order.
        ``entry`` is the settled point (a rider's, for a rider), and
        ``charged`` the budget this outcome cost, for the tell log.
        """
        self._meta[seq] = (entry, started_at, finished_at, cached, failed, charged)
        if self._adapter is None:
            self.algorithm.tell([candidate], [value])
            self._record(seq, value)
        else:
            for released_seq, _cand, released_value in self._adapter.complete(
                seq, candidate, value
            ):
                self._record(released_seq, released_value)

    def _record(self, seq: int, value: float) -> None:
        entry, started_at, finished_at, cached, failed, charged = self._meta.pop(seq)
        unrecorded = cached and not self.config.replay_cache_hits
        if unrecorded and self._log is None:
            return
        history = self.evaluator.history
        evaluation = Evaluation(
            index=len(history),
            values=dict(entry.mapping),
            unit=tuple(entry.unit.tolist()),
            value=value,
            started_at=started_at,
            finished_at=finished_at,
            cached=cached,
            failed=failed,
        )
        if self._log is not None:
            logged = evaluation_to_dict(evaluation)
            logged.update(seq=seq, asked=self._seq, charged=charged)
            self._log.append(logged)
            if unrecorded:
                return
        history.record(evaluation)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
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
