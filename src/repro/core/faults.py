"""Fault-tolerant evaluation: outcomes, retries, timeouts, circuit breaking.

The paper's calibration loop assumes every simulator invocation returns a
value; an operated system cannot.  This module makes evaluation failure a
first-class, *recorded* outcome instead of a job-killing exception:

* :class:`EvaluationFailure` — the data form of "this point failed":
  error text, a transient/deterministic/timeout classification, and how
  many attempts were burned.  Failures travel
  through worker-pool futures as :class:`EvaluationFailed` (picklable),
  so one bad candidate never aborts its batch-mates.
* :class:`RetryPolicy` — bounded attempts with exponential backoff whose
  jitter is *seeded-deterministic* (derived from the candidate's
  canonical parameters, not from process-global randomness), so a
  retried run replays byte-identically.
* :func:`call_with_timeout` — a per-evaluation wall-clock timeout via
  ``SIGALRM``/``setitimer``.  It works exactly where evaluations run: the
  main thread of a process-pool worker (and of a serial driver) on
  POSIX; in worker *threads* it degrades to an unguarded call.  A
  process pool backs it up with a hard deadline that kills the stuck
  worker.
* :class:`FailurePolicy` — what a driver does with a failure outcome:
  ``"raise"`` (today's behavior, the default when no policy is given) or
  ``"penalty"`` (tell the algorithm a large penalty value and keep
  spending budget where it pays).  Because the penalty path only differs
  *after* a failure, zero-failure runs stay byte-identical to the
  machinery-off trajectories.
* :class:`CircuitBreaker` — a per-job failure-rate threshold that fails
  fast with a diagnosis instead of burning the whole budget on a broken
  simulator build.

The store-side half of the model — poison-point quarantine — lives in
:meth:`repro.service.store.EvaluationStore.record_failure`; drivers reach
it through :meth:`repro.core.evaluation.CacheBackend.mark_failed`.  The
unified failure model (lease TTL + retry policy + circuit breaker) is
documented in ``docs/robustness.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import signal
import threading
import time
from collections.abc import Callable, Mapping
from typing import Any

__all__ = [
    "DEFAULT_PENALTY",
    "CircuitBreaker",
    "CircuitOpen",
    "EvaluationFailed",
    "EvaluationFailure",
    "EvaluationTimeout",
    "FailurePolicy",
    "RetryPolicy",
    "TransientEvaluationError",
    "call_with_timeout",
    "point_token",
    "run_guarded",
    "timeouts_supported",
]

#: Default objective value told for a failed evaluation under the
#: ``"penalty"`` policy.  Orders of magnitude above any real accuracy
#: value (the case study's MRE is a percentage), so a failed point can
#: never become the best and minimizers are pushed away from it.
DEFAULT_PENALTY = 1.0e6

#: failure classification labels (``EvaluationFailure.kind``)
KIND_TRANSIENT = "transient"
KIND_DETERMINISTIC = "deterministic"
KIND_TIMEOUT = "timeout"

#: HELP strings for the fault-tolerance metrics, shared by every module
#: that increments them so the registry sees one consistent identity.
EVAL_METRIC_HELP = {
    "repro_eval_failures_total": (
        "Evaluations that exhausted their attempts and became failure outcomes."
    ),
    "repro_eval_retries_total": (
        "Evaluation attempts retried after a transient failure."
    ),
    "repro_eval_timeouts_total": (
        "Evaluations killed by the per-evaluation wall-clock timeout."
    ),
    "repro_eval_quarantined_total": (
        "Candidates skipped because their point is quarantined in the store."
    ),
}


class TransientEvaluationError(RuntimeError):
    """An evaluation failure worth retrying (flaky I/O, a lost worker …).

    Objective functions may raise this (or a subclass) to opt a failure
    into the retry path explicitly; common stdlib transients
    (``ConnectionError``, ``TimeoutError``) are classified the same way.
    """


class EvaluationTimeout(TransientEvaluationError):
    """The evaluation exceeded its per-attempt wall-clock timeout."""


@dataclasses.dataclass(frozen=True)
class EvaluationFailure:
    """The recorded form of one failed evaluation.

    ``kind`` is ``"transient"`` (retryable and retried), ``"timeout"``
    (killed by the wall-clock guard) or ``"deterministic"`` (raised the
    same way every attempt would; never retried).  ``attempts`` counts
    every invocation made, so ``attempts - 1`` is the retries burned.
    """

    error: str
    kind: str = KIND_DETERMINISTIC
    attempts: int = 1
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> EvaluationFailure:
        return EvaluationFailure(
            error=str(data["error"]),
            kind=str(data.get("kind", KIND_DETERMINISTIC)),
            attempts=int(data.get("attempts", 1)),
            elapsed=float(data.get("elapsed", 0.0)),
        )


class EvaluationFailed(Exception):
    """Delivered through futures when an evaluation exhausts its attempts.

    Carries the structured :class:`EvaluationFailure`, and pickles
    cleanly so process-pool workers can raise it across the process
    boundary.
    """

    def __init__(self, failure: EvaluationFailure) -> None:
        super().__init__(failure.error)
        self.failure = failure

    def __reduce__(self) -> tuple[type[EvaluationFailed], tuple[EvaluationFailure]]:
        return (EvaluationFailed, (self.failure,))


def point_token(values: Mapping[str, float]) -> str:
    """A canonical text token for one parameter point (sorted names,
    ``repr``-exact floats) — the deterministic seed material for
    per-point backoff jitter and hash-based fault injection."""
    return ",".join(f"{name}={float(values[name])!r}" for name in sorted(values))


def _hash_fraction(*parts: object) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` derived from
    ``parts`` — stable across processes and runs (unlike ``hash()``)."""
    payload = "|".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retries for transient evaluation failures.

    ``max_attempts`` bounds total invocations (1 = no retries).  The
    delay before attempt ``n+1`` is ``backoff * backoff_factor**(n-1)``
    capped at ``backoff_max``, stretched by up to ``jitter`` (a
    fraction) — the jitter is derived from the candidate's parameters
    and the attempt number, never from wall-clock or global randomness,
    so a replayed run sleeps the exact same schedule.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25

    def classify(self, error: BaseException) -> str:
        """``"timeout"`` / ``"transient"`` (retried) or ``"deterministic"``."""
        if isinstance(error, EvaluationTimeout):
            return KIND_TIMEOUT
        if isinstance(
            error, (TransientEvaluationError, ConnectionError, TimeoutError, InterruptedError)
        ):
            return KIND_TRANSIENT
        return KIND_DETERMINISTIC

    def delay(self, attempt: int, token: str = "") -> float:
        """Seconds to sleep before retrying after failed attempt ``attempt``."""
        base = min(self.backoff * self.backoff_factor ** max(attempt - 1, 0), self.backoff_max)
        return base * (1.0 + self.jitter * _hash_fraction(token, attempt))

    def max_total_backoff(self) -> float:
        """Upper bound on the backoff a point can sleep across all retries."""
        return sum(
            self.delay(attempt) * (1.0 + self.jitter)
            for attempt in range(1, self.max_attempts)
        )


def timeouts_supported() -> bool:
    """Whether :func:`call_with_timeout` can actually interrupt the call
    here: POSIX ``SIGALRM`` exists and this is the thread that receives
    signals (the main thread — true in serial drivers and in the main
    thread of every process-pool worker, false in thread pools)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def call_with_timeout(
    function: Callable[[dict[str, float]], float],
    values: dict[str, float],
    timeout: float | None,
) -> float:
    """Run ``function(values)`` under a per-attempt wall-clock timeout.

    Raises :class:`EvaluationTimeout` when the deadline passes — the
    interval timer interrupts pure-Python hangs and sleeps alike.  Where
    alarms cannot fire (non-POSIX, or a worker *thread*), the call runs
    unguarded; in a process pool the pool's hard deadline remains the
    backstop.
    """
    if timeout is None or timeout <= 0 or not timeouts_supported():
        return float(function(values))

    def _on_alarm(signum: int, frame: object) -> None:
        raise EvaluationTimeout(f"evaluation exceeded its {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    try:
        return float(function(values))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_guarded(
    function: Callable[[dict[str, float]], float],
    values: dict[str, float],
    retry: RetryPolicy | None = None,
    timeout: float | None = None,
) -> tuple[float, int]:
    """Evaluate one point with per-attempt timeouts and bounded retries.

    Returns ``(value, retries_used)``.  Transient failures (including
    timeouts) are retried up to ``retry.max_attempts`` total invocations
    with the policy's deterministic backoff; deterministic failures are
    never retried.  Exhaustion raises :class:`EvaluationFailed` carrying
    the structured failure — ``KeyboardInterrupt``/``SystemExit`` always
    propagate untouched.
    """
    policy = retry if retry is not None else RetryPolicy(max_attempts=1)
    token = None  # the backoff jitter's seed, made at the first retry
    started = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            return call_with_timeout(function, values, timeout), attempt - 1
        except Exception as error:
            kind = policy.classify(error)
            if kind != KIND_DETERMINISTIC and attempt < policy.max_attempts:
                if token is None:
                    token = point_token(values)
                time.sleep(policy.delay(attempt, token))
                continue
            raise EvaluationFailed(
                EvaluationFailure(
                    error=f"{type(error).__name__}: {error}",
                    kind=kind,
                    attempts=attempt,
                    elapsed=time.perf_counter() - started,
                )
            ) from error


class CircuitOpen(RuntimeError):
    """Raised by :meth:`CircuitBreaker.check` when the failure rate of a
    job crosses its threshold: fail fast with a diagnosis instead of
    spending the remaining budget on a broken objective."""


class CircuitBreaker:
    """Per-job failure-rate accounting with a trip threshold.

    Record every evaluation outcome (success or failure); once at least
    ``min_samples`` outcomes are in, :meth:`check` raises
    :class:`CircuitOpen` when ``failures / total >= threshold``.  A
    ``None`` threshold never trips (pure accounting).
    """

    #: recent failures quoted in the trip diagnosis
    _DIAGNOSIS_SAMPLES = 3

    def __init__(self, threshold: float | None = None, min_samples: int = 20) -> None:
        self.threshold = None if threshold is None else float(threshold)
        self.min_samples = int(min_samples)
        self.total = 0
        self.failures = 0
        self._recent: list[EvaluationFailure] = []

    def record(self, failure: EvaluationFailure | None = None) -> None:
        """Account one outcome: ``None`` for success, else its failure."""
        self.total += 1
        if failure is not None:
            self.failures += 1
            self._recent.append(failure)
            del self._recent[: -self._DIAGNOSIS_SAMPLES]

    @property
    def failure_rate(self) -> float:
        return self.failures / self.total if self.total else 0.0

    def check(self) -> None:
        if self.threshold is None or self.total < self.min_samples:
            return
        if self.failure_rate >= self.threshold:
            recent = "; ".join(f.error for f in self._recent) or "no failure detail"
            raise CircuitOpen(
                f"circuit breaker open: {self.failures}/{self.total} evaluations "
                f"failed ({self.failure_rate:.0%} >= {self.threshold:.0%} threshold). "
                f"Recent failures: {recent}"
            )


@dataclasses.dataclass(frozen=True)
class FailurePolicy:
    """What a driver does once an evaluation is a failure outcome.

    ``on_failure="penalty"`` tells the algorithm :attr:`penalty` for the
    failed point and keeps going (history records it with
    ``failed=True``); ``"raise"`` re-raises :class:`EvaluationFailed`
    after recording, which aborts the job exactly like the
    no-policy default.  ``quarantine`` persists the failure through the
    cache backend (:meth:`~repro.core.evaluation.CacheBackend.mark_failed`)
    so resumed and concurrent jobs skip the point.
    ``failure_rate_threshold`` arms the per-job :class:`CircuitBreaker`.
    """

    on_failure: str = "penalty"
    penalty: float = DEFAULT_PENALTY
    quarantine: bool = True
    failure_rate_threshold: float | None = None
    min_samples: int = 20

    def __post_init__(self) -> None:
        if self.on_failure not in ("penalty", "raise"):
            raise ValueError(
                f"on_failure must be 'penalty' or 'raise', not {self.on_failure!r}"
            )

    @property
    def penalize(self) -> bool:
        return self.on_failure == "penalty"

    def breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self.failure_rate_threshold, self.min_samples)
