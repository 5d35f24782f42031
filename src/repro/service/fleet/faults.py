"""Deterministic fault injection for fleet workers.

Worker failure must be a first-class, testable event — not an accident a
test tries to time with signals.  A :class:`FaultInjector` is threaded
into the worker's claim/publish path and fires at exact, configurable
points:

* ``kill_after_claims=N`` — die on the Nth successful claim, *before*
  evaluating.  ``os._exit`` skips every ``finally``/``atexit`` cleanup,
  which is as close to SIGKILL as the process can do to itself: the
  store lease stays live and must expire via its TTL before another
  worker can take the point over.  Because death precedes evaluation,
  recovery costs **zero** duplicate simulator invocations.
* ``drop_publish=N`` — die on the Nth publish, *after* evaluating but
  before the result reaches the store or the front-end.  The computed
  value is lost with the process, so recovery re-evaluates the point:
  exactly **one** duplicate invocation.
* ``publish_delay`` — sleep this long before each publish (result
  arrives, just late), for exercising poll/timeout paths.

Beyond process death, the injector also reaches into the *simulator*
layer: ``raise_every_evals=N`` makes every Nth evaluation raise a
transient error (exercising retry/quarantine paths) and
``hang_on_eval=N`` makes the Nth evaluation block for ``hang_seconds``
(exercising timeout paths); both fire in the worker's pool process
(:meth:`FaultInjector.wrap`), under the job's retries and deadline.
For chaos tests that need the
faults to travel *into worker processes*, :class:`FaultyObjective` wraps
any picklable objective and deterministically picks failing/hanging
points by hashing the parameter vector — the same point misbehaves the
same way in every process, so runs are reproducible.

The exit codes are distinct so tests can assert the worker died at the
intended point and not by accident.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import time
from collections.abc import Callable, Mapping

from repro.core.faults import TransientEvaluationError, point_token

__all__ = ["FaultInjector", "FaultyObjective", "KILLED_ON_CLAIM", "DIED_IN_PUBLISH"]

Objective = Callable[[dict[str, float]], float]

#: exit status of a worker killed by ``kill_after_claims``
KILLED_ON_CLAIM = 43
#: exit status of a worker killed by ``drop_publish``
DIED_IN_PUBLISH = 44


class FaultInjector:
    """Injects failures at exact points of the worker loop."""

    def __init__(
        self,
        kill_after_claims: int = 0,
        drop_publish: int = 0,
        publish_delay: float = 0.0,
        raise_every_evals: int = 0,
        hang_on_eval: int = 0,
        hang_seconds: float = 3600.0,
    ) -> None:
        self.kill_after_claims = int(kill_after_claims)
        self.drop_publish = int(drop_publish)
        self.publish_delay = float(publish_delay)
        self.raise_every_evals = int(raise_every_evals)
        self.hang_on_eval = int(hang_on_eval)
        self.hang_seconds = float(hang_seconds)
        self.claims = 0
        self.publishes = 0

    def on_claim(self) -> None:
        """Called right after each successful store claim."""
        self.claims += 1
        if self.kill_after_claims and self.claims >= self.kill_after_claims:
            os._exit(KILLED_ON_CLAIM)

    def wrap(self, objective: Objective) -> Objective:
        """``objective`` with this injector's evaluate-time faults.

        ``raise_every_evals=N`` raises a
        :class:`~repro.core.faults.TransientEvaluationError` on every Nth
        evaluation; ``hang_on_eval=N`` blocks the Nth evaluation for
        ``hang_seconds`` (long enough that only a timeout can recover it).
        Evaluations are counted per process.
        """
        if not (self.raise_every_evals or self.hang_on_eval):
            return objective
        return functools.partial(_faulted, self, objective)

    def on_publish(self) -> None:
        """Called after evaluation, before the store put + HTTP publish."""
        self.publishes += 1
        if self.publish_delay > 0:
            time.sleep(self.publish_delay)
        if self.drop_publish and self.publishes >= self.drop_publish:
            os._exit(DIED_IN_PUBLISH)


#: this process's evaluations under an injector: a pool process unpickles
#: a fresh copy of its objective for every task, so the count lives here
_EVALUATIONS = itertools.count(1)


def _faulted(fault: FaultInjector, objective: Objective, values: dict[str, float]) -> float:
    count = next(_EVALUATIONS)
    if fault.hang_on_eval and count == fault.hang_on_eval:
        time.sleep(fault.hang_seconds)
    if fault.raise_every_evals and count % fault.raise_every_evals == 0:
        raise TransientEvaluationError(f"injected transient fault on evaluation #{count}")
    return objective(values)


class FaultyObjective:
    """A picklable objective wrapper that injects point-addressed faults.

    Faults are chosen by hashing the canonical parameter vector (plus
    ``salt``), so *which* points misbehave is a pure function of the
    point — stable across processes, drivers and reruns, which is what
    makes chaos tests assert exact outcomes.  The unit interval of hash
    buckets is split so failing and hanging points never overlap:
    ``fail_fraction`` claims the bottom of the range, ``hang_fraction``
    the top.

    ``fail_attempts`` controls how many times a failing point raises
    before succeeding (per wrapper instance — a process-pool worker's
    copy counts its own attempts, which is exactly what in-worker retry
    needs).  Hanging points hang on *every* attempt; only a timeout can
    get past them.
    """

    _BUCKETS = 1000

    def __init__(
        self,
        function: Callable[[dict[str, float]], float],
        fail_fraction: float = 0.0,
        fail_attempts: int = 1,
        hang_fraction: float = 0.0,
        hang_seconds: float = 600.0,
        salt: int = 0,
    ) -> None:
        if fail_fraction + hang_fraction > 1.0:
            raise ValueError("fail_fraction + hang_fraction must not exceed 1")
        self.function = function
        self.fail_fraction = float(fail_fraction)
        self.fail_attempts = int(fail_attempts)
        self.hang_fraction = float(hang_fraction)
        self.hang_seconds = float(hang_seconds)
        self.salt = int(salt)
        #: per-point attempt counts (instance-local, not shipped back)
        self._attempts: dict[str, int] = {}

    def _bucket(self, token: str) -> int:
        digest = hashlib.sha256(f"{self.salt}|{token}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self._BUCKETS

    def is_hanging_point(self, values: Mapping[str, float]) -> bool:
        """Would this point hang? (for tests asserting the chaos layout)"""
        return self._bucket(point_token(values)) >= self._BUCKETS - int(
            self.hang_fraction * self._BUCKETS
        )

    def is_failing_point(self, values: Mapping[str, float]) -> bool:
        """Would this point raise transient errors first?"""
        return self._bucket(point_token(values)) < int(self.fail_fraction * self._BUCKETS)

    def __call__(self, values: dict[str, float]) -> float:
        token = point_token(values)
        bucket = self._bucket(token)
        if bucket >= self._BUCKETS - int(self.hang_fraction * self._BUCKETS):
            time.sleep(self.hang_seconds)
        if bucket < int(self.fail_fraction * self._BUCKETS):
            attempt = self._attempts.get(token, 0) + 1
            self._attempts[token] = attempt
            if attempt <= self.fail_attempts:
                raise TransientEvaluationError(
                    f"injected transient fault (attempt {attempt}) at {token}"
                )
        return self.function(values)
