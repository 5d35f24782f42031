"""Bridging :class:`~repro.service.store.EvaluationStore` into the
calibration drivers' evaluation cache.

:class:`StoreBackedCache` implements the
:class:`~repro.core.evaluation.CacheBackend` interface on top of a shared
store, bound to one scenario fingerprint, so it slots into any
:class:`~repro.core.calibrator.Calibrator`,
:class:`~repro.core.parallel.BatchCalibrator` or
:class:`~repro.core.async_driver.AsyncCalibrator` without touching
algorithm code.

Single-flight deduplication of in-flight evaluations is built on the
store's non-blocking claim/lease protocol
(:meth:`~repro.service.store.EvaluationStore.claim`): when several
concurrent jobs — threads of one server, or separate processes over a
SQLite store — reach the same not-yet-stored point, exactly one claims it
and computes; the others see a *lease*, keep dispatching other work and
re-:meth:`~StoreBackedCache.claim` the point later.  A leader that fails
releases its lease, so the next re-claim takes the computation over at
once; leases also expire, so a leader that dies without publishing or
cancelling can only stall its points for the lease TTL.  Nothing ever
blocks inside the cache — there is no hold-and-wait and therefore no
deadlock, even for drivers holding many candidates in flight.
"""

from __future__ import annotations

import uuid
from collections.abc import Mapping

from repro.core.evaluation import CacheBackend, Claim
from repro.core.faults import EvaluationFailure
from repro.service.store import DEFAULT_LEASE_TTL, EvaluationStore, StoreClaim, StoredFailure

__all__ = ["JobCache", "StoreBackedCache"]


class JobCache(CacheBackend):
    """A cache a server job runs against: any
    :class:`~repro.core.evaluation.CacheBackend` that additionally counts
    first-seen store hits in ``hits`` for the job report.  The server's
    ``_make_cache`` template hook returns one; the fleet server swaps in
    a read-only variant that never takes leases."""

    hits: int = 0


class StoreBackedCache(JobCache):
    """A shared-store cache backend for one scenario fingerprint.

    Parameters
    ----------
    store:
        The shared evaluation store (any backend).
    fingerprint:
        Scenario fingerprint identifying the objective; see
        :func:`repro.hepsim.calibration.scenario_fingerprint`.
    lease_ttl:
        Seconds before an unpublished claim can be taken over by another
        owner.  Make it comfortably longer than one simulator invocation.

    Thread/process-safety: every method is a single atomic store call, and
    independent instances over the same
    SQLite store file deduplicate across processes.  The single-flight
    *owner* identity is per-instance and re-entrant (re-claiming renews
    the lease), so bind **one instance per driver/job** — the server does
    exactly this.  Two threads claiming the same point through one shared
    instance would both be treated as the leader renewing its own lease
    and both would compute.
    """

    def __init__(
        self,
        store: EvaluationStore,
        fingerprint: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.store = store
        self.fingerprint = fingerprint
        self.lease_ttl = float(lease_ttl)
        self.owner = uuid.uuid4().hex
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    # CacheBackend interface
    # ------------------------------------------------------------------ #
    def get(self, key, values: Mapping[str, float]) -> float | None:
        """Plain store lookup: never waits, never announces a computation."""
        stored = self.store.get(self.fingerprint, values)
        if stored is not None:
            self.hits += 1
            return stored
        self.misses += 1
        return None

    def put(self, key, values: Mapping[str, float], value: float) -> None:
        self.store.put(self.fingerprint, values, value)  # also drops the lease

    def cancel(self, key, values: Mapping[str, float]) -> None:
        self.store.release(self.fingerprint, values, self.owner)

    def claim(self, key, values: Mapping[str, float]) -> Claim:
        """Non-blocking single-flight claim (see :class:`Claim`): one owner
        computes each missing point and the others see its lease, so
        :meth:`claim` never waits and the driver keeps its workers busy
        elsewhere."""
        outcome = self.store.claim(self.fingerprint, values, self.owner, ttl=self.lease_ttl)
        if outcome.status == StoreClaim.HIT:
            self.hits += 1
            return Claim(Claim.HIT, outcome.value)
        if outcome.status == StoreClaim.CLAIMED:
            self.misses += 1
            return Claim(Claim.CLAIMED)
        if outcome.status == StoreClaim.QUARANTINED and outcome.failure is not None:
            return Claim(Claim.QUARANTINED, failure=_to_core_failure(outcome.failure))
        return Claim(Claim.LEASED, expires_at=outcome.expires_at)

    # ------------------------------------------------------------------ #
    # CacheBackend interface: failure quarantine
    # ------------------------------------------------------------------ #
    def mark_failed(self, key, values: Mapping[str, float], failure: EvaluationFailure) -> None:
        """Quarantine the point in the shared store (releases its lease, so
        concurrent drivers deferring behind it learn the failure at their
        next re-claim instead of waiting out the TTL)."""
        self.store.record_failure(
            self.fingerprint,
            values,
            failure.error,
            kind=failure.kind,
            attempts=failure.attempts,
        )

    def get_failure(self, key, values: Mapping[str, float]) -> EvaluationFailure | None:
        stored = self.store.get_failure(self.fingerprint, values)
        return None if stored is None else _to_core_failure(stored)


def _to_core_failure(stored: StoredFailure) -> EvaluationFailure:
    """Map a store-layer quarantine record to the core failure type."""
    return EvaluationFailure(
        error=stored.error, kind=stored.kind, attempts=stored.attempts
    )
