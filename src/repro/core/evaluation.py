"""The evaluation-cache contract shared by every calibration driver.

Algorithms never call the user's simulator directly: the one evaluation
loop (:class:`~repro.core.async_driver.AsyncCalibrator`, which
:class:`~repro.core.calibrator.Calibrator` and
:class:`~repro.core.parallel.BatchCalibrator` subclass) claims each
candidate through a :class:`CacheBackend` before dispatching it, so
re-visited points (e.g. shared grid corners) do not consume budget and
in-flight work is shared between concurrent drivers.

By default the cache is a per-run in-memory dictionary
(:class:`DictCache`), but any :class:`CacheBackend` can be supplied —
notably the store-backed cache of :mod:`repro.service`, which shares
evaluations across calibration jobs and across processes.  Every
component that shares a cache builds its keys with
:func:`unit_cache_key` at :data:`CACHE_DECIMALS`.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Mapping

import numpy as np

from repro.core.faults import EvaluationFailure
from repro.core.history import Evaluation

__all__ = [
    "CACHE_DECIMALS",
    "CacheBackend",
    "Claim",
    "DictCache",
    "Evaluation",
    "LEASE_RETRY_SECONDS",
    "lease_deadline",
    "unit_cache_key",
]

CacheKey = tuple[float, ...]

#: number of decimals used for the cache key in unit coordinates
CACHE_DECIMALS = 9

#: How long (seconds) to treat a lease whose backend reported no expiry
#: timestamp as live before re-checking it.  Short on purpose: a backend
#: that tracks no expiry gives no signal to wait on, so callers re-check
#: at this cadence and rely on claim-takeover for crash recovery.
LEASE_RETRY_SECONDS = 1.0


def lease_deadline(expires_at: float | None, ttl: float = LEASE_RETRY_SECONDS) -> float:
    """The wall-clock deadline to treat a lease as settled-or-stale.

    Backends that track leases report ``Claim.expires_at``; backends that
    don't report ``None``, and every driver must fall back to the *same*
    short retry horizon (``now + ttl``) or they disagree on when a lease
    is worth re-polling.  This helper is the single home of that policy —
    write ``lease_deadline(claim.expires_at)`` instead of an inline
    ``claim.expires_at or (time.time() + 1.0)``.
    """
    if expires_at is not None:
        return expires_at
    return time.time() + ttl


def unit_cache_key(unit: np.ndarray, decimals: int) -> CacheKey:
    """The canonical cache key for a unit-cube point.

    Every component that shares a cache (the drivers, the service's store
    adapter) must build keys through this one function, or entries
    written by one stop matching lookups from another.  The key holds
    plain Python floats, which compare and hash like the rounded
    ``np.float64`` values and cost less to build and to look up.
    """
    return tuple(np.round(unit, decimals).tolist())


@dataclasses.dataclass(frozen=True)
class Claim:
    """Outcome of a non-blocking single-flight :meth:`CacheBackend.claim`.

    ``status`` is one of

    ``"hit"``
        The value is already known; ``value`` carries it, nothing to
        compute.
    ``"claimed"``
        The caller now owns the computation of this point and *must*
        finish the claim with :meth:`CacheBackend.put` (on success) or
        :meth:`CacheBackend.cancel` (on failure) — leaking a claim stalls
        every other driver on the point until the lease expires.
    ``"leased"``
        Another owner is computing the point right now.  The caller
        should do other work and re-``claim`` the point later;
        ``expires_at`` (a ``time.time()`` timestamp, when the backend
        tracks one) bounds how long the lease can stay unresolved before
        a re-``claim`` takes it over.  A released lease (the owner
        cancelled) is taken over by the next re-``claim`` at once.
    ``"quarantined"``
        The point is recorded as a known failure (a poison point):
        ``failure`` carries the recorded
        :class:`~repro.core.faults.EvaluationFailure`.  The caller must
        not evaluate it — apply the failure policy (penalty or raise)
        instead of waiting out a lease that will never resolve.
    """

    status: str
    value: float | None = None
    expires_at: float | None = None
    failure: EvaluationFailure | None = None

    HIT = "hit"
    CLAIMED = "claimed"
    LEASED = "leased"
    QUARANTINED = "quarantined"


class CacheBackend:
    """Interface for pluggable evaluation caches.

    ``key`` is the objective's canonical unit-cube key (a tuple of rounded
    normalised coordinates); ``values`` is the raw parameter-value mapping.
    Backends are free to key on either representation.

    Contract and concurrency guarantees:

    * ``get``/``put``/``cancel`` is the classic memoisation triple.
      ``get`` is a plain lookup that never blocks and never announces a
      computation; ``cancel`` is called when a claimed computation will
      not be completed (the simulator raised, or the run aborted), so
      leasing backends can release the point to other drivers.
    * ``claim`` is the *non-blocking* single-flight protocol every driver
      speaks: it returns immediately with a :class:`Claim` (hit / claimed
      / leased / quarantined).  A driver holding a leased point simply
      claims it again later — the answer is then the published value,
      the failure record, a takeover of a released or expired lease, or
      still leased.  ``poll`` checks, without claiming anything, whether
      a point has been published.  The default implementations make any
      plain backend trivially correct: a miss is always ``"claimed"`` (no
      cross-driver leasing) and ``poll`` delegates to ``get``.

    Thread-safety: backends shared between drivers (the service's
    store-backed cache) must make each method atomic; the per-run
    :class:`DictCache` is only touched by its owning driver thread.
    """

    def get(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        raise NotImplementedError  # pragma: no cover - interface

    def put(self, key: CacheKey, values: Mapping[str, float], value: float) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def cancel(self, key: CacheKey, values: Mapping[str, float]) -> None:
        """Called when a computation announced by a ``claim`` ->
        ``"claimed"`` will not be completed; releases its lease."""

    def mark_failed(
        self, key: CacheKey, values: Mapping[str, float], failure: EvaluationFailure
    ) -> None:
        """Quarantine a poison point: record that evaluating it failed
        permanently, so this run and any other run sharing the backend
        skip it instead of re-evaluating (or waiting on a lease for) it.
        The default merely releases the lease like :meth:`cancel`; backends
        with persistence (the store-backed cache) record the failure."""
        self.cancel(key, values)

    def get_failure(
        self, key: CacheKey, values: Mapping[str, float]
    ) -> EvaluationFailure | None:
        """The recorded failure for a quarantined point, or ``None``."""
        return None

    def claim(self, key: CacheKey, values: Mapping[str, float]) -> Claim:
        """Non-blocking single-flight lookup (see the class docstring).

        The default implementation never reports ``"leased"``: backends
        without cross-driver visibility simply hand the computation to the
        caller on a miss.  Leasing backends override it
        (:class:`repro.service.cache.StoreBackedCache` is the reference
        implementation).
        """
        value = self.get(key, values)
        if value is not None:
            return Claim(Claim.HIT, value)
        failure = self.get_failure(key, values)
        if failure is not None:
            return Claim(Claim.QUARANTINED, failure=failure)
        return Claim(Claim.CLAIMED)

    def poll(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        """Check whether a point has been published (never blocks, never
        claims): a :meth:`get`, so a returned value counts as a hit."""
        return self.get(key, values)


class DictCache(CacheBackend):
    """The default per-run cache: a plain dictionary on the unit key."""

    def __init__(self) -> None:
        self._data: dict[CacheKey, float] = {}
        self._failures: dict[CacheKey, EvaluationFailure] = {}

    def get(self, key: CacheKey, values: Mapping[str, float]) -> float | None:
        return self._data.get(key)

    def put(self, key: CacheKey, values: Mapping[str, float], value: float) -> None:
        self._data[key] = value
        # A later success un-quarantines the point (e.g. a transient
        # environment problem cleared up and a retry path landed a value).
        self._failures.pop(key, None)

    def mark_failed(
        self, key: CacheKey, values: Mapping[str, float], failure: EvaluationFailure
    ) -> None:
        self._failures[key] = failure

    def get_failure(
        self, key: CacheKey, values: Mapping[str, float]
    ) -> EvaluationFailure | None:
        return self._failures.get(key)

    def __len__(self) -> int:
        return len(self._data)
