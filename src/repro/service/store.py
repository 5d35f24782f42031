"""Persistent, content-addressed store of simulation evaluations.

A calibration spends essentially all of its time inside the simulator, so
evaluations are worth keeping beyond the lifetime of one
:class:`~repro.core.calibrator.Calibrator`: a service that re-calibrates
the same scenario (new algorithm, new budget, new seed, or simply a
repeated request) can answer most of its simulator invocations from the
work already paid for by earlier jobs.

Entries are keyed by ``(scenario fingerprint, canonicalized parameter
vector)``:

* the *fingerprint* identifies the objective — for the case study it
  hashes the scenario (platform, workload, granularity, ICD grid) and the
  accuracy metric, see
  :func:`repro.hepsim.calibration.scenario_fingerprint`;
* the *parameter vector* is canonicalized (sorted names, values coerced to
  ``float`` and rendered with ``repr``) so that logically equal inputs —
  different dict insertion orders, ``4`` vs ``4.0`` — map to the same key.

Three backends are provided: :class:`InMemoryStore` (a dict),
:class:`JsonlStore` (append-only JSON Lines, human-greppable) and
:class:`SqliteStore` (cross-process safe).  All are safe under concurrent
writers within a process; SQLite additionally serialises concurrent
writer *processes*.

Beyond finished results, the store also tracks *in-flight* work through a
claim/lease protocol (:meth:`EvaluationStore.claim` /
:meth:`EvaluationStore.release`): a driver about to compute a point first
claims it, which either returns the stored value (``hit``), grants the
claim (``claimed`` — the caller computes and must :meth:`~EvaluationStore.put`
or :meth:`~EvaluationStore.release`), or reports that another owner holds
an unexpired lease (``leased`` — the caller polls for the published value
instead of recomputing).  Leases expire after a TTL so a crashed owner
can never stall other drivers; the whole protocol is non-blocking, which
is what lets batch and asynchronous drivers — holding many candidates in
flight at once — deduplicate work across jobs and across processes
without the hold-and-wait deadlocks of a blocking single-flight design.
Lease state is kept in memory for :class:`InMemoryStore` and
:class:`JsonlStore` (cross-job dedupe within one server process) and in a
``leases`` table for :class:`SqliteStore` (cross-process dedupe).

Evaluation *failures* are first-class records too: when a point fails
deterministically (or exhausts its retries), :meth:`EvaluationStore.record_failure`
quarantines it — subsequent :meth:`~EvaluationStore.claim` calls return
``"quarantined"`` with the stored diagnosis instead of granting the
computation, so resumed and concurrent jobs skip known-bad points instead
of re-failing on them.  Recording a failure also *releases* the point's
lease immediately (rather than letting it expire), so drivers deferring
behind the lease observe the failure at their next poll instead of
waiting out the TTL.  A later successful :meth:`~EvaluationStore.put`
clears the quarantine (transient infrastructure faults heal).  See
``docs/robustness.md`` for the full failure model.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import sqlite3
import threading
import time
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping

from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

_log = logging.getLogger("repro.service.store")

__all__ = [
    "StoredEvaluation",
    "StoredFailure",
    "StoreClaim",
    "EvaluationStore",
    "InMemoryStore",
    "JsonlStore",
    "SqliteStore",
    "canonical_params",
    "evaluation_key",
    "open_store",
]

#: default lease time-to-live, in seconds: long enough for one simulator
#: invocation, short enough that a crashed owner only stalls its points
#: briefly before others take them over
DEFAULT_LEASE_TTL = 300.0

#: HELP strings for the store-level metrics (labelled by backend class)
_METRIC_HELP = {
    "repro_store_hits_total": "Store lookups/claims answered from a stored evaluation.",
    "repro_store_misses_total": "Store lookups/claims that found no stored evaluation.",
    "repro_store_puts_total": "Evaluations published into the store.",
    "repro_store_lease_conflicts_total": (
        "Claims that found an unexpired lease held by another owner "
        "(single-flight contention)."
    ),
    "repro_store_failures_total": (
        "Evaluation failures recorded into the store (points quarantined)."
    ),
}


def _read_jsonl_tolerant(path: Path, label: str) -> list[dict[str, object]]:
    """Parse a JSON Lines file, tolerating one truncated *final* line.

    A crash mid-append leaves at most one partial record at the end of an
    append-only log; that trailing fragment is dropped with a warning so a
    restarted process keeps the work already persisted.  Corruption
    anywhere *before* the final line is not a crash signature — it still
    raises, because silently skipping interior records would un-publish
    evaluations other jobs may have already observed.
    """
    with path.open() as handle:
        lines = handle.readlines()
    last = len(lines) - 1
    records: list[dict[str, object]] = []
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as error:
            if index == last:
                _log.warning(
                    "%s: dropping truncated final line of %s (%s)", label, path, error
                )
                break
            raise ValueError(
                f"corrupt {label} record at {path}:{index + 1}: {error}"
            ) from error
        records.append(data)
    return records


def canonical_params(values: Mapping[str, float]) -> tuple[tuple[str, float], ...]:
    """Canonicalize a parameter-value mapping: sorted names, float values."""
    return tuple(sorted((str(name), float(value)) for name, value in values.items()))


def evaluation_key(fingerprint: str, values: Mapping[str, float]) -> str:
    """The content address of one evaluation.

    ``repr(float(v))`` is the shortest string that round-trips the IEEE-754
    double exactly, so two parameter dictionaries produce the same key iff
    they denote the same point (regardless of dict ordering or int-vs-float
    spelling).
    """
    payload = fingerprint + "|" + ",".join(
        f"{name}={float(value)!r}" for name, value in canonical_params(values)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class StoredEvaluation:
    """One stored (scenario, parameter vector) -> objective value record."""

    key: str
    fingerprint: str
    values: dict[str, float]
    value: float
    created_at: float

    def to_dict(self) -> dict[str, object]:
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "values": dict(self.values),
            "value": self.value,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> StoredEvaluation:
        return StoredEvaluation(
            key=str(data["key"]),
            fingerprint=str(data["fingerprint"]),
            values={k: float(v) for k, v in dict(data["values"]).items()},
            value=float(data["value"]),
            created_at=float(data.get("created_at", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class StoredFailure:
    """One quarantined (scenario, parameter vector) -> failure record.

    ``kind`` mirrors :mod:`repro.core.faults` — ``"transient"``,
    ``"deterministic"`` or ``"timeout"`` — and ``attempts`` is how many
    times the recording driver tried the point before giving up.
    """

    key: str
    fingerprint: str
    values: dict[str, float]
    error: str
    kind: str = "deterministic"
    attempts: int = 1
    created_at: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "key": self.key,
            "fingerprint": self.fingerprint,
            "values": dict(self.values),
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
            "created_at": self.created_at,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> StoredFailure:
        return StoredFailure(
            key=str(data["key"]),
            fingerprint=str(data["fingerprint"]),
            values={k: float(v) for k, v in dict(data["values"]).items()},
            error=str(data.get("error", "")),
            kind=str(data.get("kind", "deterministic")),
            attempts=int(data.get("attempts", 1)),
            created_at=float(data.get("created_at", 0.0)),
        )


@dataclasses.dataclass(frozen=True)
class StoreClaim:
    """Outcome of :meth:`EvaluationStore.claim` — see the module docstring.

    ``status`` is ``"hit"`` (``value`` carries the stored result),
    ``"claimed"`` (the caller owns the computation), ``"leased"``
    (``owner``/``expires_at`` describe the concurrent computation to poll
    for) or ``"quarantined"`` (``failure`` carries the recorded failure —
    the point is known-bad and should not be recomputed).
    """

    status: str
    value: float | None = None
    owner: str | None = None
    expires_at: float | None = None
    failure: StoredFailure | None = None

    HIT = "hit"
    CLAIMED = "claimed"
    LEASED = "leased"
    QUARANTINED = "quarantined"


class EvaluationStore:
    """Base class: thread-safe keyed access plus hit/miss accounting.

    Subclasses implement ``_load_entry``/``_save_entry`` (and optionally
    ``_iter_entries`` and the ``_*_lease`` hooks); all locking and
    statistics live here.  Every public method is atomic under the store
    lock, so a store instance can be shared by any number of jobs/threads
    within a process; whether two *processes* can share a store depends on
    the backend (SQLite yes, JSONL only via :meth:`JsonlStore.reload`,
    in-memory no).

    Hooks never commit; public methods own the transaction: every
    mutating protocol step (:meth:`put`, :meth:`record_failure`,
    :meth:`clear_failure`, :meth:`release`, the miss path of
    :meth:`claim`) runs its hooks inside one :meth:`_transaction`, so a
    step is published to other processes whole or not at all.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: claims that found an unexpired lease held by a different owner —
        #: the single-flight protocol's contention signal
        self.lease_conflicts = 0
        #: failures recorded via :meth:`record_failure` (quarantine events)
        self.failures_recorded = 0
        #: default in-memory lease table (overridden by SqliteStore):
        #: key -> (owner, expires_at)
        self._leases: dict[str, tuple[str, float]] = {}
        #: default in-memory failure-quarantine table (JsonlStore persists
        #: it to a sidecar file, SqliteStore to a table)
        self._failures: dict[str, StoredFailure] = {}

    # -- backend interface --------------------------------------------- #
    def _transaction(self) -> contextlib.AbstractContextManager[object]:
        """Context manager around one mutating protocol step.

        The store lock and nothing else here; a backend shared between
        *processes* (SQLite) also holds its write lock for the duration
        and commits on exit, rolling back if the step raised.
        """
        return self._lock

    def _load_entry(self, key: str) -> StoredEvaluation | None:
        raise NotImplementedError  # pragma: no cover - interface

    def _save_entry(self, entry: StoredEvaluation) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def _iter_entries(self) -> Iterable[StoredEvaluation]:
        raise NotImplementedError  # pragma: no cover - interface

    def _count_entries(self) -> int:
        return sum(1 for _ in self._iter_entries())

    # -- lease backend (in-memory default; SqliteStore overrides) ------- #
    def _load_lease(self, key: str) -> tuple[str, float] | None:
        return self._leases.get(key)

    def _save_lease(self, key: str, owner: str, expires_at: float) -> None:
        self._leases[key] = (owner, expires_at)

    def _drop_lease(self, key: str) -> None:
        self._leases.pop(key, None)

    def _try_acquire_lease(
        self, key: str, owner: str, now: float, expires_at: float
    ) -> tuple[str, float] | None:
        """Atomically acquire (or renew) the lease on ``key`` for ``owner``.

        Returns ``None`` on success, or the blocking ``(owner,
        expires_at)`` lease held by someone else.  The read-then-write is
        atomic because :meth:`claim` calls it inside :meth:`_transaction`.
        """
        lease = self._load_lease(key)
        if lease is not None and lease[0] != owner and lease[1] > now:
            return lease
        self._save_lease(key, owner, expires_at)
        return None

    def _release_lease(self, key: str, owner: str) -> None:
        """Drop ``owner``'s lease on ``key`` (a no-op if someone else holds
        it); called inside :meth:`_transaction` like :meth:`_try_acquire_lease`."""
        lease = self._load_lease(key)
        if lease is not None and lease[0] == owner:
            self._drop_lease(key)

    # -- failure backend (in-memory default; Jsonl/Sqlite override) ------ #
    def _load_failure(self, key: str) -> StoredFailure | None:
        return self._failures.get(key)

    def _save_failure(self, failure: StoredFailure) -> None:
        self._failures[failure.key] = failure

    def _drop_failure(self, key: str) -> None:
        self._failures.pop(key, None)

    def _iter_failures(self) -> Iterable[StoredFailure]:
        return list(self._failures.values())

    def _count_failures(self) -> int:
        return len(self._failures)

    # -- public API ---------------------------------------------------- #
    def get(self, fingerprint: str, values: Mapping[str, float]) -> float | None:
        """Look up the objective value for a (scenario, point), or ``None``."""
        key = evaluation_key(fingerprint, values)
        with self._lock:
            entry = self._load_entry(key)
            if entry is None:
                self.misses += 1
                self._count("repro_store_misses_total")
                return None
            self.hits += 1
            self._count("repro_store_hits_total")
            return entry.value

    def peek(self, fingerprint: str, values: Mapping[str, float]) -> float | None:
        """Like :meth:`get`, but without hit/miss accounting — used by
        drivers polling for a point another owner is computing, so a tight
        poll loop does not distort the store statistics."""
        with self._lock:
            entry = self._load_entry(evaluation_key(fingerprint, values))
            return None if entry is None else entry.value

    def put(self, fingerprint: str, values: Mapping[str, float], value: float) -> StoredEvaluation:
        """Record one evaluation (idempotent: re-puts overwrite equal keys)."""
        key = evaluation_key(fingerprint, values)
        entry = StoredEvaluation(
            key=key,
            fingerprint=fingerprint,
            values={str(k): float(v) for k, v in values.items()},
            value=float(value),
            created_at=time.time(),
        )
        with self._transaction():
            self._save_entry(entry)
            self._drop_lease(key)  # publishing a value finishes its claim
            self._drop_failure(key)  # a success un-quarantines the point
            self.puts += 1
            self._count("repro_store_puts_total")
        return entry

    # -- failure quarantine -------------------------------------------- #
    def record_failure(
        self,
        fingerprint: str,
        values: Mapping[str, float],
        error: str,
        kind: str = "deterministic",
        attempts: int = 1,
    ) -> StoredFailure:
        """Quarantine one point: record its failure and release its lease.

        The lease is *released*, not waited out — any driver deferring
        behind it sees the point free at its next poll and (if it checks
        :meth:`get_failure` or re-:meth:`claim`\\ s) learns the diagnosis
        instead of recomputing a known-bad point.  Idempotent: re-recording
        overwrites equal keys with the newest diagnosis.
        """
        key = evaluation_key(fingerprint, values)
        failure = StoredFailure(
            key=key,
            fingerprint=fingerprint,
            values={str(k): float(v) for k, v in values.items()},
            error=str(error),
            kind=str(kind),
            attempts=int(attempts),
            created_at=time.time(),
        )
        with self._transaction():
            self._save_failure(failure)
            self._drop_lease(key)
            self.failures_recorded += 1
            self._count("repro_store_failures_total")
        return failure

    def get_failure(self, fingerprint: str, values: Mapping[str, float]) -> StoredFailure | None:
        """The quarantine record for a point, or ``None`` (no hit/miss
        accounting — callers poll this alongside :meth:`peek`)."""
        with self._lock:
            return self._load_failure(evaluation_key(fingerprint, values))

    def clear_failure(self, fingerprint: str, values: Mapping[str, float]) -> None:
        """Lift a point's quarantine (e.g. after the faulty dependency is
        fixed) so the next claim recomputes it."""
        with self._transaction():
            self._drop_failure(evaluation_key(fingerprint, values))

    def failure_count(self) -> int:
        """Number of currently quarantined points."""
        with self._lock:
            return self._count_failures()

    def failures(self, fingerprint: str | None = None) -> list[StoredFailure]:
        """All quarantine records, optionally restricted to one scenario."""
        with self._lock:
            return [
                f for f in self._iter_failures()
                if fingerprint is None or f.fingerprint == fingerprint
            ]

    # -- claim/lease protocol ------------------------------------------ #
    def claim(
        self,
        fingerprint: str,
        values: Mapping[str, float],
        owner: str,
        ttl: float = DEFAULT_LEASE_TTL,
    ) -> StoreClaim:
        """Atomically claim the computation of one point (never blocks).

        * stored already -> ``hit`` with the value;
        * quarantined -> ``quarantined`` with the recorded failure (the
          caller should treat the point as failed, not recompute it);
        * unexpired lease held by a *different* owner -> ``leased``
          (re-``claim`` later: that answers with the published value, the
          failure record, or the computation once the lease is released
          or past ``expires_at``);
        * otherwise -> ``claimed``: a lease for ``owner`` is written
          (re-claiming one's own point renews the lease) and the caller
          must finish it with :meth:`put` or :meth:`release`.

        A ``hit`` is answered from a plain read and takes no write lock.
        """
        key = evaluation_key(fingerprint, values)
        now = time.time()
        with self._lock:
            entry = self._load_entry(key)
            if entry is None:
                with self._transaction():
                    # Re-read under the write lock: another process may
                    # have published the point and dropped its lease
                    # between the read above and this transaction, and a
                    # stored point must never be claimed again.
                    entry = self._load_entry(key)
                    if entry is None:
                        return self._claim_missing(key, owner, now, now + float(ttl))
            self.hits += 1
            self._count("repro_store_hits_total")
            return StoreClaim(StoreClaim.HIT, value=entry.value)

    def _claim_missing(self, key: str, owner: str, now: float, expires_at: float) -> StoreClaim:
        """The miss path of :meth:`claim`; runs inside its transaction."""
        known = self._load_failure(key)
        if known is not None:
            return StoreClaim(StoreClaim.QUARANTINED, failure=known)
        blocker = self._try_acquire_lease(key, owner, now, expires_at)
        if blocker is not None:
            self.lease_conflicts += 1
            self._count("repro_store_lease_conflicts_total")
            return StoreClaim(StoreClaim.LEASED, owner=blocker[0], expires_at=blocker[1])
        self.misses += 1
        self._count("repro_store_misses_total")
        return StoreClaim(StoreClaim.CLAIMED)

    def release(self, fingerprint: str, values: Mapping[str, float], owner: str) -> None:
        """Abandon a claim (the computation failed or will never run).

        Only the lease's owner can release it; a stale release from an
        owner whose lease already expired and was taken over is a no-op.
        """
        key = evaluation_key(fingerprint, values)
        with self._transaction():
            self._release_lease(key, owner)

    def lease_count(self) -> int:
        """Number of live (possibly expired, not yet reaped) leases."""
        with self._lock:
            return self._count_leases()

    def _count_leases(self) -> int:
        return len(self._leases)

    def _iter_leases(self) -> Iterable[tuple[str, str, float]]:
        """All ``(key, owner, expires_at)`` lease rows (including expired
        ones not yet reaped); overridden by backends with external lease
        state."""
        return [(key, owner, expires_at) for key, (owner, expires_at) in self._leases.items()]

    def active_leases(self, now: float | None = None) -> list[dict[str, object]]:
        """The unexpired leases — evaluations currently being computed.

        Returns ``{"key", "owner", "expires_at"}`` dictionaries sorted by
        expiry (soonest first), the in-flight work ``repro status`` shows
        next to the finished-evaluation counts.
        """
        cutoff = time.time() if now is None else float(now)
        with self._lock:
            rows = list(self._iter_leases())
        live = [
            {"key": key, "owner": owner, "expires_at": expires_at}
            for key, owner, expires_at in rows
            if expires_at > cutoff
        ]
        live.sort(key=lambda lease: lease["expires_at"])
        return live

    def __contains__(self, item: tuple[str, Mapping[str, float]]) -> bool:
        fingerprint, values = item
        with self._lock:
            return self._load_entry(evaluation_key(fingerprint, values)) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._count_entries()

    def entries(self, fingerprint: str | None = None) -> list[StoredEvaluation]:
        """All stored evaluations, optionally restricted to one scenario."""
        with self._lock:
            return [
                e for e in self._iter_entries()
                if fingerprint is None or e.fingerprint == fingerprint
            ]

    def fingerprints(self) -> list[str]:
        """The distinct scenario fingerprints present in the store."""
        with self._lock:
            return sorted({e.fingerprint for e in self._iter_entries()})

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": self._count_entries(),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "lease_conflicts": self.lease_conflicts,
                "failures": self._count_failures(),
            }

    def _count(self, name: str) -> None:
        """Mirror one store event into the process-wide metrics registry
        (free when telemetry is disabled — a single boolean check)."""
        if _REGISTRY.enabled:
            _REGISTRY.counter(
                name, _METRIC_HELP[name], backend=type(self).__name__
            ).inc()

    def close(self) -> None:
        """Release any backend resources (file handles, connections)."""

    def __enter__(self) -> EvaluationStore:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class InMemoryStore(EvaluationStore):
    """Dict-backed store; shared across jobs within one process."""

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, StoredEvaluation] = {}

    def _load_entry(self, key: str) -> StoredEvaluation | None:
        return self._data.get(key)

    def _save_entry(self, entry: StoredEvaluation) -> None:
        self._data[entry.key] = entry

    def _iter_entries(self) -> Iterable[StoredEvaluation]:
        return list(self._data.values())

    def _count_entries(self) -> int:
        return len(self._data)


class JsonlStore(EvaluationStore):
    """Append-only JSON Lines store.

    Reads are served from an in-memory index; every put appends one line to
    the file, so the on-disk state is a log that can be tailed, grepped and
    concatenated.  ``reload()`` merges lines written by other processes
    since the file was last read; a truncated *final* line (the signature
    of a crash mid-append) is dropped with a warning instead of poisoning
    the whole store.

    Failure-quarantine records live in an append-only sidecar next to the
    main file (``<stem>.failures<suffix>``): recording appends the failure
    dict, clearing appends a ``{"key": ..., "cleared": true}`` tombstone,
    and reload folds the log in order.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: append-only quarantine log next to the main file
        self.failures_path = self.path.with_name(
            self.path.stem + ".failures" + self.path.suffix
        )
        self._data: dict[str, StoredEvaluation] = {}
        self.reload()

    def reload(self) -> int:
        """Re-read the files, merging records from concurrent writers.

        Returns the number of entries now indexed.
        """
        with self._lock:
            if self.path.exists():
                for data in _read_jsonl_tolerant(self.path, "evaluation store"):
                    entry = StoredEvaluation.from_dict(data)
                    self._data[entry.key] = entry
            if self.failures_path.exists():
                for data in _read_jsonl_tolerant(self.failures_path, "failure quarantine"):
                    if data.get("cleared"):
                        self._failures.pop(str(data["key"]), None)
                    else:
                        failure = StoredFailure.from_dict(data)
                        self._failures[failure.key] = failure
            # A published value beats a stale quarantine record regardless
            # of the order the two logs were read in.
            for key in list(self._failures):
                if key in self._data:
                    self._failures.pop(key)
            return len(self._data)

    def _load_entry(self, key: str) -> StoredEvaluation | None:
        return self._data.get(key)

    def _save_entry(self, entry: StoredEvaluation) -> None:
        self._data[entry.key] = entry
        # One line per entry, written in a single append so that concurrent
        # in-process writers (serialised by the store lock) and append-mode
        # writers in other processes never interleave partial lines.
        with self.path.open("a") as handle:
            handle.write(json.dumps(entry.to_dict()) + "\n")

    def _iter_entries(self) -> Iterable[StoredEvaluation]:
        return list(self._data.values())

    def _count_entries(self) -> int:
        return len(self._data)

    def _save_failure(self, failure: StoredFailure) -> None:
        self._failures[failure.key] = failure
        with self.failures_path.open("a") as handle:
            handle.write(json.dumps(failure.to_dict()) + "\n")

    def _drop_failure(self, key: str) -> None:
        # Only write a tombstone when the key was actually quarantined —
        # every put() drops failures, and successes must not bloat the log.
        if self._failures.pop(key, None) is not None:
            with self.failures_path.open("a") as handle:
                handle.write(json.dumps({"key": key, "cleared": True}) + "\n")


class SqliteStore(EvaluationStore):
    """SQLite-backed store; safe under concurrent writer processes."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False, timeout=30.0)
        # No lock here: nothing else can hold the connection during
        # construction, and SQLite's own busy timeout covers concurrent
        # *processes* creating the schema.
        #
        # Write-ahead log: a commit is one append and one fsync instead of
        # a rollback journal's create/sync/write/sync/delete chain.
        # ``synchronous`` stays at its default (FULL), so a commit that
        # returned is on disk.  A filesystem that refuses WAL makes SQLite
        # report the mode it kept; the store carries on in it.
        (mode,) = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
        if mode != "wal":
            _log.warning("%s: no write-ahead log here, journal_mode=%s", self.path, mode)
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS evaluations (
                key         TEXT PRIMARY KEY,
                fingerprint TEXT NOT NULL,
                params      TEXT NOT NULL,
                value       REAL NOT NULL,
                created_at  REAL NOT NULL
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_evaluations_fingerprint "
            "ON evaluations (fingerprint)"
        )
        # In-flight leases live in the database too, so the claim/lease
        # single-flight protocol deduplicates across *processes*.
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS leases (
                key        TEXT PRIMARY KEY,
                owner      TEXT NOT NULL,
                expires_at REAL NOT NULL
            )
            """
        )
        # Quarantined points share the database so concurrent calibration
        # *processes* skip each other's known-bad points too.
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS failures (
                key         TEXT PRIMARY KEY,
                fingerprint TEXT NOT NULL,
                params      TEXT NOT NULL,
                error       TEXT NOT NULL,
                kind        TEXT NOT NULL,
                attempts    INTEGER NOT NULL,
                created_at  REAL NOT NULL
            )
            """
        )
        self._conn.commit()

    @contextlib.contextmanager
    def _transaction(self) -> Iterator[None]:
        # BEGIN IMMEDIATE takes the database write lock up front, so what
        # the step reads is what it then writes over (a deferred BEGIN
        # would read a snapshot another process may already have replaced
        # and fail at its first write), and the one commit publishes the
        # step's rows to other processes together.
        with super()._transaction():
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    @staticmethod
    def _row_to_entry(row: tuple[str, str, str, float, float]) -> StoredEvaluation:
        key, fingerprint, params, value, created_at = row
        return StoredEvaluation(
            key=key,
            fingerprint=fingerprint,
            values={k: float(v) for k, v in json.loads(params).items()},
            value=float(value),
            created_at=float(created_at),
        )

    def _load_entry(self, key: str) -> StoredEvaluation | None:
        row = self._conn.execute(
            "SELECT key, fingerprint, params, value, created_at "
            "FROM evaluations WHERE key = ?",
            (key,),
        ).fetchone()
        return None if row is None else self._row_to_entry(row)

    def _save_entry(self, entry: StoredEvaluation) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO evaluations (key, fingerprint, params, value, created_at) "
            "VALUES (?, ?, ?, ?, ?)",
            (
                entry.key,
                entry.fingerprint,
                json.dumps(entry.values, sort_keys=True),
                entry.value,
                entry.created_at,
            ),
        )

    def _iter_entries(self) -> Iterable[StoredEvaluation]:
        rows = self._conn.execute(
            "SELECT key, fingerprint, params, value, created_at FROM evaluations"
        ).fetchall()
        return [self._row_to_entry(row) for row in rows]

    def _count_entries(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM evaluations").fetchone()
        return int(count)

    @staticmethod
    def _row_to_failure(
        row: tuple[str, str, str, str, str, int, float]
    ) -> StoredFailure:
        key, fingerprint, params, error, kind, attempts, created_at = row
        return StoredFailure(
            key=key,
            fingerprint=fingerprint,
            values={k: float(v) for k, v in json.loads(params).items()},
            error=str(error),
            kind=str(kind),
            attempts=int(attempts),
            created_at=float(created_at),
        )

    def _load_failure(self, key: str) -> StoredFailure | None:
        row = self._conn.execute(
            "SELECT key, fingerprint, params, error, kind, attempts, created_at "
            "FROM failures WHERE key = ?",
            (key,),
        ).fetchone()
        return None if row is None else self._row_to_failure(row)

    def _save_failure(self, failure: StoredFailure) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO failures "
            "(key, fingerprint, params, error, kind, attempts, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                failure.key,
                failure.fingerprint,
                json.dumps(failure.values, sort_keys=True),
                failure.error,
                failure.kind,
                failure.attempts,
                failure.created_at,
            ),
        )

    def _drop_failure(self, key: str) -> None:
        self._conn.execute("DELETE FROM failures WHERE key = ?", (key,))

    def _iter_failures(self) -> Iterable[StoredFailure]:
        rows = self._conn.execute(
            "SELECT key, fingerprint, params, error, kind, attempts, created_at FROM failures"
        ).fetchall()
        return [self._row_to_failure(row) for row in rows]

    def _count_failures(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM failures").fetchone()
        return int(count)

    def _load_lease(self, key: str) -> tuple[str, float] | None:
        row = self._conn.execute(
            "SELECT owner, expires_at FROM leases WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else (str(row[0]), float(row[1]))

    def _drop_lease(self, key: str) -> None:
        self._conn.execute("DELETE FROM leases WHERE key = ?", (key,))

    def _try_acquire_lease(
        self, key: str, owner: str, now: float, expires_at: float
    ) -> tuple[str, float] | None:
        # One conditional upsert instead of the base class's read-then-write
        # (rowcount 0 = somebody else holds it, unexpired).
        cursor = self._conn.execute(
            "INSERT INTO leases (key, owner, expires_at) VALUES (?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET "
            "    owner = excluded.owner, expires_at = excluded.expires_at "
            "WHERE leases.owner = excluded.owner OR leases.expires_at <= ?",
            (key, owner, expires_at, now),
        )
        if cursor.rowcount:
            return None
        return self._load_lease(key)

    def _release_lease(self, key: str, owner: str) -> None:
        self._conn.execute(
            "DELETE FROM leases WHERE key = ? AND owner = ?", (key, owner)
        )

    def _count_leases(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM leases").fetchone()
        return int(count)

    def _iter_leases(self) -> Iterable[tuple[str, str, float]]:
        rows = self._conn.execute("SELECT key, owner, expires_at FROM leases").fetchall()
        return [(str(key), str(owner), float(expires_at)) for key, owner, expires_at in rows]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(path: str | Path | None = None) -> EvaluationStore:
    """Open the evaluation store for ``path``.

    ``None`` returns an :class:`InMemoryStore`; a ``.db`` / ``.sqlite`` /
    ``.sqlite3`` suffix selects :class:`SqliteStore`; anything else (the
    conventional suffix is ``.jsonl``) selects :class:`JsonlStore`.
    """
    if path is None:
        return InMemoryStore()
    path = Path(path)
    if path.suffix.lower() in (".db", ".sqlite", ".sqlite3"):
        return SqliteStore(path)
    return JsonlStore(path)
