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

Three backends are provided: :class:`InMemoryStore` (dicts),
:class:`JsonlStore` (append-only JSON Lines, human-greppable) and
:class:`SqliteStore` (cross-process safe), each only five row calls and
a transaction under the one protocol of :class:`EvaluationStore`.  All
are safe under concurrent writers within a process; SQLite additionally
serialises concurrent writer *processes*.

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
from collections.abc import Iterator, Mapping
from typing import Any, BinaryIO, NamedTuple

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

    The file is then made to end on a full line again (a fragment cut
    off, a missing newline added): appended to a fragment, the next
    acknowledged record would be dropped with it at the next open.
    """
    raw = path.read_bytes()
    lines = raw.decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()  # the file ends on a newline (or is empty)
    records: list[dict[str, object]] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as error:
            if index < len(lines) - 1:
                raise ValueError(
                    f"corrupt {label} record at {path}:{index + 1}: {error}"
                ) from error
            _log.warning("%s: dropping truncated final line of %s (%s)", label, path, error)
            lines[index] = ""
    if lines and (not lines[-1] or not raw.endswith(b"\n")):
        with contextlib.suppress(PermissionError), path.open("r+b") as handle:
            # A file that grew since the read has a writer appending to it,
            # whose line ends on a newline of its own: leave it be.
            if handle.seek(0, 2) == len(raw):
                handle.seek(sum(len(line.encode()) + 1 for line in lines[:-1]))
                handle.write(lines[-1].encode() + b"\n" if lines[-1] else b"")
                handle.truncate()
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


# A tuple, not a frozen dataclass: every claim miss builds one, at a third of the cost.
class _Lease(NamedTuple):
    """One in-flight claim: ``owner`` computes ``key`` until ``expires_at``."""

    key: str
    owner: str
    expires_at: float

    def to_dict(self) -> dict[str, object]:
        return self._asdict()

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> _Lease:
        return _Lease(str(data["key"]), str(data["owner"]), float(data["expires_at"]))


#: the store's keyed tables and the record type each holds, keyed by ``key``
_Record = StoredEvaluation | StoredFailure | _Lease
_RECORDS: dict[str, type[_Record]] = {
    "evaluations": StoredEvaluation,
    "failures": StoredFailure,
    "leases": _Lease,
}


class EvaluationStore:
    """Base class: the store protocol, written once, plus hit/miss accounting.

    The protocol runs over three keyed tables (``evaluations``,
    ``failures``, ``leases``) through five row calls — ``_get``, ``_put``,
    ``_delete``, ``_records``, ``_size`` — served here from dicts, which
    makes the base class the whole in-memory backend.  A backend keeping
    rows elsewhere overrides those five and :meth:`_transaction`; all locking and
    statistics live here.  Every public method is atomic under the store
    lock, so a store instance can be shared by any number of jobs/threads
    within a process; whether two *processes* can share a store depends on
    the backend (SQLite yes, JSONL only via :meth:`JsonlStore.reload`,
    in-memory no).

    Row calls never commit; public methods own the transaction: every
    mutating protocol step (:meth:`put`, :meth:`record_failure`,
    :meth:`clear_failure`, :meth:`release`, the miss path of
    :meth:`claim`) runs its row calls inside one :meth:`_transaction`, so a
    step is published to other processes whole or not at all.  The lease
    steps (the miss path of :meth:`claim`, :meth:`release`) are not
    *durable*: a lease lost with the machine belonged to an owner that died
    with it, and its TTL already covers that.
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
        #: table -> key -> record (SqliteStore keeps its rows in the database)
        self._tables: dict[str, dict[str, _Record]] = {table: {} for table in _RECORDS}

    # -- backend interface: a transaction and five row calls ----------- #
    def _transaction(self, durable: bool = True) -> contextlib.AbstractContextManager[object]:
        """Context manager around one mutating protocol step.

        The store lock and nothing else here; a backend shared between
        *processes* (SQLite) also holds its write lock for the duration
        and commits on exit, rolling back if the step raised.  A step that
        is not ``durable`` must reach the other processes but need not
        survive a power loss: SQLite commits it without an fsync.
        """
        return self._lock

    def _get(self, table: str, key: str) -> Any:
        """The record stored under ``key`` in ``table``, or ``None``."""
        return self._tables[table].get(key)

    def _put(self, table: str, record: _Record) -> None:
        """Insert or replace ``record`` (keyed by ``record.key``)."""
        self._tables[table][record.key] = record

    def _delete(self, table: str, key: str) -> None:
        """Drop the row for ``key`` (a no-op if there is none)."""
        self._tables[table].pop(key, None)

    def _records(self, table: str) -> list[Any]:
        """Every record of ``table``, in no particular order."""
        return list(self._tables[table].values())

    def _size(self, table: str) -> int:
        return len(self._tables[table])

    # -- public API ---------------------------------------------------- #
    def get(self, fingerprint: str, values: Mapping[str, float]) -> float | None:
        """Look up the objective value for a (scenario, point), or ``None``."""
        key = evaluation_key(fingerprint, values)
        with self._lock:
            entry = self._get("evaluations", key)
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
            entry = self._get("evaluations", evaluation_key(fingerprint, values))
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
            self._put("evaluations", entry)
            self._delete("leases", key)  # publishing a value finishes its claim
            self._delete("failures", key)  # a success un-quarantines the point
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
            self._put("failures", failure)
            self._delete("leases", key)
            self.failures_recorded += 1
            self._count("repro_store_failures_total")
        return failure

    def get_failure(self, fingerprint: str, values: Mapping[str, float]) -> StoredFailure | None:
        """The quarantine record for a point, or ``None`` (no hit/miss
        accounting — callers poll this alongside :meth:`peek`)."""
        with self._lock:
            return self._get("failures", evaluation_key(fingerprint, values))

    def clear_failure(self, fingerprint: str, values: Mapping[str, float]) -> None:
        """Lift a point's quarantine (e.g. after the faulty dependency is
        fixed) so the next claim recomputes it."""
        with self._transaction():
            self._delete("failures", evaluation_key(fingerprint, values))

    def failure_count(self) -> int:
        """Number of currently quarantined points."""
        with self._lock:
            return self._size("failures")

    def failures(self, fingerprint: str | None = None) -> list[StoredFailure]:
        """All quarantine records, optionally restricted to one scenario."""
        return self._of_scenario("failures", fingerprint)

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
            entry = self._get("evaluations", key)
            if entry is None:
                with self._transaction(durable=False):
                    # Re-read under the write lock: another process may
                    # have published the point and dropped its lease
                    # between the read above and this transaction, and a
                    # stored point must never be claimed again.
                    entry = self._get("evaluations", key)
                    if entry is None:
                        return self._claim_missing(key, owner, now, now + float(ttl))
            self.hits += 1
            self._count("repro_store_hits_total")
            return StoreClaim(StoreClaim.HIT, value=entry.value)

    def _claim_missing(self, key: str, owner: str, now: float, expires_at: float) -> StoreClaim:
        """The miss path of :meth:`claim`; runs inside its transaction."""
        known = self._get("failures", key)
        if known is not None:
            return StoreClaim(StoreClaim.QUARANTINED, failure=known)
        lease = self._get("leases", key)
        if lease is not None and lease.owner != owner and lease.expires_at > now:
            self.lease_conflicts += 1
            self._count("repro_store_lease_conflicts_total")
            return StoreClaim(StoreClaim.LEASED, owner=lease.owner, expires_at=lease.expires_at)
        self._put("leases", _Lease(key, owner, expires_at))
        self.misses += 1
        self._count("repro_store_misses_total")
        return StoreClaim(StoreClaim.CLAIMED)

    def release(self, fingerprint: str, values: Mapping[str, float], owner: str) -> None:
        """Abandon a claim (the computation failed or will never run).

        Only the lease's owner can release it; a stale release from an
        owner whose lease already expired and was taken over is a no-op.
        """
        key = evaluation_key(fingerprint, values)
        with self._transaction(durable=False):
            lease = self._get("leases", key)
            if lease is not None and lease.owner == owner:
                self._delete("leases", key)

    def lease_count(self) -> int:
        """Number of live (possibly expired, not yet reaped) leases."""
        with self._lock:
            return self._size("leases")

    def active_leases(self, now: float | None = None) -> list[dict[str, object]]:
        """The unexpired leases — evaluations currently being computed.

        Returns ``{"key", "owner", "expires_at"}`` dictionaries sorted by
        expiry (soonest first), the in-flight work ``repro status`` shows
        next to the finished-evaluation counts.
        """
        cutoff = time.time() if now is None else float(now)
        with self._lock:
            rows = self._records("leases")
        live = [lease for lease in rows if lease.expires_at > cutoff]
        return [lease.to_dict() for lease in sorted(live, key=lambda lease: lease.expires_at)]

    def __contains__(self, item: tuple[str, Mapping[str, float]]) -> bool:
        fingerprint, values = item
        return self.peek(fingerprint, values) is not None

    def __len__(self) -> int:
        with self._lock:
            return self._size("evaluations")

    def entries(self, fingerprint: str | None = None) -> list[StoredEvaluation]:
        """All stored evaluations, optionally restricted to one scenario."""
        return self._of_scenario("evaluations", fingerprint)

    def _of_scenario(self, table: str, fingerprint: str | None) -> list[Any]:
        with self._lock:
            rows = self._records(table)
        return [row for row in rows if fingerprint is None or row.fingerprint == fingerprint]

    def fingerprints(self) -> list[str]:
        """The distinct scenario fingerprints present in the store."""
        return sorted({e.fingerprint for e in self.entries()})

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": self._size("evaluations"),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "lease_conflicts": self.lease_conflicts,
                "failures": self._size("failures"),
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


class JsonlStore(EvaluationStore):
    """Append-only JSON Lines store.

    Reads are served from the base class's in-memory tables; every put
    appends one line to the file, so the on-disk state is a log that can
    be tailed, grepped and concatenated.  ``reload()`` merges lines
    written by other processes since the file was last read; a truncated
    *final* line (the signature of a crash mid-append) is dropped with a
    warning instead of poisoning the whole store.

    Failure-quarantine records live in an append-only sidecar next to the
    main file (``<stem>.failures<suffix>``): recording appends the failure
    dict, clearing appends a ``{"key": ..., "cleared": true}`` tombstone,
    and reload folds the log in order.

    Each log is opened at its first append and kept open, unbuffered and
    in append mode, until :meth:`close` (a later append reopens it).  A
    record is one ``write(2)`` of one encoded line, so it is with the OS
    — it survives the process, not the machine (nothing is fsynced) —
    once its step returns, and writers in other processes never
    interleave partial lines with it.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: append-only quarantine log next to the main file
        self.failures_path = self.path.with_name(
            self.path.stem + ".failures" + self.path.suffix
        )
        self._logs = {"evaluations": self.path, "failures": self.failures_path}
        #: table -> the open append handle of its log
        self._handles: dict[str, BinaryIO] = {}
        self.reload()

    def reload(self) -> int:
        """Re-read the files, merging records from concurrent writers.

        Returns the number of entries now indexed.
        """
        evaluations, failures = self._tables["evaluations"], self._tables["failures"]
        with self._lock:
            if self.path.exists():
                for data in _read_jsonl_tolerant(self.path, "evaluation store"):
                    entry = StoredEvaluation.from_dict(data)
                    evaluations[entry.key] = entry
            if self.failures_path.exists():
                for data in _read_jsonl_tolerant(self.failures_path, "failure quarantine"):
                    if data.get("cleared"):
                        failures.pop(str(data["key"]), None)
                    else:
                        failure = StoredFailure.from_dict(data)
                        failures[failure.key] = failure
            # A published value beats a stale quarantine record regardless
            # of the order the two logs were read in.
            for key in failures.keys() & evaluations.keys():
                del failures[key]
            return len(evaluations)

    def _append(self, table: str, data: Mapping[str, object]) -> None:
        # One line per record, written in a single unbuffered append so
        # that concurrent in-process writers (serialised by the store lock)
        # and append-mode writers in other processes never interleave
        # partial lines.
        handle = self._handles.get(table)
        if handle is None:
            handle = self._handles[table] = open(self._logs[table], "ab", buffering=0)
        line = (json.dumps(data) + "\n").encode()
        # A raw write may stop short (a full disk) and only say so in its
        # count; a record it did not finish must not count as stored.
        if handle.write(line) != len(line):
            raise OSError(f"short write to {self._logs[table]}")

    def _put(self, table: str, record: _Record) -> None:
        super()._put(table, record)
        if table in self._logs:
            self._append(table, record.to_dict())

    def _delete(self, table: str, key: str) -> None:
        # Only write a tombstone when the key was actually quarantined —
        # every put() drops failures, and successes must not bloat the log.
        if table == "failures" and key in self._tables[table]:
            self._append(table, {"key": key, "cleared": True})
        super()._delete(table, key)

    def close(self) -> None:
        with self._lock:
            for handle in self._handles.values():
                handle.close()
            self._handles.clear()


#: each SQLite table's columns, key first; ``params`` holds ``values`` as JSON
_COLUMNS = {
    "evaluations": ("key", "fingerprint", "params", "value", "created_at"),
    "failures": ("key", "fingerprint", "params", "error", "kind", "attempts", "created_at"),
    "leases": ("key", "owner", "expires_at"),
}

#: the row calls' SQL per table, built once
_SQL = {
    table: {
        "get": f"SELECT {', '.join(columns)} FROM {table} WHERE key = ?",
        "put": f"INSERT OR REPLACE INTO {table} ({', '.join(columns)}) "
        f"VALUES ({', '.join('?' * len(columns))})",
        "delete": f"DELETE FROM {table} WHERE key = ?",
        "records": f"SELECT {', '.join(columns)} FROM {table}",
        "size": f"SELECT COUNT(*) FROM {table}",
    }
    for table, columns in _COLUMNS.items()
}

#: ``PRAGMA synchronous`` level at which a WAL commit skips its fsync
_SYNCHRONOUS_NORMAL = 1


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
        # ``synchronous`` stays at its default (FULL), so a durable step
        # that returned is on disk.  A lease step commits at NORMAL, without
        # the fsync: its frames are with the OS, so a killed process loses
        # nothing, and the next durable commit's fsync of the log covers
        # them too.  A filesystem that refuses WAL makes SQLite report the
        # mode it kept; the store carries on in it, with every step at the
        # default, because in a rollback journal NORMAL can corrupt the file
        # itself on a power loss, acknowledged values included.
        (mode,) = self._conn.execute("PRAGMA journal_mode=WAL").fetchone()
        if mode != "wal":
            _log.warning("%s: no write-ahead log here, journal_mode=%s", self.path, mode)
        (self._synchronous,) = self._conn.execute("PRAGMA synchronous").fetchone()
        self._relax_leases = mode == "wal" and self._synchronous > _SYNCHRONOUS_NORMAL
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
    def _transaction(self, durable: bool = True) -> Iterator[None]:
        # BEGIN IMMEDIATE takes the database write lock up front, so what
        # the step reads is what it then writes over (a deferred BEGIN
        # would read a snapshot another process may already have replaced
        # and fail at its first write), and the one commit publishes the
        # step's rows to other processes together.
        relax = not durable and self._relax_leases
        with super()._transaction():
            if relax:
                self._conn.execute(f"PRAGMA synchronous={_SYNCHRONOUS_NORMAL}")
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                yield
                self._conn.commit()
            except BaseException:
                self._conn.rollback()  # a no-op if BEGIN itself failed
                raise
            finally:
                if relax:
                    self._conn.execute(f"PRAGMA synchronous={self._synchronous}")

    def _record(self, table: str, row: tuple[object, ...]) -> _Record:
        data = dict(zip(_COLUMNS[table], row, strict=True))
        if "params" in data:
            data["values"] = json.loads(str(data.pop("params")))
        return _RECORDS[table].from_dict(data)

    def _get(self, table: str, key: str) -> Any:
        row = self._conn.execute(_SQL[table]["get"], (key,)).fetchone()
        return None if row is None else self._record(table, row)

    def _put(self, table: str, record: _Record) -> None:
        data = record.to_dict()
        if "values" in data:
            data["params"] = json.dumps(data.pop("values"), sort_keys=True)
        self._conn.execute(_SQL[table]["put"], [data[column] for column in _COLUMNS[table]])

    def _delete(self, table: str, key: str) -> None:
        self._conn.execute(_SQL[table]["delete"], (key,))

    def _records(self, table: str) -> list[Any]:
        return [self._record(table, row) for row in self._conn.execute(_SQL[table]["records"])]

    def _size(self, table: str) -> int:
        return int(self._conn.execute(_SQL[table]["size"]).fetchone()[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(path: str | Path | None = None) -> EvaluationStore:
    """Open the evaluation store for ``path``.

    ``None`` or ``":memory:"`` returns an :class:`InMemoryStore`; a ``.db`` /
    ``.sqlite`` / ``.sqlite3`` suffix selects :class:`SqliteStore`; anything
    else (the conventional suffix is ``.jsonl``) selects :class:`JsonlStore`.
    """
    if path is None or str(path) == ":memory:":
        return InMemoryStore()
    path = Path(path)
    if path.suffix.lower() in (".db", ".sqlite", ".sqlite3"):
        return SqliteStore(path)
    return JsonlStore(path)
