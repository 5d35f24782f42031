"""Directory-based job spool: how the CLI persists service state.

The spool is the on-disk face of the service — a directory that ``repro
submit`` drops job specifications into, ``repro serve`` drains, and
``repro status`` reads:

.. code-block:: text

    <serve-dir>/
        jobs/job-0001.json           # specification + live status fields
        results/job-0001.json        # CalibrationResult without its history
        checkpoints/job-0001.log.jsonl   # the job's tell log: its history
        store.jsonl                  # default shared evaluation store

Job files double as status records: the server rewrites them (atomically,
via a temp file + rename) as the job moves through ``pending -> running ->
done | failed``, so ``repro status`` needs no running server to answer.

A job's *tell log*, one JSON line per tell, is its one per-evaluation
record: the server appends every tell to it as the job runs (see
:meth:`repro.core.async_driver.AsyncCalibrator.run`) and keeps it once
the job is done.  It is the job's checkpoint — the algorithm, its
options and the seed are in the job file, and a job found with a log
resumes by replaying it — and its history, since a served run records
every tell (:meth:`JobSpool.read_result` rebuilds the history from it).
A crash mid-append can only tear the final line, which
:meth:`JobSpool.read_checkpoint` cuts with a warning, so the job resumes
from every tell the log acknowledged.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path
from collections.abc import Sequence
from typing import Any

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.history import CalibrationHistory
from repro.core.result import CalibrationResult
from repro.core.serialization import result_from_dict, result_to_dict
from repro.service.store import _read_jsonl_tolerant

__all__ = ["JobSpool", "write_json"]


class JobSpool:
    """A directory of job specifications, statuses and results."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.checkpoints_dir = self.root / "checkpoints"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoints_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    @property
    def default_store_path(self) -> Path:
        """Where ``repro serve`` keeps the shared store unless told otherwise."""
        return self.root / "store.jsonl"

    def job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def checkpoint_path(self, job_id: str) -> Path:
        """A job's tell log: its checkpoint and its history."""
        return self.checkpoints_dir / f"{job_id}.log.jsonl"

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def _next_id(self) -> str:
        taken = {path.stem for path in self.jobs_dir.glob("job-*.json")}
        index = len(taken) + 1
        while f"job-{index:04d}" in taken:
            index += 1
        return f"job-{index:04d}"

    def _reserve(self, job_id: str) -> Path:
        """Atomically claim a job id (O_CREAT|O_EXCL beats the TOCTOU race
        between concurrent ``repro submit`` processes)."""
        path = self.job_path(job_id)
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
        return path

    def submit(self, spec: dict[str, Any], job_id: str | None = None) -> str:
        """Persist one job specification as pending; returns the job id."""
        if job_id is not None:
            try:
                path = self._reserve(job_id)
            except FileExistsError:
                raise ValueError(f"job {job_id!r} already exists in {self.root}") from None
        else:
            while True:
                job_id = self._next_id()
                try:
                    path = self._reserve(job_id)
                    break
                except FileExistsError:
                    continue  # another submitter claimed it; pick the next id
        record = dict(spec)
        record["id"] = job_id
        record["status"] = "pending"
        write_json(path, record)
        return job_id

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def load(self, job_id: str) -> dict[str, Any]:
        return json.loads(self.job_path(job_id).read_text())

    def _try_load(self, job_id: str) -> dict[str, Any] | None:
        """Like :meth:`load`, but ``None`` for a job mid-submission (a
        concurrent submitter has reserved the id and not yet written the
        spec) instead of raising."""
        try:
            return self.load(job_id)
        except (ValueError, OSError):
            return None

    def job_ids(self) -> list[str]:
        return sorted(path.stem for path in self.jobs_dir.glob("job-*.json"))

    def _ids_with_status(self, statuses: Sequence[str]) -> list[str]:
        result = []
        for jid in self.job_ids():
            record = self._try_load(jid)
            if record is not None and record.get("status") in statuses:
                result.append(jid)
        return result

    def pending(self) -> list[str]:
        """Ids of jobs not yet picked up by a server, in submission order."""
        return self._ids_with_status(("pending",))

    def runnable(self) -> list[str]:
        """Pending jobs plus jobs stranded in ``running`` by a server that
        died before finishing them (the spool assumes one server process
        per directory, so a ``running`` job with no live server is stale
        and safe to re-run — calibrations are deterministic and idempotent
        against the shared store)."""
        return self._ids_with_status(("pending", "running"))

    def statuses(self) -> list[dict[str, Any]]:
        records = (self._try_load(jid) for jid in self.job_ids())
        return [record for record in records if record is not None]

    # ------------------------------------------------------------------ #
    # server-side updates
    # ------------------------------------------------------------------ #
    def update(self, job_id: str, **fields: Any) -> dict[str, Any]:
        """Merge ``fields`` into the job record.

        The rewrite itself is atomic (temp file + ``os.replace``), and
        the read-modify-write cycle is serialised across threads *and*
        processes by an exclusive ``flock`` on a ``.lock`` file next to
        the record — two concurrent writers updating different fields of
        one job (a fleet front-end recording progress while a worker
        publishes counters) can no longer silently drop each other's
        merge.  The lock file does not match the ``job-*.json`` listing
        glob and is left in place.
        """
        path = self.job_path(job_id)
        if fcntl is None:  # pragma: no cover - non-POSIX: atomic rewrite only
            record = self.load(job_id)
            record.update(fields)
            write_json(path, record)
            return record
        with open(path.with_suffix(".lock"), "w") as lock:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
            try:
                record = self.load(job_id)
                record.update(fields)
                write_json(path, record)
            finally:
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
        return record

    def write_result(self, job_id: str, result: CalibrationResult) -> Path:
        """Persist a finished job's result, all but its history, which
        the job's tell log already holds."""
        path = self.result_path(job_id)
        record = result_to_dict(dataclasses.replace(result, history=CalibrationHistory()))
        del record["history"]
        write_json(path, record)
        return path

    def read_result(self, job_id: str) -> CalibrationResult:
        """A finished job's result, its tell log read back into records as
        ``log``; a served run records every tell, so its history is the
        whole log."""
        record = json.loads(self.result_path(job_id).read_text())
        log = self.read_checkpoint(job_id)
        if log is None:
            raise ValueError(
                f"{self.checkpoint_path(job_id)} is missing: this spool predates "
                "tell logs as the history of served jobs, and is not migrated"
            )
        record["history"] = log
        return result_from_dict(record)

    # ------------------------------------------------------------------ #
    # tell logs (history and crash/resume)
    # ------------------------------------------------------------------ #
    def write_checkpoint(self, job_id: str, entries: Sequence[dict[str, Any]]) -> Path:
        """Append tell-log entries to a job's log, in one write."""
        path = self.checkpoint_path(job_id)
        with path.open("a") as handle:
            handle.write("".join(json.dumps(entry) + "\n" for entry in entries))
        return path

    def read_checkpoint(self, job_id: str) -> list[dict[str, Any]] | None:
        """A job's tell log, or ``None`` if it has none.

        A final line torn by a crash mid-append is cut from the file with
        a warning; corruption before it raises ``ValueError``.
        """
        path = self.checkpoint_path(job_id)
        if not path.exists():
            return None
        return _read_jsonl_tolerant(path, "tell log")


def write_json(path: Path, record: dict[str, Any]) -> None:
    """Replace ``path`` with ``record`` atomically (a temp file and a
    rename), so a reader never sees a half-written file."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(record, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
