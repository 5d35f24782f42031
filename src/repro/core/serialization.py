"""Persistence of calibration results.

A calibration worth 6 hours of compute (the paper's budget) is worth
writing to disk: this module serialises
:class:`~repro.core.result.CalibrationResult` objects — including their
full evaluation history, from which the Figure 2 convergence curves are
rebuilt — to a stable JSON document, and loads them back.  One evaluation
record, :func:`evaluation_to_dict`, is also each tell-log entry (see
:meth:`~repro.core.async_driver.AsyncCalibrator.run`), so a served job's
log doubles as its per-evaluation history.

The format is versioned and deliberately simple (plain lists and dicts) so
that results can also be consumed by external tooling (pandas, plotting
scripts) without importing this library.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.history import CalibrationHistory, Evaluation
from repro.core.result import CalibrationResult

__all__ = [
    "FORMAT_VERSION",
    "evaluation_to_dict",
    "evaluation_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_result",
]

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


def evaluation_to_dict(evaluation: Evaluation) -> dict:
    """Convert one :class:`Evaluation` to JSON-compatible primitives: a
    result's history entry, and a tell-log entry."""
    data = {
        "index": evaluation.index,
        "values": dict(evaluation.values),
        "unit": list(evaluation.unit),
        "value": evaluation.value,
        "started_at": evaluation.started_at,
        "finished_at": evaluation.finished_at,
    }
    # Keys a document may lack (read back as their defaults), so the
    # format version stays at 1; the tell-log keys close the entry.
    if evaluation.cached:
        data["cached"] = True
    if evaluation.failed:
        data["failed"] = True
    if evaluation.error is not None:
        data.update(failure_kind=evaluation.failure_kind, error=evaluation.error)
    data.update(seq=evaluation.seq, asked=evaluation.asked, charged=evaluation.charged)
    return data


def evaluation_from_dict(data: dict) -> Evaluation:
    """Rebuild an :class:`Evaluation` from :func:`evaluation_to_dict` output
    (a key an older document lacks keeps its default)."""
    return Evaluation(
        index=int(data["index"]),
        values={k: float(v) for k, v in data["values"].items()},
        unit=tuple(float(u) for u in data["unit"]),
        value=float(data["value"]),
        started_at=float(data["started_at"]),
        finished_at=float(data["finished_at"]),
        cached=bool(data.get("cached", False)),
        failed=bool(data.get("failed", False)),
        seq=int(data.get("seq", 0)),
        asked=int(data.get("asked", 0)),
        charged=int(data.get("charged", 0)),
        failure_kind=data.get("failure_kind"),
        error=data.get("error"),
    )


def result_to_dict(result: CalibrationResult) -> dict:
    """Convert a result (and its history) to JSON-compatible primitives."""
    data = {
        "format_version": FORMAT_VERSION,
        "algorithm": result.algorithm,
        "best_values": dict(result.best_values),
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "elapsed": result.elapsed,
        "budget_description": result.budget_description,
        "seed": result.seed,
        "history": [evaluation_to_dict(e) for e in result.history],
    }
    # Optional key, written only when present: documents saved before the
    # telemetry subsystem existed (and telemetry-off runs) are unchanged,
    # so the format version stays at 1.
    if result.telemetry is not None:
        data["telemetry"] = result.telemetry
    return data


def result_from_dict(data: dict) -> CalibrationResult:
    """Rebuild a :class:`CalibrationResult` from :func:`result_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported calibration-result format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    log = [evaluation_from_dict(entry) for entry in data.get("history", [])]
    history = CalibrationHistory()
    for evaluation in log:
        history.record(evaluation)
    return CalibrationResult(
        algorithm=str(data["algorithm"]),
        best_values={k: float(v) for k, v in data["best_values"].items()},
        best_value=float(data["best_value"]),
        evaluations=int(data["evaluations"]),
        elapsed=float(data["elapsed"]),
        history=history,
        log=log,
        budget_description=str(data.get("budget_description", "")),
        seed=data.get("seed"),
        telemetry=data.get("telemetry"),
    )


def save_result(result: CalibrationResult, path: str | Path, indent: int = 2) -> Path:
    """Write a result to ``path`` as JSON and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=indent) + "\n")
    return path
