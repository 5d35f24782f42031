"""Calibration results."""

from __future__ import annotations

import dataclasses

from repro.core.history import CalibrationHistory, Evaluation

__all__ = ["CalibrationResult"]


@dataclasses.dataclass
class CalibrationResult:
    """The outcome of one calibration run.

    Attributes
    ----------
    algorithm:
        Name of the algorithm that produced the result (``"random"``,
        ``"grid"``, ``"gdfix"``, ...).
    best_values:
        The calibrated parameter values (the point with the lowest
        objective value encountered during the run).
    best_value:
        The objective value (e.g. MRE in percent) at ``best_values``.
    evaluations:
        Number of simulator invocations actually performed.
    elapsed:
        Wall-clock duration of the calibration, in seconds.
    history:
        The full evaluation history (used for the Figure 2 curves).
    log:
        One record per tell, in the order told; ``history`` holds the same
        objects but unreplayed cache hits.  A loaded result logs its history.
    budget_description:
        Human-readable description of the budget that bounded the run.
    telemetry:
        A metrics snapshot (``MetricsRegistry.snapshot()`` shape) taken
        when the run finished, or ``None`` when telemetry was disabled.
        Note the registry is process-wide: concurrent runs in one
        process share one snapshot.
    """

    algorithm: str
    best_values: dict[str, float]
    best_value: float
    evaluations: int
    elapsed: float
    history: CalibrationHistory
    log: list[Evaluation]
    budget_description: str = ""
    seed: int | None = None
    telemetry: dict | None = None

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: best objective {self.best_value:.2f} after "
            f"{self.evaluations} evaluations in {self.elapsed:.1f} s"
        )
