"""Calibration budgets.

The paper bounds the calibration procedure by a wall-clock time ``T``
(rather than a number of simulator invocations, because the simulation
time itself depends on the parameter values — Section III.A).  The
framework supports both:

* :class:`TimeBudget` — stop after ``seconds`` of wall-clock time;
* :class:`EvaluationBudget` — stop after ``max_evaluations`` simulator
  invocations (cache hits do not count).
"""

from __future__ import annotations

import time

__all__ = [
    "Budget",
    "TimeBudget",
    "EvaluationBudget",
    "remaining_evaluations",
]


class Budget:
    """Base class; a budget is started once and then queried repeatedly."""

    def start(self, elapsed_offset: float = 0.0) -> None:
        """Mark the beginning of the calibration run.

        ``elapsed_offset`` is the wall-clock a resumed run already spent
        before its checkpoint: time budgets treat the run as that old, so
        an interrupted time-budgeted calibration does not get a fresh full
        allowance on every resume.
        """

    def exhausted(self, evaluations: int) -> bool:  # pragma: no cover - interface
        """Whether the calibration must stop (called before each evaluation)."""
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


class TimeBudget(Budget):
    """Stop after a fixed amount of wall-clock time (the paper's bound T)."""

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"the time budget must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._start: float | None = None

    def start(self, elapsed_offset: float = 0.0) -> None:
        self._start = time.perf_counter() - elapsed_offset

    @property
    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    def exhausted(self, evaluations: int) -> bool:
        if self._start is None:
            self.start()
        return self.elapsed >= self.seconds

    def describe(self) -> str:
        return f"time budget T = {self.seconds:g} s"


class EvaluationBudget(Budget):
    """Stop after a fixed number of simulator invocations."""

    def __init__(self, max_evaluations: int) -> None:
        if max_evaluations <= 0:
            raise ValueError(f"the evaluation budget must be positive, got {max_evaluations}")
        self.max_evaluations = int(max_evaluations)

    def exhausted(self, evaluations: int) -> bool:
        return evaluations >= self.max_evaluations

    def describe(self) -> str:
        return f"evaluation budget N = {self.max_evaluations}"


def remaining_evaluations(budget: Budget, evaluations: int) -> int | None:
    """How many more evaluations ``budget`` allows, or ``None`` if unbounded
    (a time budget imposes no evaluation cap).  The pooled drivers trim a
    batch to it, so a run never overshoots its cap."""
    if isinstance(budget, EvaluationBudget):
        return max(budget.max_evaluations - evaluations, 0)
    return None
