"""Evaluation history and convergence traces.

Every simulator invocation performed during a calibration is recorded as
an :class:`Evaluation`; the :class:`CalibrationHistory` aggregates them
and produces the best-so-far convergence curves (against evaluation count
or against wall-clock time) used by Figure 2 and by the time-bound
analysis of Section IV.C.5.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["Evaluation", "CalibrationHistory"]


@dataclasses.dataclass(frozen=True, slots=True)
class Evaluation:
    """One tell: a simulator invocation, or (``cached``) an algorithm step
    served from an evaluation cache.  The tell-log fields after ``failed``
    take no part in equality, so two drivers' histories compare equal."""

    index: int
    values: dict[str, float]
    unit: tuple[float, ...]
    value: float
    started_at: float
    finished_at: float
    cached: bool = False
    #: True when the invocation failed and ``value`` is the configured
    #: penalty (see :class:`repro.core.faults.FailurePolicy`), not a
    #: simulator output.
    failed: bool = False
    #: ask index, asks before this tell, its budget units; a failure's diagnosis
    seq: int = dataclasses.field(default=0, compare=False)
    asked: int = dataclasses.field(default=0, compare=False)
    charged: int = dataclasses.field(default=0, compare=False)
    failure_kind: str | None = dataclasses.field(default=None, compare=False)
    error: str | None = dataclasses.field(default=None, compare=False)

    @property
    def duration(self) -> float:
        """Wall-clock duration of the invocation, in seconds."""
        return self.finished_at - self.started_at


def _improves(value: float, best: float | None) -> bool:
    """Whether ``value`` displaces the best so far: a lower number does, a
    NaN never displaces a number and any number displaces a NaN, so NaN
    is the best only when every value is NaN."""
    return best is None or value < best or (math.isnan(best) and not math.isnan(value))


class CalibrationHistory:
    """Ordered list of evaluations plus convenience aggregations."""

    def __init__(self) -> None:
        self._evaluations: list[Evaluation] = []
        self._best: Evaluation | None = None
        #: :meth:`best_so_far`, extended by each :meth:`record`
        self._curve: list[float] = []

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #
    def record(self, evaluation: Evaluation) -> None:
        self._evaluations.append(evaluation)
        if _improves(evaluation.value, None if self._best is None else self._best.value):
            self._best = evaluation
        previous = self._curve[-1] if self._curve else math.inf
        self._curve.append(min(previous, evaluation.value))

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._evaluations)

    def __iter__(self):
        return iter(self._evaluations)

    def __getitem__(self, index: int) -> Evaluation:
        return self._evaluations[index]

    @property
    def evaluations(self) -> list[Evaluation]:
        return list(self._evaluations)

    @property
    def best(self) -> Evaluation | None:
        """The evaluation with the lowest objective value so far."""
        return self._best

    # ------------------------------------------------------------------ #
    # convergence curves
    # ------------------------------------------------------------------ #
    def best_so_far(self) -> list[float]:
        """Best objective value after each evaluation (non-increasing; a
        NaN value is skipped, ``inf`` until the first number)."""
        return list(self._curve)
