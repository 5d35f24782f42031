"""Early-stopping criteria for calibration runs.

The paper bounds every calibration by a wall-clock time ``T`` and notes
(Section IV.C.5) that the error curves flatten well before the bound: a
shorter ``T`` "would have produced only marginally higher errors".  The
criterion in this module captures exactly that observation so that a
calibration can stop as soon as continuing is unlikely to pay off:
:class:`NoImprovementStopper` stops after ``patience`` consecutive
evaluations without improving the best value by at least ``min_delta``.

A criterion is attached to a :class:`~repro.core.calibrator.Calibrator`
via its ``stopping=`` argument; under the hood it is combined with the
budget, so the run stops at whichever comes first.
"""

from __future__ import annotations

import collections
import math

from repro.core.budget import Budget
from repro.core.history import CalibrationHistory

__all__ = [
    "StoppingCriterion",
    "NoImprovementStopper",
    "StoppingBudget",
]


class StoppingCriterion:
    """Base class: decides, from the evaluation history, whether to stop."""

    def should_stop(self, history: CalibrationHistory) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


class NoImprovementStopper(StoppingCriterion):
    """Stop after ``patience`` evaluations without a ``min_delta`` improvement."""

    def __init__(self, patience: int = 50, min_delta: float = 0.0) -> None:
        if patience < 1:
            raise ValueError("patience must be at least 1")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        # A sliding-window minimum over the watched history's values:
        # (index, value) pairs with increasing values, the front being the
        # best of the last ``patience`` evaluations (NaN values skipped).
        self._watched: CalibrationHistory | None = None
        self._fed = 0
        self._window: collections.deque[tuple[int, float]] = collections.deque()

    def should_stop(self, history: CalibrationHistory) -> bool:
        n = len(history)
        if n <= self.patience:
            return False
        # Best value achieved up to (and including) the cut-off point...
        cutoff = n - self.patience
        best_before = history.best_after(cutoff)
        # ...compared with the best achieved since.
        best_since = self._best_since(history, cutoff)
        return best_since > best_before - self.min_delta

    def _best_since(self, history: CalibrationHistory, cutoff: int) -> float:
        """The best value from index ``cutoff`` on, in amortised constant
        time per evaluation across the checks of one run."""
        n = len(history)
        if history is not self._watched or n < self._fed:
            self._watched, self._fed = history, 0
            self._window.clear()
        window = self._window
        for index in range(max(self._fed, cutoff), n):
            value = history[index].value
            if math.isnan(value):
                continue
            while window and window[-1][1] >= value:
                window.pop()
            window.append((index, value))
        self._fed = n
        while window and window[0][0] < cutoff:
            window.popleft()
        return window[0][1] if window else math.inf

    def describe(self) -> str:
        return f"stop after {self.patience} evaluations without {self.min_delta:g} improvement"


class StoppingBudget(Budget):
    """Adapter that lets a :class:`StoppingCriterion` act as a budget: it
    is exhausted once the criterion stops on the run's ``history``, which
    the :class:`~repro.core.calibrator.Calibrator` hands it as each run
    starts, so the criterion sees every completed evaluation."""

    def __init__(self, criterion: StoppingCriterion, history: CalibrationHistory) -> None:
        self.criterion = criterion
        self._history = history

    def exhausted(self, evaluations: int) -> bool:
        return self.criterion.should_stop(self._history)

    def describe(self) -> str:
        return self.criterion.describe()
