"""Cyclic coordinate descent (extension).

Not evaluated in the paper, but a natural "simple algorithm" to compare
against: starting from a random point, repeatedly sweep over the
dimensions; for each dimension perform a golden-section-style shrinking
search along that axis while keeping the other coordinates fixed.  When a
full sweep improves the objective by less than ``epsilon``, restart from a
new random point (same restart logic as the paper's gradient descent).

Each refinement round probes ``points_per_axis`` positions along the
current axis; the probes only depend on the round's bracket, so they are
asked as one batch (a parallel driver evaluates a whole round at once).
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register
from repro.core.history import _improves

__all__ = ["CoordinateDescent"]


@register("coordinate")
class CoordinateDescent(CalibrationAlgorithm):
    """Cyclic per-dimension line search with random restarts."""

    name = "coordinate"

    def __init__(
        self,
        points_per_axis: int = 5,
        refinements: int = 3,
        epsilon: float = 1e-2,
        max_restarts: int = 10_000_000,
    ) -> None:
        super().__init__()
        if points_per_axis < 3:
            raise ValueError("need at least 3 points per axis")
        self.points_per_axis = int(points_per_axis)
        self.refinements = int(refinements)
        self.epsilon = float(epsilon)
        self.max_restarts = int(max_restarts)

    def _setup(self) -> None:
        self._phase = "restart"
        self._restarts = 0
        self._x: np.ndarray | None = None
        self._fx = 0.0
        self._axis = 0
        self._refinement = 0
        self._low = 0.0
        self._high = 1.0
        self._sweep_start_fx = 0.0
        self._positions: list[float] = []

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._phase == "restart":
            if self._restarts >= self.max_restarts:
                return None
            self._restarts += 1
            return [self.space.sample_unit(rng)]
        # One shrinking-grid refinement round along the current axis.
        self._positions = list(np.linspace(self._low, self._high, self.points_per_axis))
        probes = []
        for position in self._positions:
            probe = np.array(self._x, copy=True)
            probe[self._axis] = position
            probes.append(probe)
        return probes

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        if self._phase == "restart":
            self._x, self._fx = candidates[0], values[0]
            self._axis = 0
            self._refinement = 0
            self._low, self._high = 0.0, 1.0
            self._sweep_start_fx = self._fx
            self._phase = "axis"
            return
        # The history's NaN rule: a number displaces a NaN restart point.
        best_idx = 0
        for index, value in enumerate(values):
            if _improves(value, values[best_idx]):
                best_idx = index
        if _improves(values[best_idx], self._fx):
            self._fx = values[best_idx]
            self._x[self._axis] = self._positions[best_idx]
        # Shrink the bracket around the best candidate.
        width = (self._high - self._low) / (self.points_per_axis - 1)
        self._low = max(0.0, self._positions[best_idx] - width)
        self._high = min(1.0, self._positions[best_idx] + width)
        self._refinement += 1
        if self._refinement < self.refinements:
            return
        # Axis finished: move to the next one (or close the sweep).
        self._refinement = 0
        self._low, self._high = 0.0, 1.0
        self._axis += 1
        if self._axis < self.space.dimension:
            return
        self._axis = 0
        if self._sweep_start_fx - self._fx < self.epsilon:
            self._phase = "restart"
        else:
            self._sweep_start_fx = self._fx
