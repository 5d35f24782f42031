"""Simulated annealing (extension).

A classic black-box optimiser, included because the paper positions its
three algorithms as representatives of "simple" approaches and leaves more
sophisticated ones to future work.  The neighbourhood is a Gaussian step
in the normalised (log2) unit cube whose width shrinks with the
temperature; the acceptance rule is Metropolis on the objective value
(MRE percentage points).

Annealing is inherently sequential (each proposal hangs off the current
state), so every ask is a singleton; the Metropolis acceptance draw
happens on the tell side, from the rng of the latest ask, preserving the
original draw order exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["SimulatedAnnealing"]


@register("annealing")
class SimulatedAnnealing(CalibrationAlgorithm):
    """Metropolis simulated annealing in the unit cube."""

    name = "annealing"

    def __init__(
        self,
        initial_temperature: float = 25.0,
        cooling_rate: float = 0.97,
        min_temperature: float = 1e-3,
        step_scale: float = 0.25,
        restarts_forever: bool = True,
    ) -> None:
        super().__init__()
        if not 0.0 < cooling_rate < 1.0:
            raise ValueError("cooling rate must be in (0, 1)")
        self.initial_temperature = float(initial_temperature)
        self.cooling_rate = float(cooling_rate)
        self.min_temperature = float(min_temperature)
        self.step_scale = float(step_scale)
        self.restarts_forever = bool(restarts_forever)

    def _setup(self) -> None:
        self._phase = "start"
        self._x: np.ndarray | None = None
        self._fx = 0.0
        self._temperature = self.initial_temperature
        self._anneals_done = 0

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._phase == "start":
            if self._anneals_done > 0 and not self.restarts_forever:
                return None
            return [self.space.sample_unit(rng)]
        scale = self.step_scale * max(self._temperature / self.initial_temperature, 0.05)
        candidate = np.clip(
            self._x + rng.normal(0.0, scale, size=self._x.size), 0.0, 1.0
        )
        return [candidate]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        candidate, value = candidates[0], values[0]
        if self._phase == "start":
            self._x, self._fx = candidate, value
            self._temperature = self.initial_temperature
            self._phase = "step"
            return
        delta = value - self._fx
        if delta <= 0 or self._rng.uniform() < math.exp(-delta / self._temperature):
            self._x, self._fx = candidate, value
        self._temperature *= self.cooling_rate
        if self._temperature <= self.min_temperature:
            self._anneals_done += 1
            self._phase = "start"
