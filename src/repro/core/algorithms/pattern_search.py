"""Hooke-Jeeves pattern search (extension).

A classic direct search: starting from a base point, exploratory moves
probe ``+/- step`` along every (log2-scaled) dimension and keep any
improvement; a successful exploration is followed by a pattern move that
doubles down in the improving direction; failures halve the step size.
When the step size drops below a threshold the search restarts from a new
random base point, so the whole calibration budget is consumed.

Pattern search sits between the paper's gradient descent (which needs
``d`` probes just to estimate a gradient and can be defeated by the flat
non-bottleneck dimensions) and random search: it is monotone, requires no
line search and handles flat dimensions gracefully (their probes simply
never improve).

Every exploratory probe conditions on the outcome of the previous one
(an accepted probe moves the point the next axis probes from), so this
is a singleton-ask state machine: ``restart`` → ``explore`` (axis by
axis, direction by direction) → ``pattern`` and back.
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["PatternSearch"]

_DIRECTIONS = (+1.0, -1.0)


@register("pattern")
class PatternSearch(CalibrationAlgorithm):
    """Hooke-Jeeves direct pattern search with random restarts."""

    name = "pattern"

    def __init__(
        self,
        initial_step: float = 0.25,
        step_reduction: float = 0.5,
        min_step: float = 1e-3,
        max_restarts: int = 10_000_000,
    ) -> None:
        super().__init__()
        if not 0.0 < step_reduction < 1.0:
            raise ValueError("the step reduction factor must be in (0, 1)")
        if initial_step <= 0 or min_step <= 0:
            raise ValueError("step sizes must be positive")
        self.initial_step = float(initial_step)
        self.step_reduction = float(step_reduction)
        self.min_step = float(min_step)
        self.max_restarts = int(max_restarts)

    def _setup(self) -> None:
        self._phase = "restart"
        self._restarts = 0
        self._base: np.ndarray | None = None
        self._f_base = 0.0
        self._current: np.ndarray | None = None
        self._f_current = 0.0
        self._step = self.initial_step
        self._axis = 0
        self._direction = 0  # index into _DIRECTIONS

    def _begin_explore(self) -> None:
        self._current = np.array(self._base, copy=True)
        self._f_current = self._f_base
        self._axis = 0
        self._direction = 0
        self._phase = "explore"

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        while True:
            if self._phase == "restart":
                if self._restarts >= self.max_restarts:
                    return None
                self._restarts += 1
                return [self.space.sample_unit(rng)]
            if self._phase == "pattern":
                # Pattern move: jump again in the improving direction, then
                # explore around the landing point.
                pattern = np.clip(self._current + (self._current - self._base), 0.0, 1.0)
                return [pattern]
            # explore: find the next +/- step probe that actually moves
            while self._axis < self._current.size:
                direction = _DIRECTIONS[self._direction]
                probe = np.array(self._current, copy=True)
                probe[self._axis] = min(
                    max(probe[self._axis] + direction * self._step, 0.0), 1.0
                )
                if probe[self._axis] == self._current[self._axis]:
                    self._advance_direction()
                    continue
                return [probe]
            # Exploration around the base finished.
            if self._f_current < self._f_base:
                self._phase = "pattern"
                continue
            self._step *= self.step_reduction
            if self._step < self.min_step:
                self._phase = "restart"
                continue
            self._begin_explore()

    def _advance_direction(self) -> None:
        self._direction += 1
        if self._direction >= len(_DIRECTIONS):
            self._direction = 0
            self._axis += 1

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        candidate, value = candidates[0], values[0]
        if self._phase == "restart":
            self._base, self._f_base = candidate, value
            self._step = self.initial_step
            self._begin_explore()
            return
        if self._phase == "pattern":
            if value < self._f_current:
                self._base, self._f_base = candidate, value
            else:
                self._base, self._f_base = self._current, self._f_current
            self._begin_explore()
            return
        # explore probe
        if value < self._f_current:
            # accept the first improving direction on this axis
            self._current, self._f_current = candidate, value
            self._direction = 0
            self._axis += 1
        else:
            self._advance_direction()
