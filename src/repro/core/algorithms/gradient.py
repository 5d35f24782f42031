"""Gradient descent with backtracking line search (GDFIX / GDDYN).

From the paper (Section III.B): the algorithm starts from a random point;
at each iteration the gradient is approximated by sampling points a
distance ``delta`` away along each dimension; a standard backtracking line
search computes the learning rate (how far to move along the negative
gradient); when the change of the objective between two iterations is less
than ``epsilon`` the current search path is terminated and a new random
starting point is selected.  Two variants are considered:

* GDFIX — ``delta`` stays constant (the paper's reported variant);
* GDDYN — ``delta`` is updated to the learning rate found by the line
  search at each iteration (the paper found it indistinguishable from
  GDFIX and omitted it from the result tables; it is provided here for
  completeness and exercised by the ablation benchmark).

All the work happens in the normalised (log2) unit cube; the paper's
default constants ``delta = 0.0001`` and ``epsilon = 0.01`` are used.

As an ask/tell state machine the algorithm cycles through three phases —
``restart`` (one random point), ``gradient`` (the ``d`` finite-difference
probes, independent given the base point and therefore asked as one
batch), ``linesearch`` (one Armijo probe at a time) — so a parallel
driver evaluates all gradient probes concurrently while the serial
trajectory stays byte-identical to the original nested loops.
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import ALGORITHMS, CalibrationAlgorithm, register

__all__ = ["GradientDescent"]


@register("gdfix")
class GradientDescent(CalibrationAlgorithm):
    """Numerical gradient descent with random restarts."""

    def __init__(
        self,
        delta: float = 1e-4,
        epsilon: float = 1e-2,
        dynamic: bool = False,
        initial_step: float = 0.25,
        backtracking_factor: float = 0.5,
        armijo_c: float = 1e-4,
        max_line_search: int = 12,
        max_restarts: int = 10_000_000,
    ) -> None:
        super().__init__()
        if delta <= 0 or epsilon <= 0:
            raise ValueError("delta and epsilon must be positive")
        self.delta = float(delta)
        self.epsilon = float(epsilon)
        self.dynamic = bool(dynamic)
        self.initial_step = float(initial_step)
        self.backtracking_factor = float(backtracking_factor)
        self.armijo_c = float(armijo_c)
        self.max_line_search = int(max_line_search)
        self.max_restarts = int(max_restarts)
        self.name = "gddyn" if dynamic else "gdfix"

    # ------------------------------------------------------------------ #
    # ask/tell hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        self._phase = "restart"
        self._paths = 0
        self._x: np.ndarray | None = None
        self._fx = 0.0
        self._delta = self.delta
        self._gradient: np.ndarray | None = None
        self._directions: list[float] = []
        self._norm_sq = 0.0
        self._step = self.initial_step
        self._ls_iter = 0

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._phase == "restart":
            if self._paths >= self.max_restarts:
                return None
            self._paths += 1
            return [self.space.sample_unit(rng)]
        if self._phase == "gradient":
            # Forward finite-difference probes, one per dimension (one
            # extra evaluation per dimension, as in the paper).  They only
            # depend on the base point, so they form one batch.
            probes = []
            self._directions = []
            for i in range(self._x.size):
                probe = np.array(self._x, copy=True)
                # Step inward when sitting on the upper bound so that the
                # probe stays inside the box.
                direction = 1.0 if self._x[i] + self._delta <= 1.0 else -1.0
                probe[i] = min(max(self._x[i] + direction * self._delta, 0.0), 1.0)
                probes.append(probe)
                self._directions.append(direction)
            return probes
        # line search: one backtracking (Armijo) probe along -gradient
        return [np.clip(self._x - self._step * self._gradient, 0.0, 1.0)]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        if self._phase == "restart":
            self._x, self._fx = candidates[0], values[0]
            self._delta = self.delta
            self._phase = "gradient"
            return
        if self._phase == "gradient":
            gradient = np.zeros_like(self._x)
            for i, (direction, fi) in enumerate(zip(self._directions, values, strict=True)):
                gradient[i] = (fi - self._fx) / (direction * self._delta)
            # A NaN difference along an axis means no descent along it.
            gradient[np.isnan(gradient)] = 0.0
            self._gradient = gradient
            self._norm_sq = float(np.dot(gradient, gradient))
            if self._norm_sq == 0.0:
                self._phase = "restart"  # no descent direction: restart
                return
            self._step = self.initial_step
            self._ls_iter = 0
            self._phase = "linesearch"
            return
        candidate, value = candidates[0], values[0]
        if value <= self._fx - self.armijo_c * self._step * self._norm_sq:
            improvement = self._fx - value
            self._x, self._fx = candidate, value
            if self.dynamic:
                self._delta = max(min(self._step, 0.25), 1e-6)
            # Converged on this path when the iteration improved by less
            # than epsilon; otherwise take the next gradient step.
            self._phase = "restart" if improvement < self.epsilon else "gradient"
            return
        self._step *= self.backtracking_factor
        self._ls_iter += 1
        if self._ls_iter >= self.max_line_search:
            self._phase = "restart"  # no step length decreased enough


# The dynamic-delta variant is registered under its own name so that the
# experiment scripts can select it by string exactly like the others.
ALGORITHMS["gddyn"] = lambda **options: GradientDescent(dynamic=True, **options)
