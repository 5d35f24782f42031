"""Nelder-Mead downhill simplex (extension).

A derivative-free local search that maintains a simplex of ``d + 1``
points in the normalised (log2) parameter cube and iteratively reflects,
expands, contracts or shrinks it towards lower objective values.  Like the
paper's gradient descent, it is restarted from a fresh random simplex when
it converges, so that the whole budget is spent even on multi-modal
objectives.

Nelder-Mead is a natural next step above the paper's simple algorithms:
it needs no gradient estimate (one evaluation per probe instead of one per
dimension) and copes well with the "mostly flat along non-bottleneck
dimensions" landscape that Section IV.C.2 describes.

Ask/tell shape: the initial simplex and the shrink step are batches (their
vertices are mutually independent); reflection, expansion and contraction
are singleton probes whose outcome picks the next move.
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["NelderMead"]


@register("nelder-mead")
class NelderMead(CalibrationAlgorithm):
    """Box-constrained Nelder-Mead simplex with random restarts."""

    name = "nelder-mead"

    def __init__(
        self,
        reflection: float = 1.0,
        expansion: float = 2.0,
        contraction: float = 0.5,
        shrink: float = 0.5,
        initial_size: float = 0.25,
        tolerance: float = 1e-3,
        max_iterations_per_restart: int = 200,
        max_restarts: int = 10_000_000,
    ) -> None:
        super().__init__()
        if not (reflection > 0 and expansion > 1 and 0 < contraction < 1 and 0 < shrink < 1):
            raise ValueError("invalid Nelder-Mead coefficients")
        self.reflection = float(reflection)
        self.expansion = float(expansion)
        self.contraction = float(contraction)
        self.shrink = float(shrink)
        self.initial_size = float(initial_size)
        self.tolerance = float(tolerance)
        self.max_iterations_per_restart = int(max_iterations_per_restart)
        self.max_restarts = int(max_restarts)

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #
    def _initial_simplex(self, rng: np.random.Generator) -> np.ndarray:
        """A random point plus one offset vertex per dimension."""
        d = self.space.dimension
        origin = self.space.sample_unit(rng)
        vertices = [origin]
        for i in range(d):
            vertex = np.array(origin, copy=True)
            offset = (
                self.initial_size if vertex[i] + self.initial_size <= 1.0 else -self.initial_size
            )
            vertex[i] = min(max(vertex[i] + offset, 0.0), 1.0)
            vertices.append(vertex)
        return np.array(vertices)

    @staticmethod
    def _clip(x: np.ndarray) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)

    # ------------------------------------------------------------------ #
    # ask/tell hooks
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        self._phase = "restart"
        self._restarts = 0
        self._simplex: np.ndarray | None = None
        self._f: np.ndarray | None = None
        self._iteration = 0
        self._centroid: np.ndarray | None = None
        self._reflected: np.ndarray | None = None
        self._f_reflected = 0.0

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        while True:
            if self._phase == "restart":
                if self._restarts >= self.max_restarts:
                    return None
                self._restarts += 1
                self._simplex = self._initial_simplex(rng)
                return list(self._simplex)
            if self._phase == "iterate":
                if self._iteration >= self.max_iterations_per_restart:
                    self._phase = "restart"
                    continue
                order = np.argsort(self._f)
                self._simplex, self._f = self._simplex[order], self._f[order]
                if self._f[-1] - self._f[0] < self.tolerance:
                    self._phase = "restart"  # converged: fresh random simplex
                    continue
                self._centroid = self._simplex[:-1].mean(axis=0)
                self._reflected = self._clip(
                    self._centroid + self.reflection * (self._centroid - self._simplex[-1])
                )
                self._phase = "reflect"
                return [self._reflected]
            if self._phase == "expand":
                return [
                    self._clip(
                        self._centroid + self.expansion * (self._reflected - self._centroid)
                    )
                ]
            if self._phase == "contract":
                return [
                    self._clip(
                        self._centroid + self.contraction * (self._simplex[-1] - self._centroid)
                    )
                ]
            # shrink: every vertex moves towards the best one (one batch)
            return [
                self._clip(self._simplex[0] + self.shrink * (self._simplex[i] - self._simplex[0]))
                for i in range(1, len(self._simplex))
            ]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        if self._phase == "restart":
            self._f = np.array(values)
            self._iteration = 0
            self._phase = "iterate"
            return
        if self._phase == "reflect":
            self._f_reflected = values[0]
            if self._f_reflected < self._f[0]:
                self._phase = "expand"
            elif self._f_reflected < self._f[-2]:
                self._simplex[-1], self._f[-1] = self._reflected, self._f_reflected
                self._iteration += 1
                self._phase = "iterate"
            else:
                self._phase = "contract"
            return
        if self._phase == "expand":
            expanded, f_expanded = candidates[0], values[0]
            if f_expanded < self._f_reflected:
                self._simplex[-1], self._f[-1] = expanded, f_expanded
            else:
                self._simplex[-1], self._f[-1] = self._reflected, self._f_reflected
            self._iteration += 1
            self._phase = "iterate"
            return
        if self._phase == "contract":
            contracted, f_contracted = candidates[0], values[0]
            if f_contracted < self._f[-1]:
                self._simplex[-1], self._f[-1] = contracted, f_contracted
                self._iteration += 1
                self._phase = "iterate"
            else:
                self._phase = "shrink"
            return
        # shrink
        for i, (vertex, value) in enumerate(zip(candidates, values, strict=True), start=1):
            self._simplex[i] = vertex
            self._f[i] = value
        self._iteration += 1
        self._phase = "iterate"
