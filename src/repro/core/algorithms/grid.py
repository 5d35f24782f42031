"""Progressively refined grid search (GRID in the paper).

"This algorithm evaluates all parameter combinations by subdividing the
parameter space evenly in each parameter range.  As the number of
subdivisions is not known in advance, each time all current subdivisions
of the range have been sampled, a new set of points to sample is
determined using the mid-points between each pair of already sampled
points."

Concretely, refinement level ``k`` places ``2**k + 1`` evenly spaced
points along each (log-scaled) dimension; level 0 is the range bounds.
At every level only the combinations containing at least one new
coordinate are evaluated (the others were already visited at previous
levels), and evaluation proceeds level by level until the budget runs
out.  Given ``p`` parameters and ``N`` completed invocations, each
parameter has therefore taken roughly ``N**(1/p)`` distinct values, as
stated in the paper.

The grid is deterministic, so its ask/tell state is just the current
level and its enumeration; candidates stream out in chunks sized to the
driver's capacity hint.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["GridSearch"]


@register("grid")
class GridSearch(CalibrationAlgorithm):
    """Iteratively refined full-factorial grid."""

    name = "grid"

    def __init__(self, max_level: int = 12) -> None:
        super().__init__()
        self.max_level = int(max_level)

    @staticmethod
    def level_coordinates(level: int) -> list[float]:
        """Normalised coordinates of refinement level ``level``."""
        n = 2**level + 1
        return [i / (n - 1) for i in range(n)]

    @staticmethod
    def new_coordinates(level: int) -> list[float]:
        """Coordinates introduced at ``level`` (mid-points of the previous level)."""
        if level == 0:
            return GridSearch.level_coordinates(0)
        previous = set(GridSearch.level_coordinates(level - 1))
        return [c for c in GridSearch.level_coordinates(level) if c not in previous]

    def _level_combos(self, level: int) -> Iterator[np.ndarray]:
        """Combinations evaluated at ``level``, in the paper's order: every
        combination containing at least one coordinate introduced there."""
        dimension = self.space.dimension
        all_coords = self.level_coordinates(level)
        fresh = set(self.new_coordinates(level))
        for combo in itertools.product(all_coords, repeat=dimension):
            if level > 0 and not any(c in fresh for c in combo):
                continue
            yield np.array(combo, dtype=float)

    def _setup(self) -> None:
        self._level = 0
        self._iter: Iterator[np.ndarray] | None = None

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        while self._level <= self.max_level:
            if self._iter is None:
                self._iter = self._level_combos(self._level)
            chunk = list(itertools.islice(self._iter, max(n, 1)))
            if chunk:
                return chunk
            self._level += 1
            self._iter = None
        return None
