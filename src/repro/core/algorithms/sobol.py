"""Scrambled Sobol quasi-random search (extension).

A drop-in replacement for RANDOM that samples the normalised (log2)
parameter cube along a scrambled Sobol low-discrepancy sequence instead of
uniformly at random.  Low-discrepancy sequences cover the cube more evenly
for the same number of points, which matters when the budget only affords
a few hundred simulator invocations; the ablation benchmark quantifies the
effect against plain random search and Latin hypercube sampling.

The sequence comes from :mod:`scipy.stats.qmc`; the generator is
re-scrambled from the calibration seed so that, like every other
algorithm, the search is fully reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

if TYPE_CHECKING:  # pragma: no cover - scipy.stats costs ~1 s: imported on first use
    from scipy.stats import qmc

__all__ = ["SobolSearch"]


@register("sobol")
class SobolSearch(CalibrationAlgorithm):
    """Scrambled Sobol sequence sampling of the parameter space.

    Sobol sequences are balanced in blocks of powers of two; each ask/tell
    generation is one whole block of ``batch_size`` points, which the
    budget (or a parallel driver) may cut short.
    """

    name = "sobol"
    #: the sequence is fixed a priori — results can arrive in any order
    supports_async_tell = True

    def __init__(self, batch_size: int = 64, max_batches: int = 1_000_000) -> None:
        super().__init__()
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.batch_size = int(batch_size)
        self.max_batches = int(max_batches)

    def _setup(self) -> None:
        self._sampler: qmc.Sobol | None = None
        self._blocks = 0

    def _ensure_sampler(self, rng: np.random.Generator) -> qmc.Sobol:
        if self._sampler is None:
            from scipy.stats import qmc

            # Scrambled from the driver's rng, exactly like the original
            # blocking loop did (scipy spawns from the rng's seed
            # sequence, so a replayed rng re-scrambles identically).
            self._sampler = qmc.Sobol(d=self.space.dimension, scramble=True, seed=rng)
        return self._sampler

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._blocks >= self.max_batches:
            return None
        sampler = self._ensure_sampler(rng)
        self._blocks += 1
        return list(sampler.random(self.batch_size))
