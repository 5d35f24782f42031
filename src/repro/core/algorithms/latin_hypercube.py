"""Latin hypercube sampling (extension).

A space-filling variant of random search: evaluations are drawn in batches
such that, within a batch, every dimension is stratified into as many
equal-probability bins as there are samples.  This gives better coverage
of each individual parameter range than plain uniform sampling for the
same number of evaluations — relevant because the paper observes that the
objective is mostly driven by one bottleneck parameter at a time.

Each ask/tell generation is one full Latin hypercube batch (the
stratification only holds within a batch), which makes this a natural fit
for the parallel batch driver.
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["LatinHypercubeSearch"]


@register("lhs")
class LatinHypercubeSearch(CalibrationAlgorithm):
    """Batched Latin hypercube sampling."""

    name = "lhs"
    #: the design is fixed per batch and batches are independent — results
    #: can be ingested in any completion order
    supports_async_tell = True

    def __init__(self, batch_size: int = 32, max_batches: int = 1_000_000) -> None:
        super().__init__()
        if batch_size < 2:
            raise ValueError("batch size must be at least 2")
        self.batch_size = int(batch_size)
        self.max_batches = int(max_batches)

    def _setup(self) -> None:
        self._batches = 0

    def _lhs_batch(self, dimension: int, rng: np.random.Generator) -> np.ndarray:
        """One Latin hypercube batch of shape (batch_size, dimension)."""
        n = self.batch_size
        samples = np.empty((n, dimension))
        for d in range(dimension):
            # One sample per stratum, random position within the stratum,
            # strata randomly permuted across samples.
            positions = (rng.permutation(n) + rng.uniform(0.0, 1.0, size=n)) / n
            samples[:, d] = positions
        return samples

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._batches >= self.max_batches:
            return None
        self._batches += 1
        return list(self._lhs_batch(self.space.dimension, rng))
