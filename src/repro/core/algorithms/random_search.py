"""Random search (RANDOM in the paper).

"This algorithm simply evaluates sets of random parameter values, where
each value is sampled uniformly in its parameter range" — with the log2
representation of Section III.A, uniform sampling of the normalised
coordinate is log-uniform sampling of the parameter value.

Samples are independent, so :meth:`~RandomSearch._generate` honours the
driver's capacity hint exactly: a parallel driver asking ``n`` candidates
gets ``n`` fresh samples, and the rng stream is identical to the serial
one (the draws just happen ahead of the evaluations).
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["RandomSearch"]


@register("random")
class RandomSearch(CalibrationAlgorithm):
    """Uniform random sampling of the (log-scaled) parameter space."""

    name = "random"
    #: samples are i.i.d. — results can be ingested in any completion order
    supports_async_tell = True

    def __init__(self, max_iterations: int = 10_000_000) -> None:
        super().__init__()
        self.max_iterations = int(max_iterations)

    def _setup(self) -> None:
        self._count = 0

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        remaining = self.max_iterations - self._count
        if remaining <= 0:
            return None
        k = min(max(n, 1), remaining)
        samples = [self.space.sample_unit(rng) for _ in range(k)]
        self._count += k
        return samples
