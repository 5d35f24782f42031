"""Differential evolution (extension).

A population-based global optimizer (DE/rand/1/bin): each generation every
member is challenged by a trial vector built from the scaled difference of
two other members added to a third, crossed over with the parent; the
better of parent and trial survives.  Differential evolution is a common
"first sophisticated thing to try" for black-box simulator calibration, so
it is a useful yardstick against the paper's deliberately simple GRID /
RANDOM / gradient-descent trio.

All candidates live in the normalised (log2) unit cube and are clipped to
the box, exactly like the paper's algorithms.

Two selection schemes are available:

* the default (``synchronous=False``) is the historical *immediate
  update*: a winning trial replaces its parent right away, so later
  trials in the same generation already build on it.  The initial
  population is asked as one batch, but trials are sequentially
  dependent and therefore asked one at a time — seeded trajectories are
  byte-identical to the original blocking loop;
* ``synchronous=True`` is classic generational DE: every trial of a
  generation is built from the generation-start population and asked as
  one batch, so a parallel driver can evaluate a whole generation
  concurrently (at the cost of a different — equally valid — trajectory).
"""

from __future__ import annotations


import numpy as np

from repro.core.algorithms.base import CalibrationAlgorithm, register

__all__ = ["DifferentialEvolution"]


@register("de")
class DifferentialEvolution(CalibrationAlgorithm):
    """DE/rand/1/bin with box clipping."""

    name = "de"

    def __init__(
        self,
        population_size: int = 24,
        mutation: float = 0.7,
        crossover: float = 0.9,
        max_generations: int = 10_000_000,
        synchronous: bool = False,
    ) -> None:
        super().__init__()
        if population_size < 4:
            raise ValueError("differential evolution needs a population of at least 4")
        if not 0.0 < mutation <= 2.0:
            raise ValueError("the mutation factor must be in (0, 2]")
        if not 0.0 < crossover <= 1.0:
            raise ValueError("the crossover rate must be in (0, 1]")
        self.population_size = int(population_size)
        self.mutation = float(mutation)
        self.crossover = float(crossover)
        self.max_generations = int(max_generations)
        self.synchronous = bool(synchronous)

    def _setup(self) -> None:
        self._phase = "init"
        self._population: np.ndarray | None = None
        self._fitness: np.ndarray | None = None
        self._member = 0
        self._generation = 0

    def _trial(self, i: int, rng: np.random.Generator) -> np.ndarray:
        """The DE/rand/1/bin trial vector challenging member ``i``."""
        d = self.space.dimension
        n = self.population_size
        # Three distinct members other than i.
        choices = [j for j in range(n) if j != i]
        a, b, c = rng.choice(choices, size=3, replace=False)
        mutant = np.clip(
            self._population[a]
            + self.mutation * (self._population[b] - self._population[c]),
            0.0,
            1.0,
        )
        # Binomial crossover with a guaranteed mutant coordinate.
        cross = rng.uniform(size=d) < self.crossover
        cross[rng.integers(d)] = True
        return np.where(cross, mutant, self._population[i])

    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray] | None:
        if self._phase == "init":
            return [self.space.sample_unit(rng) for _ in range(self.population_size)]
        if self._generation >= self.max_generations:
            return None
        if self.synchronous:
            return [self._trial(i, rng) for i in range(self.population_size)]
        return [self._trial(self._member, rng)]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        if self._phase == "init":
            self._population = np.array(candidates)
            self._fitness = np.array(values)
            self._phase = "evolve"
            self._member = 0
            return
        if self.synchronous:
            for i, (trial, f_trial) in enumerate(zip(candidates, values, strict=True)):
                if f_trial <= self._fitness[i]:
                    self._population[i], self._fitness[i] = trial, f_trial
            self._generation += 1
            return
        trial, f_trial = candidates[0], values[0]
        if f_trial <= self._fitness[self._member]:
            self._population[self._member] = trial
            self._fitness[self._member] = f_trial
        self._member += 1
        if self._member >= self.population_size:
            self._member = 0
            self._generation += 1
