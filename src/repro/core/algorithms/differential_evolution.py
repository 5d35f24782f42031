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

Selection is the historical *immediate update*: a winning trial
replaces its parent right away, so later trials in the same generation
already build on it.  The initial population is asked as one batch.  A
trial for member ``i`` reads rows ``i``, ``a``, ``b`` and ``c`` and
nothing else, so it is handed out before earlier trials are told
whenever none of those four members has a trial asked but not yet told;
otherwise it waits, its draws already made, for the tells it reads.  The
rng stream, every arithmetic step and the selection order are those of
the original blocking loop, so a serial run and a pooled one are
byte-identical.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

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

    def _setup(self) -> None:
        self._phase = "init"
        self._population: np.ndarray | None = None
        self._fitness: np.ndarray | None = None
        # The ask cursor: the next member to reach and its generation.
        self._member = 0
        self._generation = 0
        # The drawn trial not yet asked (its rows await tells): (i, a, b, c, cross).
        self._reached: tuple[int, int, int, int, np.ndarray] | None = None
        # Trials asked but not yet told, in ask order: (member, trial).
        self._untold: deque[tuple[int, np.ndarray]] = deque()

    def _draw(self, i: int, rng: np.random.Generator) -> tuple[int, int, int, int, np.ndarray]:
        """The random choices of the trial challenging member ``i``:
        three distinct other members and the crossover mask."""
        d = self.space.dimension
        choices = [j for j in range(self.population_size) if j != i]
        a, b, c = rng.choice(choices, size=3, replace=False)
        # Binomial crossover with a guaranteed mutant coordinate.
        cross = rng.uniform(size=d) < self.crossover
        cross[rng.integers(d)] = True
        return i, int(a), int(b), int(c), cross

    def _build(self, i: int, a: int, b: int, c: int, cross: np.ndarray) -> np.ndarray:
        """The DE/rand/1/bin trial vector from drawn choices."""
        mutant = np.clip(
            self._population[a]
            + self.mutation * (self._population[b] - self._population[c]),
            0.0,
            1.0,
        )
        return np.where(cross, mutant, self._population[i])

    def _ask_impl(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        if self._phase == "init":
            return super()._ask_impl(rng, n)
        if n < 1:
            raise ValueError("ask() needs n >= 1")
        out: list[np.ndarray] = []
        while len(out) < n and not self._finished:
            if self._reached is None:
                if self._generation >= self.max_generations:
                    # Finished only once every trial is told, as serially.
                    self._finished = not self._untold
                    break
                self._reached = self._draw(self._member, rng)
                self._member += 1
                if self._member >= self.population_size:
                    self._member = 0
                    self._generation += 1
            reads = self._reached[:4]
            if any(member in reads for member, _ in self._untold):
                break  # a row it reads awaits its tell
            trial = self._build(*self._reached)
            self._reached = None
            self._untold.append((reads[0], trial))
            out.append(trial)
        return out

    def _tell_impl(self, candidates: Sequence[np.ndarray], values: Sequence[float]) -> None:
        if self._phase == "init":
            super()._tell_impl(candidates, values)
            return
        if len(candidates) != len(values):
            raise ValueError("tell() needs one value per candidate")
        if len(values) > len(self._untold):
            raise ValueError(
                f"{self.name}: told {len(values)} results but only "
                f"{len(self._untold)} candidates are outstanding"
            )
        for value in values:
            i, trial = self._untold.popleft()
            f_trial = float(value)
            if f_trial <= self._fitness[i]:
                self._population[i] = trial
                self._fitness[i] = f_trial

    # The base class's batch hooks run the initial population only; the
    # trials go through ``_ask_impl``/``_tell_impl`` above.
    def _generate(self, rng: np.random.Generator, n: int) -> list[np.ndarray]:
        return [self.space.sample_unit(rng) for _ in range(self.population_size)]

    def _observe(self, candidates: list[np.ndarray], values: list[float]) -> None:
        self._population = np.array(candidates)
        self._fitness = np.array(values)
        self._phase = "evolve"
