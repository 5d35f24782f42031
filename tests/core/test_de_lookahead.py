"""Differential evolution asks ahead of its tells.

A trial for member ``i`` reads rows ``i``, ``a``, ``b`` and ``c`` of the
population.  The default (immediate-update) DE hands it out as soon as
none of those members has a trial asked but not yet told, so a pooled
driver keeps more than one trial in flight after the initial population
while walking the serial trajectory byte for byte.
"""

import copy

import numpy as np
import pytest

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
)
from repro.core.algorithms.differential_evolution import DifferentialEvolution

DIMENSION = 3


def make_space():
    return ParameterSpace(
        [Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(DIMENSION)]
    )


def quadratic(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


def draw_reads(rng, member, population_size):
    """The members a trial reads, drawn as DE draws them (choice, then the
    crossover mask and its guaranteed coordinate)."""
    choices = [j for j in range(population_size) if j != member]
    a, b, c = rng.choice(choices, size=3, replace=False)
    rng.uniform(size=DIMENSION)
    rng.integers(DIMENSION)
    return {member, int(a), int(b), int(c)}


class CountingDE(DifferentialEvolution):
    """DE that counts asks and tells through the public protocol: the
    candidates in flight after each ask, and the tells made when
    ``done()`` first reads true."""

    def setup(self, space):
        self.asked = 0
        self.told = 0
        self.in_flight = []
        self.told_when_done = None
        super().setup(space)

    def ask(self, rng, n=1):
        out = super().ask(rng, n)
        self.asked += len(out)
        if out and self.asked > self.population_size:
            self.in_flight.append(self.asked - self.told)
        if self.done() and self.told_when_done is None:
            self.told_when_done = self.told
        return out

    def tell(self, candidates, values):
        super().tell(candidates, values)
        self.told += len(values)


def fingerprint(history):
    """Every recorded unit point and value, as raw bytes."""
    rows = [(*e.unit, e.value) for e in history]
    return np.asarray(rows, dtype=float).tobytes()


def run(driver, workers, population_size, max_generations, seed, budget=80):
    space = make_space()
    options = {"population_size": population_size}
    if max_generations is not None:
        options["max_generations"] = max_generations
    algorithm = CountingDE(**options)
    common = dict(algorithm=algorithm, budget=EvaluationBudget(budget), seed=seed)
    if driver == "serial":
        calibrator = Calibrator(space, quadratic(space), **common)
    elif driver == "batch":
        calibrator = BatchCalibrator(
            space, quadratic(space), workers=workers, mode="serial", **common
        )
    else:
        calibrator = AsyncCalibrator(
            space, quadratic(space), workers=workers, mode="serial", **common
        )
    return calibrator.run(), algorithm


def initialised(seed, population_size=8):
    """A DE past its initial population, and the rng that asked it."""
    space = make_space()
    objective = quadratic(space)
    algorithm = DifferentialEvolution(population_size=population_size)
    algorithm.setup(space)
    rng = np.random.default_rng(seed)
    population = algorithm.ask(rng, population_size)
    algorithm.tell(population, [objective(space.from_unit_array(x)) for x in population])
    return algorithm, rng, objective, space


class TestLookAhead:
    def test_second_trial_is_asked_exactly_when_it_reads_no_untold_member(self):
        outcomes = set()
        for seed in range(20):
            algorithm, rng, objective, space = initialised(seed)
            reference, ref_rng, _, _ = initialised(seed)
            # The draws of trials 0 and 1, made on a twin of the rng.
            twin = copy.deepcopy(rng)
            draw_reads(twin, 0, 8)
            reads_of_second = draw_reads(twin, 1, 8)
            serial = []
            for _ in range(2):
                (trial,) = reference.ask(ref_rng, 1)
                serial.append(trial)
                reference.tell([trial], [objective(space.from_unit_array(trial))])

            asked = algorithm.ask(rng, 2)
            blocked = 0 in reads_of_second
            assert len(asked) == (1 if blocked else 2), seed
            outcomes.add(blocked)
            assert np.array_equal(asked[0], serial[0])
            if blocked:
                assert algorithm.ask(rng, 2) == [], "trial 1 awaits trial 0's tell"
                algorithm.tell([asked[0]], [objective(space.from_unit_array(asked[0]))])
                (second,) = algorithm.ask(rng, 1)
                assert second.tobytes() == serial[1].tobytes()
            else:
                assert asked[1].tobytes() == serial[1].tobytes()
        assert outcomes == {True, False}, "both cases must occur among the seeds"

    def test_population_of_four_never_runs_ahead(self):
        """With four members every trial reads the whole population."""
        _, algorithm = run("async", 8, 4, None, seed=3)
        assert set(algorithm.in_flight) == {1}

    def test_tell_beyond_the_asked_trials_is_rejected(self):
        algorithm, rng, objective, space = initialised(0)
        (trial,) = algorithm.ask(rng, 1)
        with pytest.raises(ValueError, match="outstanding"):
            algorithm.tell([trial, trial], [1.0, 2.0])


@pytest.mark.parametrize("workers", [2, 3, 8])
@pytest.mark.parametrize("driver", ["batch", "async"])
@pytest.mark.parametrize("max_generations", [1, 2, None])
@pytest.mark.parametrize("population_size", [4, 6, 24])
@pytest.mark.parametrize("seed", [0, 7])
def test_pooled_de_equals_serial(seed, population_size, max_generations, driver, workers):
    serial, serial_de = run("serial", 1, population_size, max_generations, seed)
    pooled, pooled_de = run(driver, workers, population_size, max_generations, seed)
    assert fingerprint(pooled.history) == fingerprint(serial.history)
    assert [e.values for e in pooled.history] == [e.values for e in serial.history]
    assert pooled_de.told_when_done == serial_de.told_when_done
    if max_generations is not None and population_size * (max_generations + 1) < 80:
        assert serial_de.told_when_done == population_size * (max_generations + 1)


# Mean trials in flight after the initial population (the mean width of
# the batch driver's lock-step batches) for a default 24-member DE over
# 264 evaluations, seed 0.  Exact: they depend on the seed's draws only.
IN_FLIGHT = {1: 1.0, 2: 1.891, 4: 3.143, 8: 3.507, 16: 3.559}


@pytest.mark.parametrize("workers", sorted(IN_FLIGHT))
def test_trials_in_flight(workers):
    _, algorithm = run("batch", workers, 24, None, seed=0, budget=264)
    assert round(float(np.mean(algorithm.in_flight)), 3) == IN_FLIGHT[workers]
