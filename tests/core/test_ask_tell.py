"""The ask/tell protocol: serial parity, batching semantics, registry kwargs.

The heart of this file is the parity test: the serial driver on the new
ask/tell base class must reproduce, byte for byte, the trajectories of the
original blocking-loop implementations.  The reference trajectories in
``data/seed_trajectories.json`` were captured from the pre-ask/tell seed
code (see ``data/generate_seed_trajectories.py``), so any behavioural
drift in the migration fails here with the exact evaluation index.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    get_algorithm,
)
from repro.core.algorithms import CalibrationAlgorithm
from repro.core.algorithms.cmaes import CMAES
from repro.core.algorithms.differential_evolution import DifferentialEvolution

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "seed_trajectories.json").read_text()
)


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def fixture_objective(space):
    """The synthetic objective the fixture was captured with."""

    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0 + float(
            np.sum(1.0 - np.cos(5.0 * np.pi * (unit - 0.37)))
        )

    return objective


def quadratic_objective(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


class TestSerialParityWithSeedImplementations:
    def test_fixture_covers_every_registered_algorithm(self):
        assert sorted(FIXTURE["trajectories"]) == sorted(ALGORITHMS)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_trajectory_is_byte_identical_to_seed(self, name):
        reference = FIXTURE["trajectories"][name]
        space = make_space(FIXTURE["dimension"])
        result = Calibrator(
            space,
            fixture_objective(space),
            algorithm=name,
            budget=EvaluationBudget(FIXTURE["evaluations"]),
            seed=FIXTURE["seed"],
        ).run()
        got = [{"unit": list(e.unit), "value": e.value} for e in result.history]
        assert len(got) == len(reference)
        for i, (g, r) in enumerate(zip(got, reference)):
            assert g["unit"] == r["unit"], f"{name}: unit diverged at evaluation {i}"
            assert g["value"] == r["value"], f"{name}: value diverged at evaluation {i}"


class TestProtocol:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_all_builtin_algorithms_are_native_ask_tell(self, name):
        algorithm = get_algorithm(name)
        assert type(algorithm)._generate is not CalibrationAlgorithm._generate

    def test_ask_before_setup_raises(self):
        algorithm = get_algorithm("random")
        with pytest.raises(RuntimeError):
            algorithm.ask(np.random.default_rng(0), 1)

    def test_tell_more_than_asked_raises(self):
        algorithm = get_algorithm("random")
        algorithm.setup(make_space(2))
        rng = np.random.default_rng(0)
        candidates = algorithm.ask(rng, 2)
        assert len(candidates) == 2
        with pytest.raises(ValueError):
            algorithm.tell(candidates + candidates, [1.0, 2.0, 3.0, 4.0])

    def test_mismatched_tell_lengths_raise(self):
        algorithm = get_algorithm("random")
        algorithm.setup(make_space(2))
        candidates = algorithm.ask(np.random.default_rng(0), 1)
        with pytest.raises(ValueError):
            algorithm.tell(candidates, [1.0, 2.0])

    def test_population_algorithm_drains_generation_in_chunks(self):
        """A CMA-ES generation surfaces whole, chunked to the ask width."""
        space = make_space(3)
        algorithm = CMAES(population_size=8)
        algorithm.setup(space)
        rng = np.random.default_rng(1)
        first = algorithm.ask(rng, 3)
        assert len(first) == 3
        rest = algorithm.ask(rng, 100)
        assert len(rest) == 5  # the remainder of the generation, nothing more
        # No further candidates until the outstanding generation is told.
        assert algorithm.ask(rng, 1) == []
        assert not algorithm.done()
        algorithm.tell(first + rest, [float(i) for i in range(8)])
        assert len(algorithm.ask(rng, 1)) == 1

    def test_chunked_tells_complete_a_generation(self):
        space = make_space(2)
        algorithm = DifferentialEvolution(population_size=6)
        algorithm.setup(space)
        rng = np.random.default_rng(3)
        population = algorithm.ask(rng, 6)
        assert len(population) == 6
        for candidate in population:  # one tell per candidate
            algorithm.tell([candidate], [float(np.sum(candidate))])
        trial = algorithm.ask(rng, 1)
        assert len(trial) == 1  # the generation observed, evolution started

    def test_hand_rolled_driver_matches_calibrator(self):
        """The documented manual ask/tell loop reproduces Calibrator.run()."""
        space = make_space(2)
        objective = quadratic_objective(space)
        reference = Calibrator(
            space, objective, algorithm="annealing", budget=EvaluationBudget(40), seed=5
        ).run()

        algorithm = get_algorithm("annealing")
        algorithm.setup(space)
        rng = np.random.default_rng(5)
        evaluations = []
        while len(evaluations) < 40 and not algorithm.done():
            for candidate in algorithm.ask(rng, 1):
                value = objective(space.from_unit_array(space.clip_unit(candidate)))
                algorithm.tell([candidate], [value])
                evaluations.append(value)
        assert evaluations == [e.value for e in reference.history]


class TestRegistryKwargs:
    def test_get_algorithm_forwards_constructor_options(self):
        assert get_algorithm("cmaes", population_size=8).population_size == 8
        assert get_algorithm("de", population_size=6, mutation=0.5).mutation == 0.5
        assert get_algorithm("lhs", batch_size=4).batch_size == 4

    def test_gddyn_alias_accepts_options_too(self):
        algorithm = get_algorithm("gddyn", epsilon=0.5)
        assert algorithm.dynamic is True
        assert algorithm.epsilon == 0.5

    def test_options_on_an_instance_are_rejected(self):
        instance = get_algorithm("random")
        with pytest.raises(ValueError):
            get_algorithm(instance, max_iterations=3)

    def test_invalid_option_values_still_validate(self):
        with pytest.raises(ValueError):
            get_algorithm("de", population_size=2)

    @pytest.mark.parametrize("name, options, workers", [
        ("cmaes", {"population_size": 6}, 3),
        ("de", {"mutation": 0.5}, 3),
        # TPE takes tells out of order: one candidate in flight keeps it serial
        ("tpe", {"warmup": 6}, 1),
    ])
    def test_configured_instance_walks_the_serial_trajectory_under_every_driver(
        self, name, options, workers
    ):
        """A driver runs the instance it is given: its non-default options
        move the serial trajectory, and the pooled drivers walk it too."""
        space = make_space(3)
        objective = quadratic_objective(space)

        def units(driver, algorithm, **kwargs):
            result = driver(space, objective, algorithm=algorithm, budget=EvaluationBudget(60),
                            seed=4, **kwargs).run()
            return [e.unit for e in result.history]

        serial = units(Calibrator, get_algorithm(name, **options))
        assert serial != units(Calibrator, name)
        for driver in (BatchCalibrator, AsyncCalibrator):
            configured = get_algorithm(name, **options)
            assert units(driver, configured, workers=workers, mode="thread") == serial, driver
