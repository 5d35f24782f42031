"""Protocol contracts every registered calibration algorithm must keep.

Driven through ``ask``/``tell`` directly (no calibrator in between), so a
failure points at the algorithm rather than at a driver:

* every candidate is a finite point of the unit cube with one coordinate
  per parameter (the parameter space maps the cube onto the bounds, so a
  coordinate outside it is a value outside the calibration range);
* ``setup`` resets the search: a second run on the same instance with the
  same seed asks for exactly the same candidates;
* a ``state_dict`` taken with a candidate asked but not told survives a
  JSON round trip, the restored algorithm hands that candidate out again,
  and the search then continues exactly as the uninterrupted one.

The samplers behind ``lhs`` and ``sobol`` get their own checks at the end.
"""

import copy
import json

import numpy as np
import pytest

from repro.core import ALGORITHMS, Parameter, ParameterSpace, get_algorithm
from repro.core.algorithms.latin_hypercube import LatinHypercubeSearch
from repro.core.algorithms.sobol import SobolSearch

ALL_ALGORITHMS = sorted(ALGORITHMS)


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def unit_objective(unit):
    """Smooth bowl plus ripples, evaluated directly on unit-cube points."""
    unit = np.asarray(unit, dtype=float)
    return float(np.sum((unit - 0.37) ** 2)) * 100.0 + float(
        np.sum(1.0 - np.cos(5.0 * np.pi * (unit - 0.37)))
    )


def drive(algorithm, rng, steps):
    """Ask/tell one candidate at a time; returns the candidates asked."""
    asked = []
    for _ in range(steps):
        candidates = algorithm.ask(rng, 1)
        if not candidates:
            break
        asked.extend(candidates)
        algorithm.tell(candidates, [unit_objective(c) for c in candidates])
    return asked


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_candidates_are_finite_points_of_the_unit_cube(name):
    space = make_space(3)
    algorithm = get_algorithm(name)
    algorithm.setup(space)
    asked = drive(algorithm, np.random.default_rng(11), 40)
    assert asked, f"{name}: asked nothing"
    for candidate in asked:
        assert candidate.shape == (space.dimension,)
        assert np.all(np.isfinite(candidate))
        assert np.all(candidate >= 0.0) and np.all(candidate <= 1.0), candidate


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_setup_resets_the_search(name):
    space = make_space(2)
    algorithm = get_algorithm(name)
    algorithm.setup(space)
    first = drive(algorithm, np.random.default_rng(5), 15)
    algorithm.setup(space)
    second = drive(algorithm, np.random.default_rng(5), 15)
    assert len(first) == len(second) > 0
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_untold_candidate_is_redispatched_after_restore(name):
    space = make_space(3)
    rng = np.random.default_rng(2024)
    original = get_algorithm(name)
    original.setup(space)
    drive(original, rng, 7)
    pending = original.ask(rng, 1)
    assert len(pending) == 1, f"{name}: no candidate to leave untold"
    snapshot = json.loads(json.dumps(original.state_dict()))
    resumed_rng = copy.deepcopy(rng)

    restored = get_algorithm(name)
    restored.setup(space)
    restored.load_state_dict(snapshot)
    again = restored.ask(resumed_rng, 1)
    assert len(again) == 1
    np.testing.assert_array_equal(again[0], pending[0])

    # Both now tell the same result and must walk the same remaining path.
    value = unit_objective(pending[0])
    original.tell(pending, [value])
    restored.tell(again, [value])
    tail = drive(original, rng, 10)
    resumed_tail = drive(restored, resumed_rng, 10)
    assert len(tail) == len(resumed_tail)
    for a, b in zip(tail, resumed_tail):
        np.testing.assert_array_equal(a, b)


class TestLatinHypercubeSampler:
    def test_every_batch_is_stratified_in_every_dimension(self):
        space = make_space(4)
        algorithm = LatinHypercubeSearch(batch_size=16)
        algorithm.setup(space)
        rng = np.random.default_rng(3)
        for _ in range(3):
            batch = np.array(algorithm.ask(rng, 16))
            assert batch.shape == (16, 4)
            for d in range(4):
                strata = np.floor(batch[:, d] * 16).astype(int)
                assert sorted(strata) == list(range(16))
            algorithm.tell(list(batch), [unit_objective(c) for c in batch])

    def test_batch_size_below_two_is_rejected(self):
        with pytest.raises(ValueError):
            LatinHypercubeSearch(batch_size=1)

    def test_max_batches_ends_the_search(self):
        algorithm = LatinHypercubeSearch(batch_size=4, max_batches=2)
        algorithm.setup(make_space(2))
        asked = drive(algorithm, np.random.default_rng(0), 100)
        assert len(asked) == 8
        assert algorithm.done()


class TestSobolSampler:
    def test_a_power_of_two_block_is_balanced_in_every_dimension(self):
        algorithm = SobolSearch(batch_size=32)
        algorithm.setup(make_space(3))
        block = np.array(algorithm.ask(np.random.default_rng(8), 32))
        assert block.shape == (32, 3)
        for d in range(3):
            # A scrambled Sobol block of 2^k points puts exactly one point
            # in each of the 2^k equal intervals of every coordinate.
            strata = np.floor(block[:, d] * 32).astype(int)
            assert sorted(strata) == list(range(32))

    def test_different_seeds_scramble_differently(self):
        blocks = []
        for seed in (1, 2):
            algorithm = SobolSearch(batch_size=8)
            algorithm.setup(make_space(2))
            blocks.append(np.array(algorithm.ask(np.random.default_rng(seed), 8)))
        assert not np.array_equal(blocks[0], blocks[1])

    def test_max_batches_ends_the_search(self):
        algorithm = SobolSearch(batch_size=4, max_batches=3)
        algorithm.setup(make_space(2))
        asked = drive(algorithm, np.random.default_rng(0), 100)
        assert len(asked) == 12
        assert algorithm.done()
