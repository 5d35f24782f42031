"""Parallel evaluation and cross-validation of calibrations."""

import numpy as np
import pytest

from repro.core import (
    Fold,
    ParallelEvaluator,
    Parameter,
    ParameterSpace,
    cross_validate,
    k_fold_splits,
    leave_one_out_splits,
    subset_splits,
)


def make_space(dimension=2):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


class _QuadraticObjective:
    """Picklable objective with a known optimum in unit coordinates."""

    def __init__(self, space, optimum=0.3):
        self.space = space
        self.optimum = optimum

    def __call__(self, values):
        unit = self.space.to_unit_array(values)
        return float(np.sum((unit - self.optimum) ** 2)) * 50.0


class TestParallelEvaluator:
    def test_thread_and_serial_agree(self):
        space = make_space()
        objective = _QuadraticObjective(space)
        batch = [space.from_unit_array([x, x]) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]

        def values(workers, mode):
            with ParallelEvaluator(objective, space, workers=workers, mode=mode) as evaluator:
                futures = [evaluator.submit(candidate) for candidate in batch]
                return [future.result(timeout=30)[0] for future in futures]

        serial = values(1, "serial")
        assert serial == pytest.approx([objective(candidate) for candidate in batch])
        assert values(3, "thread") == pytest.approx(serial)

    def test_invalid_configuration(self):
        space = make_space()
        with pytest.raises(ValueError):
            ParallelEvaluator(_QuadraticObjective(space), space, workers=0)
        with pytest.raises(ValueError):
            ParallelEvaluator(_QuadraticObjective(space), space, mode="gpu")


class TestSplits:
    def test_k_fold_covers_every_key_once(self):
        keys = list(range(10))
        folds = k_fold_splits(keys, 5, seed=1)
        assert len(folds) == 5
        tested = [k for fold in folds for k in fold.test]
        assert sorted(tested) == keys
        for fold in folds:
            assert sorted(fold.train + fold.test) == keys

    def test_k_fold_validation(self):
        with pytest.raises(ValueError):
            k_fold_splits([1, 2, 3], 1)
        with pytest.raises(ValueError):
            k_fold_splits([1, 2], 3)

    def test_leave_one_out(self):
        folds = leave_one_out_splits(["a", "b", "c"])
        assert len(folds) == 3
        assert {fold.test[0] for fold in folds} == {"a", "b", "c"}
        for fold in folds:
            assert len(fold.train) == 2

    def test_subset_splits_match_table5_counts(self):
        # The paper's Table V: 5 single-element subsets, 10 pairs, 10 triples.
        universe = [0.0, 0.3, 0.5, 0.7, 1.0]
        assert len(subset_splits(universe, 1)) == 5
        assert len(subset_splits(universe, 2)) == 10
        assert len(subset_splits(universe, 3)) == 10

    def test_subset_splits_with_explicit_test_keys(self):
        folds = subset_splits([1, 2, 3], 3, test_keys=[1, 2, 3, 4])
        assert folds[0].test == (4,)

    def test_fold_rejects_overlap_and_empty_train(self):
        with pytest.raises(ValueError):
            Fold((1, 2), (2, 3))
        with pytest.raises(ValueError):
            Fold((), (1,))


class TestCrossValidate:
    def test_reports_train_and_test_scores(self):
        space = make_space()
        # Scenario keys shift the optimum: training on a subset biases the
        # calibration towards that subset's mean optimum.
        optima = {"a": 0.2, "b": 0.4, "c": 0.8}

        def builder(train_keys):
            target = float(np.mean([optima[k] for k in train_keys]))
            return _QuadraticObjective(space, optimum=target)

        def evaluator(values, test_keys):
            target = float(np.mean([optima[k] for k in test_keys]))
            return _QuadraticObjective(space, optimum=target)(values)

        result = cross_validate(
            builder, evaluator, leave_one_out_splits(list(optima)), space,
            algorithm="random", budget=60, seed=3,
        )
        assert len(result.folds) == 3
        summary = result.summary()
        assert summary["best"] <= summary["median"] <= summary["worst"]
        # Held-out scenarios are harder than the training ones on average.
        assert summary["mean_gap"] > 0.0

    def test_integer_budget_is_an_evaluation_count(self):
        space = make_space()
        result = cross_validate(
            lambda train: _QuadraticObjective(space),
            lambda values, test: 0.0,
            k_fold_splits([1, 2, 3, 4], 2, seed=0),
            space,
            budget=15,
            seed=1,
        )
        assert all(fold.evaluations == 15 for fold in result.folds)
