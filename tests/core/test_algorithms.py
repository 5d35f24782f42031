"""Calibration algorithms on synthetic objectives.

Each algorithm must (i) respect the budget machinery, (ii) make progress on
a smooth synthetic objective whose optimum is known, and (iii) behave
deterministically for a fixed seed.
"""

import math

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    TimeBudget,
    get_algorithm,
)
from repro.core.algorithms.bayesian import BayesianOptimization, _ndtr
from repro.core.algorithms.grid import GridSearch


def make_space(dimension=3):
    return ParameterSpace(
        [Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)]
    )


def quadratic_objective(space, optimum_unit=0.37):
    """Distance (in unit space) to a known optimum — smooth and convex."""

    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - optimum_unit) ** 2)) * 100.0

    return objective


ALL_ALGORITHMS = sorted(ALGORITHMS)


class TestRegistry:
    def test_expected_algorithms_registered(self):
        for name in ("random", "grid", "gdfix", "gddyn", "lhs", "coordinate",
                     "annealing", "bayesian"):
            assert name in ALGORITHMS

    def test_get_algorithm_aliases_and_errors(self):
        assert get_algorithm("GD").name == "gdfix"
        assert get_algorithm("bo").name == "bayesian"
        assert get_algorithm("gddyn").dynamic is True
        instance = get_algorithm("random")
        assert get_algorithm(instance) is instance
        with pytest.raises(KeyError):
            get_algorithm("simulated quantum annealing")


class TestGridConstruction:
    def test_level_coordinates(self):
        assert GridSearch.level_coordinates(0) == [0.0, 1.0]
        assert GridSearch.level_coordinates(1) == [0.0, 0.5, 1.0]
        assert len(GridSearch.level_coordinates(3)) == 9

    def test_new_coordinates_are_midpoints(self):
        assert GridSearch.new_coordinates(0) == [0.0, 1.0]
        assert GridSearch.new_coordinates(1) == [0.5]
        assert GridSearch.new_coordinates(2) == [0.25, 0.75]

    def test_grid_visits_corners_first(self):
        space = make_space(2)
        visited = []

        def objective(values):
            visited.append(space.to_unit_array(values))
            return 1.0

        calibrator = Calibrator(space, objective, algorithm="grid",
                                budget=EvaluationBudget(4), seed=0)
        calibrator.run()
        corners = {tuple(np.round(v, 6)) for v in visited}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}


class TestProgressOnSyntheticObjective:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_beats_random_single_sample_baseline(self, name):
        """With 120 evaluations every algorithm gets close to the optimum of
        a smooth 3-d bowl (value at the optimum is 0, worst case ~120)."""
        space = make_space(3)
        objective = quadratic_objective(space)
        budget = EvaluationBudget(120)
        calibrator = Calibrator(space, objective, algorithm=name, budget=budget, seed=3)
        result = calibrator.run()
        assert result.evaluations <= 120
        assert result.best_value < 20.0, f"{name} did not make progress"

    @pytest.mark.parametrize("name", ["gdfix", "gddyn", "coordinate", "bayesian"])
    def test_local_methods_get_very_close(self, name):
        space = make_space(2)
        objective = quadratic_objective(space)
        calibrator = Calibrator(space, objective, algorithm=name,
                                budget=EvaluationBudget(150), seed=5)
        result = calibrator.run()
        assert result.best_value < 2.0

    @pytest.mark.parametrize("name", ["random", "gdfix", "grid", "lhs"])
    def test_deterministic_given_seed(self, name):
        space = make_space(2)

        def run_once():
            calibrator = Calibrator(space, quadratic_objective(space), algorithm=name,
                                    budget=EvaluationBudget(40), seed=11)
            return calibrator.run()

        first, second = run_once(), run_once()
        assert first.best_value == pytest.approx(second.best_value)
        assert first.best_values == second.best_values

    def test_different_seeds_explore_differently(self):
        space = make_space(2)
        results = set()
        for seed in (1, 2, 3):
            calibrator = Calibrator(space, quadratic_objective(space), algorithm="random",
                                    budget=EvaluationBudget(10), seed=seed)
            results.add(round(calibrator.run().best_value, 9))
        assert len(results) > 1


class TestBudgetsAndResults:
    def test_time_budget_stops_algorithms(self):
        space = make_space(2)
        calibrator = Calibrator(space, quadratic_objective(space), algorithm="random",
                                budget=TimeBudget(0.2), seed=0)
        result = calibrator.run()
        assert result.elapsed < 5.0
        assert result.evaluations >= 1

    def test_result_contains_history_and_summary(self):
        space = make_space(2)
        calibrator = Calibrator(space, quadratic_objective(space), algorithm="random",
                                budget=EvaluationBudget(25), seed=0)
        result = calibrator.run()
        assert result.algorithm == "random"
        assert len(result.history) == result.evaluations == 25
        assert result.best_value == pytest.approx(min(e.value for e in result.history))
        assert "random" in result.summary()
        curve = result.history.best_so_far()
        assert all(curve[i + 1] <= curve[i] + 1e-12 for i in range(len(curve) - 1))

    def test_best_values_lie_within_bounds(self):
        space = make_space(3)
        calibrator = Calibrator(space, quadratic_objective(space), algorithm="annealing",
                                budget=EvaluationBudget(60), seed=2)
        result = calibrator.run()
        for parameter in space:
            assert parameter.low <= result.best_values[parameter.name] <= parameter.high

    def test_gradient_descent_on_multimodal_objective_restarts(self):
        """A sinusoidal bumpy objective: restarts should still find a decent
        basin within the budget."""
        space = make_space(2)

        def objective(values):
            unit = space.to_unit_array(values)
            return float(
                10 * np.sum((unit - 0.6) ** 2)
                + np.sum(1 - np.cos(6 * math.pi * (unit - 0.6)))
            )

        calibrator = Calibrator(space, objective, algorithm="gdfix",
                                budget=EvaluationBudget(200), seed=4)
        result = calibrator.run()
        assert result.best_value < 2.0


class TestBayesianNormalCdf:
    """The numpy port of Cephes ``ndtr`` against scipy, which runs the same
    C code: every bit must agree, so Expected Improvement does too."""

    def test_ndtr_matches_scipy_bitwise(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        rng = np.random.default_rng(20)
        for points in (rng.normal(0.0, 3.0, 600_000), rng.uniform(-45.0, 45.0, 600_000)):
            assert np.array_equal(_ndtr(points), ndtr(points), equal_nan=True)

    def test_ndtr_edges_match_scipy(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        root2 = math.sqrt(2.0)
        underflow = math.sqrt(2.0 * 7.09782712893383996843e2)  # -z*z = -MAXLOG
        # branch edges |a| = 1 (z = 1/sqrt(2)), sqrt(2) (z = 1), 8 sqrt(2) (z = 8)
        edges = np.array([0.0, 1.0, root2, 8 * root2, 37.5, underflow, 37.7, 38.0, 1e300])
        edges = np.concatenate([edges, -edges])
        points = np.concatenate(
            [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
             [np.inf, -np.inf, np.nan]]
        )
        assert np.array_equal(_ndtr(points), ndtr(points), equal_nan=True)
        assert _ndtr(np.array([np.inf, -np.inf])).tolist() == [1.0, 0.0]
        assert np.isnan(_ndtr(np.array([np.nan]))[0])

    def test_expected_improvement_matches_scipy_form(self):
        norm = pytest.importorskip("scipy.stats").norm
        rng = np.random.default_rng(21)
        mu = rng.normal(0.0, 2.0, 50_000)
        sigma = rng.uniform(1e-6, 3.0, 50_000)
        best, xi = 0.4, 0.01
        improvement = best - mu - xi
        z = improvement / sigma
        expected = improvement * norm.cdf(z) + sigma * norm.pdf(z)
        ei = BayesianOptimization._expected_improvement(mu, sigma, best, xi)
        assert np.array_equal(ei, expected)
