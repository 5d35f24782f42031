"""The extension calibration algorithms (Nelder-Mead, DE, CMA-ES, pattern
search, TPE, Sobol) on synthetic objectives.

Mirrors tests/core/test_algorithms.py for the newly added optimizers: every
algorithm must respect the budget, make progress on a smooth convex
objective with a known optimum, and be deterministic for a fixed seed.
"""

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    get_algorithm,
)
from repro.core.algorithms.bayesian import BayesianOptimization
from repro.core.algorithms.cmaes import CMAES
from repro.core.algorithms.differential_evolution import DifferentialEvolution
from repro.core.algorithms.nelder_mead import NelderMead
from repro.core.algorithms.pattern_search import PatternSearch
from repro.core.algorithms.sobol import SobolSearch
from repro.core.algorithms.tpe import TPESearch

NEW_ALGORITHMS = ("nelder-mead", "de", "cmaes", "pattern", "tpe", "sobol")


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def quadratic_objective(space, optimum_unit=0.37):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - optimum_unit) ** 2)) * 100.0

    return objective


class TestRegistration:
    def test_new_algorithms_are_registered(self):
        for name in NEW_ALGORITHMS:
            assert name in ALGORITHMS

    def test_get_algorithm_builds_default_instances(self):
        assert isinstance(get_algorithm("nelder-mead"), NelderMead)
        assert isinstance(get_algorithm("de"), DifferentialEvolution)
        assert isinstance(get_algorithm("cmaes"), CMAES)
        assert isinstance(get_algorithm("pattern"), PatternSearch)
        assert isinstance(get_algorithm("tpe"), TPESearch)
        assert isinstance(get_algorithm("sobol"), SobolSearch)


class TestConstructorValidation:
    def test_nelder_mead_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            NelderMead(contraction=1.5)
        with pytest.raises(ValueError):
            NelderMead(expansion=0.5)

    def test_differential_evolution_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            DifferentialEvolution(population_size=3)
        with pytest.raises(ValueError):
            DifferentialEvolution(mutation=0.0)
        with pytest.raises(ValueError):
            DifferentialEvolution(crossover=1.5)

    def test_cmaes_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            CMAES(initial_sigma=0.0)

    def test_pattern_search_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            PatternSearch(step_reduction=1.0)
        with pytest.raises(ValueError):
            PatternSearch(initial_step=-0.1)

    def test_tpe_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            TPESearch(warmup=1)
        with pytest.raises(ValueError):
            TPESearch(gamma=1.0)

    def test_sobol_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            SobolSearch(batch_size=0)

    @pytest.mark.parametrize(
        "option, value",
        [
            ("candidates_per_iteration", 0),
            ("max_conditioning_points", 1),
            ("length_scale", 0.0),
            ("length_scale", float("inf")),
            ("noise", -1.0),
        ],
    )
    def test_bayesian_rejects_bad_settings(self, option, value):
        with pytest.raises(ValueError, match=option):
            BayesianOptimization(**{option: value})


class TestBudgetCompliance:
    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    def test_exactly_budget_evaluations(self, name):
        space = make_space()
        calibrator = Calibrator(
            space, quadratic_objective(space), algorithm=name,
            budget=EvaluationBudget(40), seed=7, cache=False,
        )
        result = calibrator.run()
        assert result.evaluations == 40


class TestProgress:
    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    def test_beats_the_first_random_sample(self, name):
        """After 120 evaluations the best value must be far below the
        average value of the quadratic over the cube (~ 2 * 100 / 12 per
        dimension away from the optimum)."""
        space = make_space()
        calibrator = Calibrator(
            space, quadratic_objective(space), algorithm=name,
            budget=EvaluationBudget(120), seed=3,
        )
        result = calibrator.run()
        assert result.best_value < 10.0

    @pytest.mark.parametrize("name", ("nelder-mead", "pattern", "cmaes"))
    def test_local_methods_nearly_find_the_optimum(self, name):
        space = make_space(dimension=2)
        calibrator = Calibrator(
            space, quadratic_objective(space), algorithm=name,
            budget=EvaluationBudget(200), seed=5,
        )
        result = calibrator.run()
        assert result.best_value < 0.5
        # The optimum sits at unit coordinate 0.37 in both dimensions.
        best_unit = space.to_unit_array(result.best_values)
        assert np.all(np.abs(best_unit - 0.37) < 0.1)


class TestDeterminism:
    @pytest.mark.parametrize("name", NEW_ALGORITHMS)
    def test_same_seed_same_history(self, name):
        space = make_space()

        def run(seed):
            calibrator = Calibrator(
                space, quadratic_objective(space), algorithm=name,
                budget=EvaluationBudget(50), seed=seed,
            )
            result = calibrator.run()
            return [round(e.value, 12) for e in result.history]

        assert run(11) == run(11)

    @pytest.mark.parametrize("name", ("de", "cmaes", "tpe"))
    def test_different_seed_different_samples(self, name):
        space = make_space()

        def first_values(seed):
            calibrator = Calibrator(
                space, quadratic_objective(space), algorithm=name,
                budget=EvaluationBudget(30), seed=seed,
            )
            result = calibrator.run()
            return tuple(round(e.value, 9) for e in result.history)

        assert first_values(1) != first_values(2)


class TestSobolCoverage:
    def test_sobol_points_are_distinct_and_in_bounds(self):
        space = make_space(dimension=2)
        seen = []

        def objective(values):
            unit = space.to_unit_array(values)
            seen.append(tuple(unit))
            return float(np.sum(unit))

        Calibrator(
            space, objective, algorithm="sobol", budget=EvaluationBudget(64), seed=0, cache=False
        ).run()
        assert len(seen) == 64
        assert len(set(seen)) == 64
        for point in seen:
            assert all(0.0 <= c <= 1.0 for c in point)
