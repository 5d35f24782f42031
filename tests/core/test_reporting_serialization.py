"""Calibration reports and JSON persistence of results."""

import json
import math

import numpy as np
import pytest

from repro.core import (
    Calibrator,
    Evaluation,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    calibration_report,
    convergence_sparkline,
    save_result,
)
from repro.core.serialization import (
    FORMAT_VERSION,
    evaluation_from_dict,
    evaluation_to_dict,
    result_from_dict,
    result_to_dict,
)


@pytest.fixture(scope="module")
def space():
    return ParameterSpace(
        [
            Parameter("bandwidth", 2.0**10, 2.0**30, unit="B/s"),
            Parameter("speed", 2.0**10, 2.0**30, unit="flop/s"),
        ]
    )


@pytest.fixture(scope="module")
def result(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.4) ** 2)) * 100.0

    return Calibrator(space, objective, "random", EvaluationBudget(40), seed=7).run()


class TestSerialization:
    def test_roundtrip_preserves_everything(self, result, tmp_path):
        path = save_result(result, tmp_path / "nested" / "run.json")
        loaded = result_from_dict(json.loads(path.read_text()))
        assert loaded.algorithm == result.algorithm
        assert loaded.best_value == pytest.approx(result.best_value)
        assert loaded.best_values == pytest.approx(result.best_values)
        assert loaded.evaluations == result.evaluations
        assert loaded.seed == result.seed
        assert len(loaded.history) == len(result.history)
        assert loaded.history.best_so_far() == pytest.approx(result.history.best_so_far())

    def test_dict_roundtrip_without_disk(self, result):
        clone = result_from_dict(result_to_dict(result))
        assert clone.budget_description == result.budget_description
        assert [e.values for e in clone.history] == [e.values for e in result.history]

    def test_format_version_is_checked(self, result):
        payload = result_to_dict(result)
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            result_from_dict(payload)

    def test_evaluation_dict_roundtrip(self):
        evaluation = Evaluation(index=3, values={"x": 1.0}, unit=(0.0,), value=2.5,
                                started_at=0.5, finished_at=0.75, cached=True)
        assert evaluation_from_dict(evaluation_to_dict(evaluation)) == evaluation


class TestReporting:
    def test_report_mentions_parameters_and_convergence(self, result, space):
        text = calibration_report(result, space, objective_name="MRE")
        assert "bandwidth" in text and "speed" in text
        assert "B/s" in text
        assert "best MRE" in text
        assert "100%" in text
        assert "sparkline" in text

    def test_report_without_a_space_uses_value_names(self, result):
        text = calibration_report(result)
        assert "bandwidth" in text

    def test_sparkline_is_bounded_and_nonempty(self, result):
        line = convergence_sparkline(result, width=30)
        assert 0 < len(line) <= 40
        # The best-so-far curve decays, so the last character must not be the
        # highest level.
        assert line[-1] != "@" or line[0] == "@"

    def test_sparkline_flat_history(self, space):
        constant = Calibrator(space, lambda values: 5.0, "random", EvaluationBudget(10), seed=1).run()
        line = convergence_sparkline(constant)
        assert set(line) == {"."}

    def test_a_run_that_starts_with_nan_reports_the_history_best(self, space):
        values = iter([math.nan, 5.0, 1.0, 3.0])
        result = Calibrator(
            space, lambda _: next(values), "random", EvaluationBudget(4), seed=1
        ).run()
        assert result.history.best is result.history[2]
        text = calibration_report(result, space)
        assert "best point found at evaluation 3 of 4" in text
        # The curve is inf before the first number: a blank, not a scale.
        assert convergence_sparkline(result) == " @.."

    def test_a_run_of_only_nan_values_renders(self, space):
        result = Calibrator(
            space, lambda _: math.nan, "random", EvaluationBudget(5), seed=1
        ).run()
        text = calibration_report(result, space)
        assert "best point found at evaluation 1 of 5" in text
        assert convergence_sparkline(result) == " " * 5

    def test_a_best_point_in_the_last_tenth_is_flagged_late(self, space):
        values = iter([10.0 - i for i in range(10)])
        result = Calibrator(
            space, lambda _: next(values), "random", EvaluationBudget(10), seed=1
        ).run()
        text = calibration_report(result, space)
        assert "best point found at evaluation 10 of 10  (late" in text
        assert convergence_sparkline(result)[0] == "@"

    def test_an_early_best_point_is_not_flagged(self, space):
        values = iter([0.5] + [10.0 - i for i in range(9)])
        result = Calibrator(
            space, lambda _: next(values), "random", EvaluationBudget(10), seed=1
        ).run()
        text = calibration_report(result, space)
        assert "best point found at evaluation 1 of 10\n" in text
        assert "late" not in text
