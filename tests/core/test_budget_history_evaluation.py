"""Budgets, evaluation history and budget-aware objective evaluation."""

import math
import time

import pytest

from repro.core.budget import EvaluationBudget, TimeBudget
from repro.core.calibrator import Calibrator
from repro.core.evaluation import CACHE_DECIMALS, DictCache, unit_cache_key
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.parameters import Parameter, ParameterSpace


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 2.0**10), Parameter("y", 1.0, 2.0**10)])


def quadratic(values):
    unit = make_space().to_unit_array(values)
    return float(sum((unit - 0.4) ** 2)) * 100.0


class TestBudgets:
    def test_evaluation_budget(self):
        budget = EvaluationBudget(3)
        assert not budget.exhausted(0)
        assert not budget.exhausted(2)
        assert budget.exhausted(3)
        assert "3" in budget.describe()
        with pytest.raises(ValueError):
            EvaluationBudget(0)

    def test_time_budget(self):
        budget = TimeBudget(0.05)
        budget.start()
        assert not budget.exhausted(0)
        time.sleep(0.06)
        assert budget.exhausted(0)
        with pytest.raises(ValueError):
            TimeBudget(0.0)

    def test_time_budget_autostarts_on_first_check(self):
        budget = TimeBudget(100.0)
        assert not budget.exhausted(0)
        assert budget.elapsed >= 0.0

    def test_serial_run_performs_exactly_its_cap(self):
        result = Calibrator(make_space(), quadratic, "random", EvaluationBudget(30), seed=1).run()
        assert result.evaluations == 30

    def test_each_run_records_its_own_history(self):
        """A second run of one calibrator neither grows the first run's
        history nor counts its evaluations."""
        calibrator = Calibrator(make_space(), quadratic, "random", EvaluationBudget(5), seed=1)
        first = calibrator.run()
        second = calibrator.run()
        assert len(first.history) == 5
        assert second.evaluations == 5 and len(second.history) == 5
        assert calibrator.history is second.history


class TestHistory:
    def make_eval(self, index, value, finished_at=None):
        return Evaluation(
            index=index,
            values={"x": float(index)},
            unit=(0.0, 0.0),
            value=value,
            started_at=float(index),
            finished_at=finished_at if finished_at is not None else float(index) + 0.5,
        )

    def test_best_tracking(self):
        history = CalibrationHistory()
        for i, value in enumerate([10.0, 5.0, 7.0, 3.0, 9.0]):
            history.record(self.make_eval(i, value))
        assert history.best.value == 3.0
        assert len(history) == 5
        assert history.best_so_far() == [10.0, 5.0, 5.0, 3.0, 3.0]
        assert [e.value for e in history] == [10.0, 5.0, 7.0, 3.0, 9.0]

    def test_empty_history(self):
        history = CalibrationHistory()
        assert history.best is None
        assert history.best_so_far() == []

    def test_a_nan_never_displaces_a_number_and_a_number_displaces_a_nan(self):
        history = CalibrationHistory()
        bests = []
        for i, value in enumerate([math.nan, 10.0, math.nan, 7.0, math.nan]):
            history.record(self.make_eval(i, value, finished_at=float(i + 1)))
            bests.append(history.best.value)
        assert math.isnan(bests[0])
        assert bests[1:] == [10.0, 10.0, 7.0, 7.0]
        assert history.best_so_far() == [math.inf, 10.0, 10.0, 7.0, 7.0]

    def test_nan_is_the_best_only_when_every_value_is_nan(self):
        history = CalibrationHistory()
        for i in range(3):
            history.record(self.make_eval(i, math.nan))
        assert math.isnan(history.best.value)

    def test_a_leading_nan_does_not_become_the_run_best(self):
        space = make_space()
        values = iter([math.nan, 10.0, 9.0, 8.0, 7.0, 6.0])
        result = Calibrator(
            space, lambda _: next(values), algorithm="random",
            budget=EvaluationBudget(6), seed=1,
        ).run()
        assert result.best_value == 6.0
        assert result.best_value == result.history.best_so_far()[-1]


class TestObjective:
    """The objective as the serial driver evaluates it: history, best
    point, cache and budget."""

    def test_records_history_and_best(self, scripted):
        space = make_space()
        algorithm = scripted(space, [{"x": 4.0, "y": 8.0}, {"x": 2.0, "y": 2.0}])
        result = Calibrator(space, lambda v: v["x"] + v["y"], algorithm=algorithm).run()
        assert result.evaluations == 2
        assert result.best_value == pytest.approx(4.0)
        assert result.best_values == {"x": 2.0, "y": 2.0}

    def test_cache_hits_do_not_consume_budget(self, scripted):
        space = make_space()
        calls = []

        def fn(values):
            calls.append(values)
            return values["x"]

        a, b, c = {"x": 4.0, "y": 8.0}, {"x": 2.0, "y": 2.0}, {"x": 8.0, "y": 8.0}
        algorithm = scripted(space, [a, a, b, c])  # the second `a` is a cache hit
        cache = DictCache()
        result = Calibrator(space, fn, algorithm=algorithm,
                            budget=EvaluationBudget(2), cache=cache).run()
        assert calls == [a, b]  # `c` is past the budget
        assert result.evaluations == 2
        assert algorithm.told == pytest.approx([4.0, 4.0, 2.0])
        # Cached points can still be queried after exhaustion.
        key = unit_cache_key(space.to_unit_array(a), CACHE_DECIMALS)
        assert cache.get(key, a) == pytest.approx(4.0)

    def test_cache_can_be_disabled(self, scripted):
        space = make_space()
        calls = []
        point = {"x": 4.0, "y": 8.0}
        Calibrator(space, lambda v: calls.append(1) or 0.0,
                   algorithm=scripted(space, [point, point]), cache=False).run()
        assert len(calls) == 2

    def test_evaluate_unit_clips_and_converts(self, scripted):
        space = make_space()
        seen = {}

        def fn(values):
            seen.update(values)
            return 0.0

        Calibrator(space, fn, algorithm=scripted(space, [[2.0, -1.0]])).run()
        assert seen["x"] == pytest.approx(2.0**10)
        assert seen["y"] == pytest.approx(1.0)

    def test_best_values_before_any_evaluation_raises(self, scripted):
        space = make_space()
        with pytest.raises(RuntimeError, match="before a single evaluation"):
            Calibrator(space, lambda v: 0.0, algorithm=scripted(space, [])).run()

    def test_evaluation_dataclass_duration(self):
        e = Evaluation(0, {"x": 1.0}, (0.1,), 5.0, 1.0, 3.5)
        assert e.duration == pytest.approx(2.5)
