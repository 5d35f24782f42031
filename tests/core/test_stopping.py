"""Early-stopping criteria and their integration with the Calibrator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Calibrator,
    EvaluationBudget,
    NoImprovementStopper,
    Parameter,
    ParameterSpace,
)
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.stopping import StoppingBudget


def make_history(values):
    history = CalibrationHistory()
    for i, value in enumerate(values):
        history.record(
            Evaluation(index=i, values={"x": float(i)}, unit=(0.0,), value=float(value),
                       started_at=float(i), finished_at=float(i) + 0.5)
        )
    return history


class TestNoImprovementStopper:
    def test_requires_patience_evaluations_beyond_best(self):
        stopper = NoImprovementStopper(patience=3)
        # Best value keeps improving: never stop.
        assert not stopper.should_stop(make_history([10, 9, 8, 7, 6]))
        # Improvement happened within the last 3 evaluations: keep going.
        assert not stopper.should_stop(make_history([10, 10, 10, 9]))
        # 3 evaluations since anything beat the early best: stop.
        assert stopper.should_stop(make_history([5, 9, 8, 7]))

    def test_min_delta_counts_only_meaningful_improvements(self):
        stopper = NoImprovementStopper(patience=2, min_delta=1.0)
        # The late values improve by less than min_delta: stop.
        assert stopper.should_stop(make_history([5.0, 4.9, 4.8]))
        # A genuine improvement within the window: continue.
        assert not stopper.should_stop(make_history([5.0, 4.9, 3.0]))

    def test_nan_values_are_never_an_improvement(self):
        assert NoImprovementStopper(patience=2).should_stop(make_history([5, math.nan, math.nan]))
        assert NoImprovementStopper(patience=2).should_stop(
            make_history([math.nan, 5, math.nan, math.nan])
        )
        assert not NoImprovementStopper(patience=2).should_stop(make_history([5, math.nan, 4]))

    def test_describe_names_patience_and_delta(self):
        stopper = NoImprovementStopper(patience=7, min_delta=0.5)
        assert stopper.describe() == "stop after 7 evaluations without 0.5 improvement"

    def test_validation(self):
        with pytest.raises(ValueError):
            NoImprovementStopper(patience=0)
        with pytest.raises(ValueError):
            NoImprovementStopper(min_delta=-1)


def _old_no_improvement(stopper, history):
    """The O(n) formula the incremental check replaced (the reference)."""
    evaluations = history.evaluations
    if len(evaluations) <= stopper.patience:
        return False
    cutoff = len(evaluations) - stopper.patience
    best_before = min(e.value for e in evaluations[:cutoff])
    best_since = min(e.value for e in evaluations[cutoff:])
    return best_since > best_before - stopper.min_delta


# NaN-free values with many ties, so equal bests and equal window minima occur
stopper_values = st.lists(
    st.one_of(st.integers(-5, 5).map(float), st.floats(allow_nan=False)), max_size=120
)


class TestIncrementalChecks:
    """Each check is O(1) amortised and decides exactly as the old
    full-history formula, whatever evaluations it is checked after."""

    @settings(max_examples=200, deadline=None)
    @given(values=stopper_values, patience=st.integers(1, 20),
           min_delta=st.sampled_from([0.0, 0.5, 1.0, 1e-300]),
           checked=st.lists(st.booleans(), min_size=120, max_size=120))
    def test_no_improvement_matches_the_reference(self, values, patience, min_delta, checked):
        stopper = NoImprovementStopper(patience=patience, min_delta=min_delta)
        history = CalibrationHistory()
        for i, value in enumerate(values):
            history.record(Evaluation(index=i, values={}, unit=(), value=value,
                                      started_at=0.0, finished_at=0.0))
            if checked[i]:
                assert stopper.should_stop(history) == _old_no_improvement(stopper, history)
        # the same stopper then watches a second, different history
        assert stopper.should_stop(make_history(values[::-1])) == _old_no_improvement(
            stopper, make_history(values[::-1])
        )


class TestStoppingBudgetAdapter:
    def test_bound_adapter_follows_criterion(self):
        history = make_history([5.0, 6.0])
        budget = StoppingBudget(NoImprovementStopper(patience=1), history)
        assert budget.exhausted(2)
        assert "1" in budget.describe()


class TestCalibratorIntegration:
    def make_space(self):
        return ParameterSpace([Parameter("a", 2**10, 2**30), Parameter("b", 2**10, 2**30)])

    def objective(self, space):
        def fn(values):
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.4) ** 2)) * 100.0
        return fn

    def test_no_improvement_stopper_bounds_wasted_evaluations(self):
        space = self.make_space()
        result = Calibrator(space, self.objective(space), "random",
                            EvaluationBudget(2000), seed=1,
                            stopping=NoImprovementStopper(patience=25)).run()
        assert result.evaluations < 2000

    def test_budget_still_applies_without_stopping(self):
        space = self.make_space()
        result = Calibrator(space, self.objective(space), "random",
                            EvaluationBudget(30), seed=1,
                            stopping=NoImprovementStopper(patience=1000)).run()
        assert result.evaluations == 30

    def test_each_run_records_its_own_history(self):
        """A second run of one calibrator neither grows the first run's
        history nor counts its evaluations."""
        space = self.make_space()
        calibrator = Calibrator(space, self.objective(space), "random",
                                EvaluationBudget(5), seed=1)
        first = calibrator.run()
        second = calibrator.run()
        assert len(first.history) == 5
        assert second.evaluations == 5 and len(second.history) == 5
        assert calibrator.history is second.history
