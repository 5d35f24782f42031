"""Fault-tolerant evaluation: retry policy, timeouts, failure outcomes.

Everything here runs in thread/serial modes (closure-friendly); the
process-pool chaos path is exercised end-to-end by
``tests/integration/test_chaos.py``.
"""

import pickle
import time

import numpy as np
import pytest

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    CircuitBreaker,
    CircuitOpen,
    DictCache,
    EvaluationBudget,
    EvaluationFailed,
    EvaluationFailure,
    EvaluationTimeout,
    FailurePolicy,
    Parameter,
    ParameterSpace,
    RetryPolicy,
    TransientEvaluationError,
)
from repro.core.evaluation import Objective
from repro.core.faults import (
    KIND_DETERMINISTIC,
    KIND_TIMEOUT,
    KIND_TRANSIENT,
    call_with_timeout,
    point_token,
    run_guarded,
    timeouts_supported,
)
from repro.core.serialization import evaluation_from_dict, evaluation_to_dict


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def quadratic(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify(EvaluationTimeout("t")) == KIND_TIMEOUT
        assert policy.classify(TransientEvaluationError("x")) == KIND_TRANSIENT
        assert policy.classify(ConnectionError("x")) == KIND_TRANSIENT
        assert policy.classify(TimeoutError("x")) == KIND_TRANSIENT
        assert policy.classify(InterruptedError("x")) == KIND_TRANSIENT
        assert policy.classify(ValueError("x")) == KIND_DETERMINISTIC
        assert policy.classify(RuntimeError("x")) == KIND_DETERMINISTIC

    def test_delay_is_deterministic_per_point(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.5)
        token = point_token({"a": 1.0, "b": 2.0})
        assert policy.delay(1, token) == policy.delay(1, token)
        # Different attempts jitter differently, different tokens too.
        assert policy.delay(1, token) != policy.delay(2, token) / 2.0
        assert policy.delay(1, token) != policy.delay(1, "other")

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)

    def test_point_token_is_order_insensitive(self):
        assert point_token({"b": 2.0, "a": 1.0}) == point_token({"a": 1.0, "b": 2.0})


class TestRunGuarded:
    def test_success_passes_through(self):
        value, retries = run_guarded(lambda v: 7.5, {"x": 1.0})
        assert value == 7.5
        assert retries == 0

    def test_transient_failures_are_retried(self):
        calls = []

        def flaky(values):
            calls.append(1)
            if len(calls) < 3:
                raise TransientEvaluationError("flaky")
            return 4.0

        policy = RetryPolicy(max_attempts=3, backoff=0.001, backoff_max=0.002)
        value, retries = run_guarded(flaky, {"x": 1.0}, retry=policy)
        assert value == 4.0
        assert retries == 2
        assert len(calls) == 3

    def test_deterministic_failures_never_retry(self):
        calls = []

        def broken(values):
            calls.append(1)
            raise ValueError("bad parameters")

        policy = RetryPolicy(max_attempts=5, backoff=0.001)
        with pytest.raises(EvaluationFailed) as info:
            run_guarded(broken, {"x": 1.0}, retry=policy)
        assert len(calls) == 1
        failure = info.value.failure
        assert failure.kind == KIND_DETERMINISTIC
        assert failure.attempts == 1
        assert "bad parameters" in failure.error

    def test_exhaustion_reports_all_attempts(self):
        def always_flaky(values):
            raise TransientEvaluationError("never recovers")

        policy = RetryPolicy(max_attempts=3, backoff=0.001, backoff_max=0.002)
        with pytest.raises(EvaluationFailed) as info:
            run_guarded(always_flaky, {"x": 1.0}, retry=policy)
        assert info.value.failure.kind == KIND_TRANSIENT
        assert info.value.failure.attempts == 3

    def test_no_policy_means_single_attempt(self):
        calls = []

        def flaky(values):
            calls.append(1)
            raise TransientEvaluationError("flaky")

        with pytest.raises(EvaluationFailed):
            run_guarded(flaky, {"x": 1.0})
        assert len(calls) == 1


class TestTimeouts:
    def test_supported_in_main_thread(self):
        assert timeouts_supported()

    def test_timeout_interrupts_a_hang(self):
        def hang(values):
            time.sleep(30.0)
            return 0.0

        started = time.perf_counter()
        with pytest.raises(EvaluationTimeout):
            call_with_timeout(hang, {"x": 1.0}, timeout=0.2)
        assert time.perf_counter() - started < 5.0

    def test_no_timeout_runs_unguarded(self):
        assert call_with_timeout(lambda v: 3.0, {"x": 1.0}, timeout=None) == 3.0

    def test_timer_is_cleared_after_success(self):
        assert call_with_timeout(lambda v: 1.0, {"x": 1.0}, timeout=0.2) == 1.0
        time.sleep(0.3)  # a leaked itimer would fire here and kill the test

    def test_run_guarded_classifies_timeout_as_transient(self):
        calls = []

        def hang_once(values):
            calls.append(1)
            if len(calls) == 1:
                time.sleep(30.0)
            return 9.0

        policy = RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002)
        value, retries = run_guarded(hang_once, {"x": 1.0}, retry=policy, timeout=0.2)
        assert value == 9.0
        assert retries == 1


class TestOutcomeTypes:
    def test_evaluation_failed_pickles(self):
        error = EvaluationFailed(EvaluationFailure("boom", kind="transient", attempts=3))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, EvaluationFailed)
        assert clone.failure == error.failure

    def test_failure_dict_roundtrip(self):
        failure = EvaluationFailure("boom", kind="timeout", attempts=2, elapsed=1.5)
        assert EvaluationFailure.from_dict(failure.to_dict()) == failure

    def test_failed_history_record_roundtrip(self):
        space = make_space(1)
        objective = Objective(
            lambda v: (_ for _ in ()).throw(ValueError("poison")),
            space,
            failure_policy=FailurePolicy(penalty=123.0),
        )
        objective.evaluate(space.from_unit_array(np.asarray([0.5])))
        record = objective.history[0]
        assert record.failed and record.value == 123.0
        clone = evaluation_from_dict(evaluation_to_dict(record))
        assert clone.failed and clone == record

    def test_clean_record_dict_has_no_failed_key(self):
        space = make_space(1)
        objective = Objective(lambda v: 1.0, space)
        objective.evaluate(space.from_unit_array(np.asarray([0.5])))
        assert "failed" not in evaluation_to_dict(objective.history[0])

    def test_failure_policy_validates_on_failure(self):
        with pytest.raises(ValueError):
            FailurePolicy(on_failure="explode")


class TestCircuitBreaker:
    def test_never_trips_below_min_samples(self):
        breaker = CircuitBreaker(threshold=0.1, min_samples=10)
        for _ in range(9):
            breaker.record(EvaluationFailure("boom"))
            breaker.check()

    def test_trips_at_threshold_with_diagnosis(self):
        breaker = CircuitBreaker(threshold=0.5, min_samples=4)
        for index in range(2):
            breaker.record(None)
            breaker.record(EvaluationFailure(f"boom #{index}"))
        with pytest.raises(CircuitOpen) as info:
            breaker.check()
        assert "2/4" in str(info.value)
        assert "boom #1" in str(info.value)

    def test_none_threshold_is_pure_accounting(self):
        breaker = CircuitBreaker()
        for _ in range(50):
            breaker.record(EvaluationFailure("boom"))
        breaker.check()
        assert breaker.failure_rate == 1.0


class TestObjectiveFailurePaths:
    def test_penalty_policy_keeps_going(self):
        space = make_space(2)
        base = quadratic(space)

        def sometimes_broken(values):
            if values["p0"] > 2.0**29:
                raise ValueError("poison region")
            return base(values)

        objective = Objective(
            sometimes_broken, space, budget=EvaluationBudget(10),
            failure_policy=FailurePolicy(penalty=1e6),
        )
        good = space.from_unit_array(np.asarray([0.1, 0.5]))
        bad = space.from_unit_array(np.asarray([0.9999, 0.5]))
        assert objective.evaluate(good) < 1e6
        assert objective.evaluate(bad) == 1e6
        assert objective.failures == 1
        assert objective.history[1].failed

    def test_raise_policy_records_then_raises(self):
        space = make_space(1)
        objective = Objective(
            lambda v: (_ for _ in ()).throw(ValueError("poison")),
            space,
            failure_policy=FailurePolicy(on_failure="raise"),
        )
        with pytest.raises(EvaluationFailed):
            objective.evaluate(space.from_unit_array(np.asarray([0.5])))
        assert objective.failures == 1
        # Raise-policy failures are not history records (the run aborts),
        # but the point is quarantined for the next run sharing the cache.
        assert len(objective.history) == 0

    def test_quarantined_point_is_not_reevaluated(self):
        space = make_space(1)
        calls = []

        def poison(values):
            calls.append(1)
            raise ValueError("poison")

        cache = DictCache()
        objective = Objective(
            poison, space, cache=cache, failure_policy=FailurePolicy(penalty=50.0),
        )
        point = space.from_unit_array(np.asarray([0.5]))
        assert objective.evaluate(point) == 50.0
        assert objective.evaluate(point) == 50.0
        assert len(calls) == 1  # the second serve came from quarantine
        assert objective.failures == 1
        assert objective.quarantine_skips == 1

    def test_quarantine_skips_charge_the_budget(self):
        space = make_space(1)
        cache = DictCache()
        cache.mark_failed(
            (0.5,), {}, EvaluationFailure("poisoned elsewhere"),
        )
        objective = Objective(
            lambda v: 1.0, space, budget=EvaluationBudget(2), cache=cache,
            failure_policy=FailurePolicy(penalty=9.0),
        )
        point = space.from_unit_array(np.asarray([0.5]))
        assert objective.evaluate(point) == 9.0
        assert objective.steps == 1  # the skip consumed a step

    def test_success_heals_quarantine_in_dict_cache(self):
        cache = DictCache()
        cache.mark_failed((0.5,), {}, EvaluationFailure("boom"))
        assert cache.get_failure((0.5,), {}) is not None
        cache.put((0.5,), {}, 3.0)
        assert cache.get_failure((0.5,), {}) is None

    def test_retry_policy_recovers_transients_invisibly(self):
        space = make_space(1)
        attempts = []

        def flaky(values):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransientEvaluationError("first attempt fails")
            return 5.0

        objective = Objective(
            flaky, space,
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002),
        )
        assert objective.evaluate(space.from_unit_array(np.asarray([0.5]))) == 5.0
        assert objective.failures == 0
        assert len(objective.history) == 1
        assert not objective.history[0].failed

    def test_circuit_breaker_aborts_a_broken_objective(self):
        space = make_space(1)
        objective = Objective(
            lambda v: (_ for _ in ()).throw(ValueError("always broken")),
            space,
            failure_policy=FailurePolicy(
                penalty=1e6, failure_rate_threshold=0.5, min_samples=4,
            ),
        )
        with pytest.raises(CircuitOpen):
            for index in range(10):
                objective.evaluate(space.from_unit_array(np.asarray([index / 10.0])))
        assert objective.failures >= 4


class TestDriverFailurePaths:
    def test_serial_calibrator_completes_past_failures(self):
        space = make_space(2)
        base = quadratic(space)

        def sometimes_broken(values):
            if space.to_unit_array(values)[0] > 0.8:
                raise ValueError("poison region")
            return base(values)

        result = Calibrator(
            space, sometimes_broken, algorithm="random",
            budget=EvaluationBudget(30), seed=3,
            failure_policy=FailurePolicy(penalty=1e6),
        ).run()
        assert result.evaluations == 30
        failed = [e for e in result.history if e.failed]
        assert failed  # seed 3 visits the poison region
        assert all(e.value == 1e6 for e in failed)
        assert result.best_value < 1e6

    def test_batch_calibrator_completes_past_failures(self):
        space = make_space(2)
        base = quadratic(space)

        def sometimes_broken(values):
            if space.to_unit_array(values)[0] > 0.8:
                raise ValueError("poison region")
            return base(values)

        result = BatchCalibrator(
            space, sometimes_broken, algorithm="random", workers=4, mode="thread",
            budget=EvaluationBudget(30), seed=3,
            failure_policy=FailurePolicy(penalty=1e6),
        ).run()
        assert result.evaluations == 30
        assert any(e.failed for e in result.history)
        assert result.best_value < 1e6

    def test_async_calibrator_completes_past_failures(self):
        space = make_space(2)
        base = quadratic(space)

        def sometimes_broken(values):
            if space.to_unit_array(values)[0] > 0.8:
                raise ValueError("poison region")
            return base(values)

        result = AsyncCalibrator(
            space, sometimes_broken, algorithm="random", workers=4, mode="thread",
            budget=EvaluationBudget(30), seed=3,
            failure_policy=FailurePolicy(penalty=1e6),
        ).run()
        assert result.evaluations == 30
        assert any(e.failed for e in result.history)
        assert result.best_value < 1e6

    def test_transient_retries_match_the_clean_trajectory(self):
        """A run whose transient failures all recover on retry visits the
        exact clean trajectory: retries happen inside the evaluation."""
        space = make_space(2)
        base = quadratic(space)
        clean = Calibrator(
            space, base, algorithm="random", budget=EvaluationBudget(20), seed=5,
        ).run()

        seen = {}

        def flaky(values):
            token = point_token(values)
            seen[token] = seen.get(token, 0) + 1
            if seen[token] == 1:
                raise TransientEvaluationError("every first attempt fails")
            return base(values)

        chaotic = Calibrator(
            space, flaky, algorithm="random", budget=EvaluationBudget(20), seed=5,
            retry_policy=RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002),
        ).run()
        assert [e.unit for e in chaotic.history] == [e.unit for e in clean.history]
        assert [e.value for e in chaotic.history] == [e.value for e in clean.history]
        assert chaotic.best_value == clean.best_value


class TestZeroFailureByteIdentity:
    """Arming the knobs must not change a run that never fails."""

    @pytest.mark.parametrize("name", ["random", "lhs", "cmaes"])
    def test_serial_trajectories_are_identical(self, name):
        space = make_space(3)
        plain = Calibrator(
            space, quadratic(space), algorithm=name,
            budget=EvaluationBudget(30), seed=11,
        ).run()
        armed = Calibrator(
            space, quadratic(space), algorithm=name,
            budget=EvaluationBudget(30), seed=11,
            retry_policy=RetryPolicy(), failure_policy=FailurePolicy(),
            eval_timeout=60.0,
        ).run()
        assert [e.unit for e in armed.history] == [e.unit for e in plain.history]
        assert [e.value for e in armed.history] == [e.value for e in plain.history]
        assert not any(e.failed for e in armed.history)
        assert armed.best_values == plain.best_values

    def test_async_trajectories_are_identical(self):
        space = make_space(2)
        plain = AsyncCalibrator(
            space, quadratic(space), algorithm="random", workers=4, mode="thread",
            budget=EvaluationBudget(24), seed=11,
        ).run()
        armed = AsyncCalibrator(
            space, quadratic(space), algorithm="random", workers=4, mode="thread",
            budget=EvaluationBudget(24), seed=11,
            retry_policy=RetryPolicy(), failure_policy=FailurePolicy(),
        ).run()
        assert sorted(e.unit for e in armed.history) == sorted(
            e.unit for e in plain.history
        )
        assert armed.best_value == plain.best_value
