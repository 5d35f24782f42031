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
    RunConfig,
    TransientEvaluationError,
)
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

    def test_backoff_schedule_of_one_point_is_pinned(self, monkeypatch):
        """The jitter seed is the point's token: the schedule of a fixed
        point never changes, and a first-attempt success never makes it."""
        import repro.core.faults as faults

        slept, tokens = [], []
        monkeypatch.setattr(faults.time, "sleep", slept.append)
        monkeypatch.setattr(
            faults, "point_token", lambda values: tokens.append(1) or point_token(values)
        )

        def always_flaky(values):
            raise TransientEvaluationError("never recovers")

        with pytest.raises(EvaluationFailed):
            run_guarded(always_flaky, {"x": 1.5, "y": 0.25}, retry=RetryPolicy(max_attempts=4))
        assert slept == [0.06067931069902138, 0.10037291803773402, 0.2065967752527009]
        assert len(tokens) == 1

        tokens.clear()
        assert run_guarded(lambda v: 1.0, {"x": 1.5}, retry=RetryPolicy()) == (1.0, 0)
        assert tokens == []


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

    def test_failed_history_record_roundtrip(self, scripted):
        space = make_space(1)
        result = Calibrator(
            space,
            lambda v: (_ for _ in ()).throw(ValueError("poison")),
            algorithm=scripted(space, [[0.5]]),
            config=RunConfig(failure_policy=FailurePolicy(penalty=123.0)),
        ).run()
        record = result.history[0]
        assert record.failed and record.value == 123.0
        clone = evaluation_from_dict(evaluation_to_dict(record))
        assert clone.failed and clone == record

    def test_clean_record_dict_has_no_failed_key(self, scripted):
        space = make_space(1)
        result = Calibrator(space, lambda v: 1.0, algorithm=scripted(space, [[0.5]])).run()
        assert "failed" not in evaluation_to_dict(result.history[0])

    def test_failed_tell_log_entries_carry_their_diagnosis(self, scripted):
        """A failed tell-log entry names its failure's kind and error; a
        clean entry carries neither key, and replay reads past both."""
        space = make_space(1)
        calls = {"n": 0}

        def objective(values):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("poison")
            if calls["n"] == 3:
                time.sleep(5.0)
            return 1.0

        log = []
        result = Calibrator(
            space, objective, algorithm=scripted(space, [[0.1], [0.3], [0.5], [0.7]]),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6), eval_timeout=0.2),
        ).run(checkpoint_every=1, on_checkpoint=log.extend)
        assert [(e.get("failure_kind"), e.get("error")) for e in log] == [
            (None, None),
            (KIND_DETERMINISTIC, "ValueError: poison"),
            (KIND_TIMEOUT, "EvaluationTimeout: evaluation exceeded its 0.2s timeout"),
            (None, None),
        ]
        assert [evaluation_from_dict(entry) for entry in log] == result.history.evaluations

    def test_failure_policy_validates_on_failure(self):
        with pytest.raises(ValueError):
            FailurePolicy(on_failure="explode")


class TestRunConfigJson:
    @pytest.mark.parametrize("config", [
        RunConfig(),
        RunConfig(
            retry_policy=RetryPolicy(max_attempts=4, backoff=0.5),
            failure_policy=FailurePolicy(on_failure="raise", quarantine=False,
                                         failure_rate_threshold=0.5),
            eval_timeout=2.5,
            replay_cache_hits=True,
        ),
    ], ids=["default", "every-field"])
    def test_round_trips_through_json(self, config):
        import json

        assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_a_missing_key_keeps_its_default(self):
        assert RunConfig.from_dict({}) == RunConfig()
        assert RunConfig.from_dict({"eval_timeout": 3.0}) == RunConfig(eval_timeout=3.0)

    def test_an_unknown_policy_field_is_a_value_error(self):
        with pytest.raises(ValueError, match="not a run configuration"):
            RunConfig.from_dict({"retry_policy": {"attempts": 3}})


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
    """Failure outcomes of single evaluations under the serial driver."""

    def test_penalty_policy_keeps_going(self, scripted):
        space = make_space(2)
        base = quadratic(space)

        def sometimes_broken(values):
            if values["p0"] > 2.0**29:
                raise ValueError("poison region")
            return base(values)

        algorithm = scripted(space, [[0.1, 0.5], [0.9999, 0.5]])  # good, then bad
        calibrator = Calibrator(
            space, sometimes_broken, algorithm=algorithm, budget=EvaluationBudget(10),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
        )
        result = calibrator.run()
        assert algorithm.told[0] < 1e6
        assert algorithm.told[1] == 1e6
        assert calibrator.failures == 1
        assert result.history[1].failed

    def test_raise_policy_records_then_raises(self, scripted):
        space = make_space(1)
        calibrator = Calibrator(
            space,
            lambda v: (_ for _ in ()).throw(ValueError("poison")),
            algorithm=scripted(space, [[0.5]]),
            config=RunConfig(failure_policy=FailurePolicy(on_failure="raise")),
        )
        with pytest.raises(EvaluationFailed):
            calibrator.run()
        assert calibrator.failures == 1
        # Raise-policy failures are not history records (the run aborts),
        # but the point is quarantined for the next run sharing the cache.
        assert len(calibrator.history) == 0

    def test_quarantined_point_is_not_reevaluated(self, scripted):
        space = make_space(1)
        calls = []

        def poison(values):
            calls.append(1)
            raise ValueError("poison")

        algorithm = scripted(space, [[0.5], [0.5]])
        calibrator = Calibrator(
            space, poison, algorithm=algorithm, cache=DictCache(),
            config=RunConfig(failure_policy=FailurePolicy(penalty=50.0)),
        )
        calibrator.run()
        assert algorithm.told == [50.0, 50.0]
        assert len(calls) == 1  # the second serve came from quarantine
        assert calibrator.failures == 1
        assert calibrator.quarantine_skips == 1

    def test_quarantine_skips_charge_the_budget(self, scripted):
        space = make_space(1)
        cache = DictCache()
        cache.mark_failed(
            (0.5,), {}, EvaluationFailure("poisoned elsewhere"),
        )
        algorithm = scripted(space, [[0.5]] * 3)
        calibrator = Calibrator(
            space, lambda v: 1.0, algorithm=algorithm, budget=EvaluationBudget(2),
            cache=cache, config=RunConfig(failure_policy=FailurePolicy(penalty=9.0)),
        )
        calibrator.run()
        # Each skip consumed a budget unit: the third ask is past the budget.
        assert algorithm.told == [9.0, 9.0]
        assert calibrator.quarantine_skips == 2

    def test_evaluations_count_penalized_quarantine_skips(self, scripted):
        # Every penalized record is a non-cached history entry, and the
        # result counts those — the skip included — as evaluations.
        space = make_space(1)
        result = Calibrator(
            space, lambda v: (_ for _ in ()).throw(ValueError("poison")),
            algorithm=scripted(space, [[0.5], [0.5]]), cache=DictCache(),
            config=RunConfig(failure_policy=FailurePolicy(penalty=50.0)),
        ).run()
        assert [e.failed for e in result.history] == [True, True]
        assert result.evaluations == 2

    def test_quarantined_point_is_reattempted_without_a_failure_policy(self, scripted):
        # A retry policy alone settles no failures, so a quarantined point
        # is evaluated again, and its success heals the quarantine.
        space = make_space(1)
        cache = DictCache()
        cache.mark_failed((0.5,), {}, EvaluationFailure("poisoned elsewhere"))
        calls = []
        algorithm = scripted(space, [[0.5]])
        result = Calibrator(
            space, lambda v: calls.append(v) or 4.0, algorithm=algorithm, cache=cache,
            config=RunConfig(retry_policy=RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002)),
        ).run()
        assert len(calls) == 1
        assert algorithm.told == [4.0]
        assert not result.history[0].failed
        assert cache.get_failure((0.5,), {}) is None

    def test_success_heals_quarantine_in_dict_cache(self):
        cache = DictCache()
        cache.mark_failed((0.5,), {}, EvaluationFailure("boom"))
        assert cache.get_failure((0.5,), {}) is not None
        cache.put((0.5,), {}, 3.0)
        assert cache.get_failure((0.5,), {}) is None

    def test_retry_policy_recovers_transients_invisibly(self, scripted):
        space = make_space(1)
        attempts = []

        def flaky(values):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransientEvaluationError("first attempt fails")
            return 5.0

        algorithm = scripted(space, [[0.5]])
        calibrator = Calibrator(
            space, flaky, algorithm=algorithm,
            config=RunConfig(retry_policy=RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002)),
        )
        result = calibrator.run()
        assert algorithm.told == [5.0]
        assert calibrator.failures == 0
        assert len(result.history) == 1
        assert not result.history[0].failed

    def test_circuit_breaker_aborts_a_broken_objective(self, scripted):
        space = make_space(1)
        calibrator = Calibrator(
            space,
            lambda v: (_ for _ in ()).throw(ValueError("always broken")),
            algorithm=scripted(space, [[index / 10.0] for index in range(10)]),
            config=RunConfig(failure_policy=FailurePolicy(
                penalty=1e6, failure_rate_threshold=0.5, min_samples=4,
            )),
        )
        with pytest.raises(CircuitOpen):
            calibrator.run()
        assert calibrator.failures >= 4


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
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
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
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
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
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e6)),
        ).run()
        assert result.evaluations == 30
        assert any(e.failed for e in result.history)
        assert result.best_value < 1e6

    def test_pooled_rider_of_a_failed_point_is_a_flagged_quarantine_skip(self, scripted):
        """A repeat ask of a point still in flight rides on it.  When that
        point fails, the rider is met as the serial revisit is: an
        uncached, charged failed record counted as a quarantine skip,
        never as a successful cache hit; a resumed run counts it the same
        way.  The rider attaches on the driver thread before any
        completion is handled, so no timing is involved."""
        space = make_space(1)
        poison, other = [0.5], [0.25]

        def objective(values):
            if values["p0"] > 2.0**18:
                raise ValueError("poison")
            return 1.0

        def driver(algorithm):
            algorithm.supports_async_tell = True
            return AsyncCalibrator(
                space, objective, algorithm=algorithm, workers=2, mode="thread",
                config=RunConfig(
                    failure_policy=FailurePolicy(penalty=9.0), replay_cache_hits=True,
                ),
            )

        algorithm = scripted(space, [poison, poison, other])
        calibrator = driver(algorithm)
        log = []
        result = calibrator.run(checkpoint_every=1, on_checkpoint=log.extend)
        assert sorted(algorithm.told) == [1.0, 9.0, 9.0]
        assert not any(e.cached for e in result.history)
        rider = next(entry for entry in log if entry["seq"] == 1)
        assert (rider["failed"], rider["value"], rider["charged"]) == (True, 9.0, 1)
        assert (calibrator.failures, calibrator.quarantine_skips, calibrator.cache_hits) == (
            1, 1, 0,
        )

        resumed = driver(scripted(space, [poison, poison, other]))
        resumed.run(resume=log)
        assert (resumed.quarantine_skips, resumed.cache_hits) == (1, 0)

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
            config=RunConfig(retry_policy=RetryPolicy(max_attempts=2, backoff=0.001, backoff_max=0.002)),
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
            config=RunConfig(
                retry_policy=RetryPolicy(), failure_policy=FailurePolicy(), eval_timeout=60.0,
            ),
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
            config=RunConfig(retry_policy=RetryPolicy(), failure_policy=FailurePolicy()),
        ).run()
        assert sorted(e.unit for e in armed.history) == sorted(
            e.unit for e in plain.history
        )
        assert armed.best_value == plain.best_value
