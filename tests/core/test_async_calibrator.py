"""AsyncCalibrator: out-of-order tells, speculative asks, claim/lease.

Completion order is shuffled deterministically by giving every candidate
a latency keyed on its own coordinates, so async runs genuinely exercise
out-of-order completion while staying reproducible.  The same contract
is drawn for every driver by ``tests/core/test_evaluation_contract.py``;
these examples pin named cases of it.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    AsyncCalibrator,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    RunConfig,
    get_algorithm,
)

NATIVE_ASYNC = ["random", "sobol", "lhs", "tpe"]
ORDERED = ["cmaes", "de", "nelder-mead", "grid", "coordinate"]


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def quadratic(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


def shuffling(space, scale=0.004):
    """A quadratic whose per-point latency shuffles completion order."""
    inner = quadratic(space)

    def objective(values):
        import random as _random

        seed = repr(sorted((k, float(v)) for k, v in values.items()))
        time.sleep(_random.Random(seed).uniform(0.0, scale))
        return inner(values)

    return objective


def points(result):
    return [(e.unit, e.value) for e in result.history]


class TestCapabilityFlag:
    def test_steady_state_samplers_are_async_native(self):
        for name in NATIVE_ASYNC:
            assert get_algorithm(name).supports_async_tell, name

    def test_population_and_line_search_algorithms_are_ordered(self):
        for name in ORDERED:
            assert not get_algorithm(name).supports_async_tell, name

    def test_forcing_native_tells_on_ordered_algorithm_is_rejected(self):
        space = make_space(2)
        with pytest.raises(ValueError, match="out-of-order"):
            AsyncCalibrator(space, quadratic(space), algorithm="cmaes",
                            ordered_tells=False)


class TestOutOfOrderTellsAtProtocolLevel:
    def test_async_native_tell_accepts_any_completion_order(self):
        algorithm = get_algorithm("tpe", warmup=4)
        algorithm.setup(make_space(2))
        rng = np.random.default_rng(0)
        candidates = algorithm.ask(rng, 4)
        assert len(candidates) == 4
        # Tell in reverse completion order, one at a time.
        for candidate in reversed(candidates):
            algorithm.tell([candidate], [float(np.sum(candidate))])
        assert len(algorithm._points) == 4

    def test_async_native_ask_keeps_proposing_before_tells(self):
        """Speculative asks: the sampler never stalls on outstanding work."""
        algorithm = get_algorithm("random")
        algorithm.setup(make_space(2))
        rng = np.random.default_rng(0)
        first = algorithm.ask(rng, 3)
        second = algorithm.ask(rng, 3)  # no tells in between
        assert len(first) == 3 and len(second) == 3

    def test_telling_a_never_asked_candidate_raises(self):
        algorithm = get_algorithm("random")
        algorithm.setup(make_space(2))
        algorithm.ask(np.random.default_rng(0), 2)
        with pytest.raises(ValueError, match="never asked"):
            algorithm.tell([np.array([0.5, 0.5])], [1.0])


class TestAdapterByteForByteParity:
    @pytest.mark.parametrize("name", ["cmaes", "de", "nelder-mead", "grid"])
    def test_seeded_async_run_matches_serial_trajectory(self, name):
        """The buffering adapter restores ask order, so ordered algorithms
        reproduce the serial trajectory byte for byte under genuinely
        shuffled completion order."""
        space = make_space(3)
        serial = Calibrator(
            space, quadratic(space), algorithm=name,
            budget=EvaluationBudget(40), seed=7,
        ).run()
        asynchronous = AsyncCalibrator(
            space, shuffling(space), algorithm=name,
            budget=EvaluationBudget(40), seed=7, workers=4, mode="thread",
        ).run()
        assert points(asynchronous) == points(serial)
        assert asynchronous.best_value == serial.best_value
        assert asynchronous.best_values == serial.best_values

    def test_forced_adapter_on_native_sampler_matches_serial(self):
        space = make_space(3)
        serial = Calibrator(
            space, quadratic(space), algorithm="lhs",
            budget=EvaluationBudget(48), seed=3,
        ).run()
        forced = AsyncCalibrator(
            space, shuffling(space), algorithm="lhs",
            budget=EvaluationBudget(48), seed=3, workers=4, mode="thread",
            ordered_tells=True,
        ).run()
        assert points(forced) == points(serial)


class TestNativeAsyncDeterminism:
    @pytest.mark.parametrize("name", ["random", "sobol", "lhs"])
    def test_shuffled_completion_visits_the_serial_point_set(self, name):
        """Samplers with a tell-independent proposal stream stay
        deterministic under shuffled completion order: same points, same
        values, same budget — only the history order may differ."""
        space = make_space(3)
        serial = Calibrator(
            space, quadratic(space), algorithm=name,
            budget=EvaluationBudget(32), seed=5,
        ).run()
        asynchronous = AsyncCalibrator(
            space, shuffling(space), algorithm=name,
            budget=EvaluationBudget(32), seed=5, workers=4, mode="thread",
        ).run()
        assert asynchronous.evaluations == 32
        assert sorted(points(asynchronous)) == sorted(points(serial))
        assert asynchronous.best_value == serial.best_value

    @pytest.mark.parametrize("name", ["random", "sobol", "lhs"])
    def test_two_async_runs_are_reproducible(self, name):
        """Same seed, same (deterministic) latencies -> same point set.
        (TPE is excluded: its proposals condition on completed results,
        so its trajectory legitimately depends on completion timing.)"""
        space = make_space(2)

        def run():
            return AsyncCalibrator(
                space, shuffling(space), algorithm=name,
                budget=EvaluationBudget(24), seed=9, workers=3, mode="thread",
            ).run()

        first, second = run(), run()
        assert sorted(points(first)) == sorted(points(second))

    def test_tpe_consumes_out_of_order_results_natively(self):
        """TPE's model updates on every completion, in whatever order they
        arrive; the run stays valid (exact budget, every point told) even
        though its trajectory may differ from serial."""
        space = make_space(2)
        result = AsyncCalibrator(
            space, shuffling(space), algorithm=get_algorithm("tpe", warmup=6),
            budget=EvaluationBudget(24),
            seed=9, workers=3, mode="thread",
        ).run()
        assert result.evaluations == 24
        assert len(result.history) == 24


class TestDriverMechanics:
    def test_every_builtin_algorithm_runs_async_with_exact_budget(self):
        space = make_space(2)
        for name in sorted(ALGORITHMS):
            result = AsyncCalibrator(
                space, quadratic(space), algorithm=name, workers=3, mode="serial",
                budget=EvaluationBudget(25), seed=2,
            ).run()
            assert result.evaluations == 25, name

    def test_max_pending_bounds_in_flight_work(self):
        space = make_space(2)
        active = {"now": 0, "max": 0}
        lock = threading.Lock()

        def tracking(values):
            with lock:
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
            time.sleep(0.003)
            with lock:
                active["now"] -= 1
            return float(np.sum(space.to_unit_array(values)))

        AsyncCalibrator(
            space, tracking, algorithm="random", workers=8, mode="thread",
            max_pending=3, budget=EvaluationBudget(24), seed=0,
        ).run()
        assert active["max"] <= 3

    def test_pool_stays_saturated_under_skewed_latencies(self):
        """The point of the driver: with one straggler per 'batch', the
        async pool keeps at least two evaluations overlapping."""
        space = make_space(2)
        active = {"now": 0, "max": 0}
        count = {"n": 0}
        lock = threading.Lock()

        def skewed(values):
            with lock:
                count["n"] += 1
                slow = count["n"] % 4 == 1
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
            time.sleep(0.02 if slow else 0.001)
            with lock:
                active["now"] -= 1
            return float(np.sum(space.to_unit_array(values)))

        AsyncCalibrator(
            space, skewed, algorithm="random", workers=4, mode="thread",
            budget=EvaluationBudget(32), seed=0,
        ).run()
        assert active["max"] >= 2

    def test_objective_failure_propagates_and_closes_the_pool(self):
        space = make_space(2)

        def broken(values):
            raise RuntimeError("simulator exploded")

        calibrator = AsyncCalibrator(
            space, broken, algorithm="random", workers=2, mode="thread",
            budget=EvaluationBudget(8), seed=0,
        )
        with pytest.raises(RuntimeError, match="simulator exploded"):
            calibrator.run()

    def test_warm_cache_replays_without_dispatching(self):
        from repro.core import DictCache

        space = make_space(2)
        calls = {"n": 0}

        def counting(values):
            calls["n"] += 1
            return float(np.sum((space.to_unit_array(values) - 0.37) ** 2))

        shared = DictCache()
        cold = AsyncCalibrator(
            space, counting, algorithm="lhs", workers=2, mode="thread",
            budget=EvaluationBudget(20), seed=5, cache=shared,
        ).run()
        assert calls["n"] == 20
        warm_driver = AsyncCalibrator(
            space, counting, algorithm="lhs", workers=2, mode="thread",
            budget=EvaluationBudget(20), seed=5, cache=shared,
            config=RunConfig(replay_cache_hits=True),
        )
        warm = warm_driver.run()
        assert calls["n"] == 20  # nothing new was simulated
        assert warm_driver.cache_hits == 20
        assert warm.evaluations == 0
        assert warm.best_value == cold.best_value

    def test_in_run_duplicates_dispatch_once(self):
        """Two in-flight copies of the same point cost one dispatch — the
        second rides on the first's result as a free in-run revisit."""
        from repro.core.algorithms import CalibrationAlgorithm

        class Duplicating(CalibrationAlgorithm):
            name = "duplicating-async"
            supports_async_tell = True

            def _setup(self):
                self._gen = 0

            def _generate(self, rng, n):
                if self._gen >= 100:
                    return None
                self._gen += 1
                point = np.full(2, 0.01 * self._gen)
                return [point, point.copy()]

        space = make_space(2)
        calls = {"n": 0}
        lock = threading.Lock()

        def counting(values):
            with lock:
                calls["n"] += 1
            time.sleep(0.002)
            return float(np.sum(space.to_unit_array(values)))

        result = AsyncCalibrator(
            space, counting, algorithm=Duplicating(), workers=4, mode="thread",
            budget=EvaluationBudget(6), seed=0,
        ).run()
        assert calls["n"] == 6
        assert result.evaluations == 6


class TestClaimLeaseAcrossDrivers:
    def test_concurrent_async_drivers_compute_each_point_once(self):
        from repro.service import InMemoryStore, StoreBackedCache

        space = make_space(3)
        store = InMemoryStore()
        lock = threading.Lock()
        calls = []

        def slow(values):
            with lock:
                calls.append(dict(values))
            time.sleep(0.003)
            return float(np.sum((space.to_unit_array(values) - 0.37) ** 2))

        def run(seed):
            cache = StoreBackedCache(store, "fp", lease_ttl=30.0)
            return AsyncCalibrator(
                space, slow, algorithm="grid", workers=2, mode="thread",
                budget=EvaluationBudget(27), seed=seed, cache=cache,
                config=RunConfig(replay_cache_hits=True),
            ).run()

        results = [None, None]
        threads = [
            threading.Thread(target=lambda i=i: results.__setitem__(i, run(i + 1)))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 27  # the 3^3 lattice, once across both drivers
        assert results[0].best_value == results[1].best_value
        assert store.lease_count() == 0

    def test_expired_lease_is_taken_over(self):
        """A leader that died without publishing stalls its point only
        until the lease TTL; the deferred driver then computes it."""
        from repro.service import InMemoryStore, StoreBackedCache

        space = make_space(2)
        store = InMemoryStore()
        dead = StoreBackedCache(store, "fp", lease_ttl=0.05)
        live = StoreBackedCache(store, "fp", lease_ttl=0.05)

        # The dead driver claims the run's first point and never publishes
        # it (same seed, same sampler => same first candidate).
        algorithm = get_algorithm("random")
        algorithm.setup(space)
        first_unit = algorithm.ask(np.random.default_rng(0), 1)[0]
        first_values = space.from_unit_array(space.clip_unit(first_unit))
        from repro.core.evaluation import Claim

        assert dead.claim((), first_values).status == Claim.CLAIMED

        result = AsyncCalibrator(
            space, quadratic(space), algorithm="random", workers=2, mode="thread",
            budget=EvaluationBudget(4), seed=0, cache=live,
        ).run()
        assert result.evaluations == 4  # including the taken-over point


class TestEvaluatorOwnership:
    class Counting:
        """An evaluator that counts its ``close`` calls."""

        def __init__(self, inner):
            self.inner, self.closes = inner, 0

        def submit(self, mapping):
            return self.inner.submit(mapping)

        def wait(self, futures, timeout=None):
            return self.inner.wait(futures, timeout)

        def close(self):
            self.closes += 1
            self.inner.close()

    @pytest.mark.parametrize("fail_at", [None, 3])
    @pytest.mark.parametrize("injected", [True, False])
    def test_a_run_closes_only_an_evaluator_it_built(self, injected, fail_at):
        """An injected evaluator is the caller's, left open (its warm
        pool kept) for the next run; one the calibrator built is closed.
        Either way whether the run returns or raises."""
        from repro.core import ParallelEvaluator

        space = make_space(2)
        calls, inner = [], quadratic(space)

        def objective(values):
            calls.append(None)
            if len(calls) == fail_at:
                raise RuntimeError("objective failed")
            return inner(values)

        if injected:
            evaluator = self.Counting(ParallelEvaluator(objective, workers=2, mode="thread"))
            calibrator = AsyncCalibrator(space, objective, budget=EvaluationBudget(6),
                                         evaluator=evaluator)
        else:
            calibrator = AsyncCalibrator(space, objective, workers=2, mode="thread",
                                         budget=EvaluationBudget(6))
            calibrator.evaluator = evaluator = self.Counting(calibrator.evaluator)
        try:
            if fail_at is None:
                assert calibrator.run().evaluations == 6
            else:
                with pytest.raises(RuntimeError, match="objective failed"):
                    calibrator.run()
            assert evaluator.closes == (0 if injected else 1)
            assert (evaluator.inner._executor is not None) == injected
        finally:
            if injected:
                evaluator.close()
