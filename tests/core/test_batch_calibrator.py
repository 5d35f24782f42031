"""BatchCalibrator: k-wide asks, budget trimming, cache consultation.

Thread/serial execution modes keep the tests closure-friendly (process
pools need picklable objectives and are exercised by the benchmark and
the parallel-scaling tests instead).
"""

import threading

import numpy as np
import pytest

from repro.core import (
    BatchCalibrator,
    Calibrator,
    CombinedBudget,
    DictCache,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    TimeBudget,
    remaining_evaluations,
)
from repro.core.algorithms import CalibrationAlgorithm


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def quadratic(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


class TestRemainingEvaluations:
    def test_plain_budgets(self):
        assert remaining_evaluations(EvaluationBudget(10), 4) == 6
        assert remaining_evaluations(EvaluationBudget(10), 12) == 0
        assert remaining_evaluations(TimeBudget(5.0), 4) is None

    def test_combined_budget_recurses(self):
        combined = CombinedBudget([TimeBudget(100.0), EvaluationBudget(7)])
        assert remaining_evaluations(combined, 3) == 4
        nested = CombinedBudget([combined, EvaluationBudget(5)])
        assert remaining_evaluations(nested, 3) == 2
        assert remaining_evaluations(CombinedBudget([TimeBudget(1.0)]), 3) is None


class TestFinalBatchTrimming:
    def test_batch_calibrator_combined_budget_does_not_overshoot(self):
        space = make_space(2)
        budget = CombinedBudget([TimeBudget(3600.0), EvaluationBudget(10)])
        result = BatchCalibrator(
            space, quadratic(space), algorithm="random", workers=1, mode="serial",
            batch_size=4, budget=budget, seed=0,
        ).run()
        assert result.evaluations == 10


class TestBatchedDriving:
    @pytest.mark.parametrize("name", ["lhs", "sobol", "random", "grid", "cmaes"])
    def test_batched_history_matches_serial_for_generation_algorithms(self, name):
        """Algorithms that generate whole batches upfront visit exactly the
        serial points, in the serial order, under the batched driver."""
        space = make_space(3)
        serial = Calibrator(
            space, quadratic(space), algorithm=name,
            budget=EvaluationBudget(40), seed=7,
        ).run()
        batched = BatchCalibrator(
            space, quadratic(space), algorithm=name, workers=4, mode="thread",
            budget=EvaluationBudget(40), seed=7,
        ).run()
        assert [e.unit for e in batched.history] == [e.unit for e in serial.history]
        assert [e.value for e in batched.history] == [e.value for e in serial.history]

    def test_every_builtin_algorithm_runs_batched(self):
        from repro.core import ALGORITHMS

        space = make_space(2)
        for name in sorted(ALGORITHMS):
            result = BatchCalibrator(
                space, quadratic(space), algorithm=name, workers=3, mode="serial",
                budget=EvaluationBudget(25), seed=2,
            ).run()
            assert result.evaluations == 25, name

    def test_synchronous_de_fills_worker_batches(self):
        """synchronous=True asks whole generations after the init batch."""
        space = make_space(2)
        result = BatchCalibrator(
            space, quadratic(space), algorithm="de", workers=4, mode="thread",
            algorithm_options={"population_size": 8, "synchronous": True},
            budget=EvaluationBudget(32), seed=4,
        ).run()
        assert result.evaluations == 32
        assert result.best_value < 25.0

    def test_thread_mode_actually_runs_concurrently(self):
        space = make_space(2)
        active = {"now": 0, "max": 0}
        lock = threading.Lock()
        barrier_like = threading.Event()

        def objective(values):
            with lock:
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
                if active["now"] >= 2:
                    barrier_like.set()
            barrier_like.wait(timeout=5.0)
            with lock:
                active["now"] -= 1
            unit = space.to_unit_array(values)
            return float(np.sum(unit))

        BatchCalibrator(
            space, objective, algorithm="lhs", workers=4, mode="thread",
            algorithm_options={"batch_size": 8}, budget=EvaluationBudget(8), seed=0,
        ).run()
        assert active["max"] >= 2

    def test_within_batch_duplicates_dispatch_once(self):
        """Two candidates of one generation landing on the same point cost
        one dispatch and one budget unit — the serial cache semantics."""

        class Duplicating(CalibrationAlgorithm):
            name = "duplicating"

            def _setup(self):
                self._gen = 0

            def _generate(self, rng, n):
                if self._gen >= 100:
                    return None
                self._gen += 1
                point = np.full(2, 0.01 * self._gen)
                return [point, point.copy(), np.full(2, 0.5 + 0.001 * self._gen)]

        space = make_space(2)
        calls = {"n": 0}

        def counting(values):
            calls["n"] += 1
            unit = space.to_unit_array(values)
            return float(np.sum(unit))

        told = []
        algorithm = Duplicating()
        original_tell = algorithm.tell
        algorithm.tell = lambda cands, vals: (told.extend(vals), original_tell(cands, vals))
        result = BatchCalibrator(
            space, counting, algorithm=algorithm, workers=1, mode="serial",
            batch_size=8, budget=EvaluationBudget(6), seed=0,
        ).run()
        # 3 generations of 3 candidates, 2 unique each: 6 dispatches total,
        # and every candidate (duplicates included) was told a value.
        assert calls["n"] == 6
        assert result.evaluations == 6
        assert len(told) == 9
        class Legacy(CalibrationAlgorithm):
            name = "legacy"

            def run(self, objective, space, rng):  # pragma: no cover - stub
                pass

        space = make_space(2)
        with pytest.raises(ValueError):
            BatchCalibrator(space, quadratic(space), algorithm=Legacy())


class TestCacheConsultation:
    def test_warm_cache_answers_without_dispatching(self):
        """A shared cache warmed by one run answers the identical rerun
        without a single new dispatch (count_cache_hits keeps the budget
        accounting of the replayed run)."""
        space = make_space(2)
        calls = {"n": 0}

        def counting(values):
            calls["n"] += 1
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.37) ** 2))

        shared = DictCache()
        cold = BatchCalibrator(
            space, counting, algorithm="lhs", workers=2, mode="thread",
            budget=EvaluationBudget(20), seed=5, cache=shared,
        ).run()
        assert calls["n"] == 20
        warm_driver = BatchCalibrator(
            space, counting, algorithm="lhs", workers=2, mode="thread",
            budget=EvaluationBudget(20), seed=5, cache=shared,
            record_cache_hits=True, count_cache_hits=True,
        )
        warm = warm_driver.run()
        assert calls["n"] == 20  # nothing new was simulated
        assert warm_driver.cache_hits == 20
        assert warm.evaluations == 0
        assert warm.best_value == cold.best_value
        assert [e.unit for e in warm.history] == [e.unit for e in cold.history]
        assert all(e.cached for e in warm.history)

    def test_warm_run_stops_at_the_exact_budget_mid_batch(self):
        """Counted cache hits must respect the evaluation cap candidate by
        candidate: a store warmer than the budget, with the budget not
        aligned to batch boundaries, stops at exactly the serial total."""
        space = make_space(2)
        shared = DictCache()
        BatchCalibrator(
            space, quadratic(space), algorithm="lhs", workers=1, mode="serial",
            budget=EvaluationBudget(32), seed=9, cache=shared,
        ).run()
        warm = BatchCalibrator(
            space, quadratic(space), algorithm="lhs", workers=1, mode="serial",
            batch_size=4, budget=EvaluationBudget(10), seed=9, cache=shared,
            record_cache_hits=True, count_cache_hits=True,
        ).run()
        assert len(warm.history) == 10  # not 12
        serial = Calibrator(
            space, quadratic(space), algorithm="lhs",
            budget=EvaluationBudget(10), seed=9, cache=shared,
            record_cache_hits=True, count_cache_hits=True,
        ).run()
        assert [e.unit for e in warm.history] == [e.unit for e in serial.history]

    def test_half_warm_history_lands_in_ask_order_like_serial(self):
        """Records land in ask order: on a cache holding every other
        point, hits and dispatched evaluations interleave in the batched
        history exactly as the serial driver records them."""
        from repro.core.evaluation import Objective, unit_cache_key

        space = make_space(2)
        settings = dict(
            algorithm="lhs", budget=EvaluationBudget(12), seed=5,
            record_cache_hits=True, count_cache_hits=True,
        )
        cold = Calibrator(space, quadratic(space), **settings).run()

        def half_warm():
            cache = DictCache()
            for evaluation in cold.history[::2]:
                key = unit_cache_key(np.asarray(evaluation.unit), Objective.CACHE_DECIMALS)
                cache.put(key, evaluation.values, evaluation.value)
            return cache

        serial = Calibrator(space, quadratic(space), cache=half_warm(), **settings).run()
        batched = BatchCalibrator(
            space, quadratic(space), workers=4, mode="thread", cache=half_warm(), **settings
        ).run()
        assert [e.cached for e in serial.history] == [True, False] * 6
        assert [e.unit for e in batched.history] == [e.unit for e in serial.history]
        assert [e.cached for e in batched.history] == [e.cached for e in serial.history]

    def test_integer_parameters_share_one_cache_entry_and_charge(self):
        """Keys are built from the round-tripped unit (Objective's
        canonicalization): two asked units collapsing onto one integer
        point cost one dispatch and one budget unit, as in serial."""

        class TwoUnits(CalibrationAlgorithm):
            name = "two-units"

            def _setup(self):
                self._gen = 0

            def _generate(self, rng, n):
                self._gen += 1
                offset = 0.1 * self._gen
                # Both land on the same integer after from_unit_array.
                return [np.array([offset + 0.0001]), np.array([offset + 0.0002])]

        space = ParameterSpace([Parameter("n", 2, 64, scale="linear", integer=True)])
        calls = {"n": 0}

        def counting(values):
            calls["n"] += 1
            return float(values["n"])

        result = BatchCalibrator(
            space, counting, algorithm=TwoUnits(), workers=1, mode="serial",
            batch_size=4, budget=EvaluationBudget(3), seed=0,
        ).run()
        assert calls["n"] == 3
        assert result.evaluations == 3

    def test_dedupe_cache_is_accepted_and_shares_in_flight_work(self):
        """The claim/lease protocol replaced the blocking hold-and-wait
        dedupe: a single-flight store cache now works with batch drivers,
        and two concurrent drivers on the same scenario compute every
        point exactly once between them (grid visits the same lattice
        regardless of seed)."""
        import threading

        from repro.service import InMemoryStore, StoreBackedCache

        space = make_space(3)
        store = InMemoryStore()
        lock = threading.Lock()
        calls = []

        def slow(values):
            with lock:
                calls.append(dict(values))
            import time as _time

            _time.sleep(0.003)
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.37) ** 2))

        def run(seed):
            return BatchCalibrator(
                space, slow, algorithm="grid", workers=2, mode="thread",
                budget=EvaluationBudget(27), seed=seed,
                cache=StoreBackedCache(store, "fp", dedupe_in_flight=True, lease_ttl=30.0),
                record_cache_hits=True, count_cache_hits=True,
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
        assert len(calls) == 27  # the 3^3 lattice, computed once across both
        assert results[0].best_value == results[1].best_value
        assert store.lease_count() == 0  # every claim was finished

    def test_store_backed_cache_without_dedupe_shares_work(self):
        """The supported store binding (dedupe_in_flight=False) shares
        evaluations between a batched run and later runs on the store."""
        from repro.service import InMemoryStore, StoreBackedCache

        space = make_space(2)
        store = InMemoryStore()
        calls = {"n": 0}

        def counting(values):
            calls["n"] += 1
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.37) ** 2))

        def run_once():
            return BatchCalibrator(
                space, counting, algorithm="lhs", workers=1, mode="serial",
                budget=EvaluationBudget(12), seed=6,
                cache=StoreBackedCache(store, "fp-shared", dedupe_in_flight=False),
                record_cache_hits=True, count_cache_hits=True,
            ).run()

        cold, warm = run_once(), run_once()
        assert calls["n"] == 12  # the second run re-paid for nothing
        assert warm.best_value == cold.best_value

    def test_cold_in_memory_cache_matches_no_cache(self):
        space = make_space(2)
        with_cache = BatchCalibrator(
            space, quadratic(space), algorithm="random", workers=2, mode="serial",
            budget=EvaluationBudget(15), seed=1, cache=True,
        ).run()
        without = BatchCalibrator(
            space, quadratic(space), algorithm="random", workers=2, mode="serial",
            budget=EvaluationBudget(15), seed=1, cache=False,
        ).run()
        assert [e.value for e in with_cache.history] == [e.value for e in without.history]
