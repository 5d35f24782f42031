"""The calibration server: scheduling, shared-store reuse, dedup, events."""

import json
import threading
import time

import pytest

from repro.core import Calibrator, EvaluationBudget, Parameter, ParameterSpace, get_algorithm
from repro.service import (
    CalibrationRequest,
    CalibrationServer,
    InMemoryStore,
    JobStatus,
    StoreBackedCache,
)


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 16.0), Parameter("y", 1.0, 16.0)])


def quadratic(values):
    return (values["x"] - 4.0) ** 2 + (values["y"] - 9.0) ** 2


def make_request(space, fn=quadratic, algorithm="random", evaluations=25, seed=7,
                 fingerprint="fp-quadratic"):
    return CalibrationRequest(
        space=space,
        objective=fn,
        fingerprint=fingerprint,
        algorithm=algorithm,
        budget=EvaluationBudget(evaluations),
        seed=seed,
    )


class TestSequentialJobs:
    def test_second_identical_job_is_served_from_the_store(self):
        space = make_space()
        calls = []

        def fn(values):
            calls.append(values)
            return quadratic(values)

        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            first = server.submit(make_request(space, fn))
            assert first.wait(60)
            second = server.submit(make_request(space, fn))
            assert second.wait(60)

        assert first.status is JobStatus.DONE
        assert first.evaluations == 25 and first.cache_hits == 0
        # The warm job re-pays for nothing...
        assert second.evaluations == 0 and second.cache_hits == 25
        assert len(calls) == 25
        # ...and reproduces the cold job's result exactly.
        assert second.result.best_value == first.result.best_value
        assert second.result.best_values == first.result.best_values

    def test_warm_job_matches_a_plain_calibrator_byte_for_byte(self):
        space = make_space()
        plain = Calibrator(
            space, quadratic, algorithm="random", budget=EvaluationBudget(25), seed=7
        ).run()
        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            cold = server.submit(make_request(space))
            warm = server.submit(make_request(space))
            assert cold.wait(60) and warm.wait(60)
        for job in (cold, warm):
            assert json.dumps(job.result.best_values, sort_keys=True) == json.dumps(
                plain.best_values, sort_keys=True
            )
            assert job.result.best_value == plain.best_value

    def test_different_seeds_still_profit_from_shared_points(self):
        # Grid search visits the same lattice regardless of seed.
        space = make_space()
        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            a = server.submit(make_request(space, algorithm="grid", evaluations=16, seed=1))
            assert a.wait(60)
            b = server.submit(make_request(space, algorithm="grid", evaluations=16, seed=2))
            assert b.wait(60)
        assert b.cache_hits > 0

    def test_fingerprints_isolate_scenarios(self):
        space = make_space()
        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            a = server.submit(make_request(space, fingerprint="fp-a"))
            assert a.wait(60)
            b = server.submit(make_request(space, fingerprint="fp-b"))
            assert b.wait(60)
        assert b.cache_hits == 0 and b.evaluations == 25

    @pytest.mark.parametrize("name, options", [
        ("cmaes", {"population_size": 4}),
        ("de", {"mutation": 0.5}),
        ("tpe", {"warmup": 6}),
    ])
    def test_a_configured_algorithm_instance_runs_as_given(self, name, options):
        """A request carries a non-default algorithm as an instance: the
        job walks the plain calibrator's trajectory under the same one."""
        space = make_space()
        plain = Calibrator(space, quadratic, algorithm=get_algorithm(name, **options),
                           budget=EvaluationBudget(40), seed=7).run()
        default = Calibrator(space, quadratic, algorithm=name,
                             budget=EvaluationBudget(40), seed=7).run()
        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            job = server.submit(make_request(space, algorithm=get_algorithm(name, **options),
                                             evaluations=40))
            assert job.wait(60)
        assert job.status is JobStatus.DONE
        served = [e.unit for e in job.result.history]
        assert served == [e.unit for e in plain.history]
        assert served != [e.unit for e in default.history]


class TestConcurrentJobs:
    def test_in_flight_deduplication_shares_work(self):
        space = make_space()
        lock = threading.Lock()
        calls = []

        def slow(values):
            with lock:
                calls.append(dict(values))
            time.sleep(0.005)
            return quadratic(values)

        with CalibrationServer(store=InMemoryStore(), workers=2, progress_every=0) as server:
            a = server.submit(make_request(space, slow, evaluations=20, seed=3))
            b = server.submit(make_request(space, slow, evaluations=20, seed=3))
            assert a.wait(60) and b.wait(60)

        # Two identical concurrent jobs, 20 points each: every point is
        # simulated exactly once, the other job waits for the result.
        assert len(calls) == 20
        assert a.cache_hits + b.cache_hits == 20
        assert a.result.best_value == b.result.best_value

    def test_worker_pool_is_bounded(self):
        space = make_space()
        active = []
        peak = []
        lock = threading.Lock()

        def tracking(values):
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.002)
            with lock:
                active.pop()
            return quadratic(values)

        with CalibrationServer(store=InMemoryStore(), workers=2,
                               progress_every=0) as server:
            jobs = [
                server.submit(make_request(space, tracking, evaluations=10, seed=s,
                                           fingerprint=f"fp-{s}"))
                for s in range(5)
            ]
            for job in jobs:
                assert job.wait(60)
        assert max(peak) <= 2


class TestFailuresAndEvents:
    def test_failing_objective_fails_the_job_not_the_server(self):
        space = make_space()

        def broken(values):
            raise RuntimeError("simulator exploded")

        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            bad = server.submit(make_request(space, broken))
            assert bad.wait(60)
            assert bad.status is JobStatus.FAILED
            assert "simulator exploded" in bad.error
            # The server keeps serving after a failure...
            good = server.submit(make_request(space))
            assert good.wait(60)
            assert good.status is JobStatus.DONE

    def test_leader_failure_releases_waiters(self):
        # One job's simulator dies mid-point while another job waits on the
        # same in-flight point; the waiter must not deadlock.
        space = ParameterSpace([Parameter("x", 1.0, 16.0)])
        fail_first = {"armed": True}
        lock = threading.Lock()

        def flaky(values):
            with lock:
                should_fail = fail_first["armed"]
                fail_first["armed"] = False
            if should_fail:
                time.sleep(0.01)
                raise RuntimeError("first invocation dies")
            return (values["x"] - 4.0) ** 2

        with CalibrationServer(store=InMemoryStore(), workers=2, progress_every=0) as server:
            a = server.submit(make_request(space, flaky, evaluations=5, seed=3))
            b = server.submit(make_request(space, flaky, evaluations=5, seed=3))
            assert a.wait(30) and b.wait(30), "a waiter deadlocked on a failed leader"
        statuses = sorted(j.status for j in (a, b))
        assert JobStatus.DONE in statuses  # at least one job recovered

    def test_events_are_streamed_in_order(self):
        space = make_space()
        seen = []
        with CalibrationServer(
            store=InMemoryStore(), workers=1, progress_every=10,
            on_event=lambda job, event: seen.append((job.id, event.kind)),
        ) as server:
            job = server.submit(make_request(space, evaluations=25))
            assert job.wait(60)
        kinds = [kind for jid, kind in seen if jid == job.id]
        assert kinds[0] == "submitted"
        assert kinds[1] == "started"
        assert kinds[-1] == "finished"
        assert kinds.count("progress") == 2  # 25 evaluations, one event per 10
        assert [e.seq for e in job.events] == list(range(len(job.events)))

    def test_broken_event_subscriber_does_not_kill_the_job(self):
        space = make_space()

        def bad_subscriber(job, event):
            raise ValueError("subscriber bug")

        with CalibrationServer(store=InMemoryStore(), workers=1,
                               on_event=bad_subscriber) as server:
            job = server.submit(make_request(space))
            assert job.wait(60)
        assert job.status is JobStatus.DONE


class TestServerBookkeeping:
    def test_snapshot_and_get(self):
        space = make_space()
        with CalibrationServer(store=InMemoryStore(), workers=1) as server:
            job = server.submit(make_request(space))
            assert server.get(job.id) is job
            assert job.wait(60)
            (record,) = server.snapshot()
        assert record["id"] == job.id
        assert record["status"] == "done"
        assert record["best_value"] == pytest.approx(job.result.best_value)

    def test_submit_after_shutdown_is_rejected(self):
        server = CalibrationServer(store=InMemoryStore(), workers=1)
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.submit(make_request(make_space()))

    def test_store_backed_cache_counts_per_job_hits(self):
        store = InMemoryStore()
        store.put("fp", {"x": 4.0, "y": 9.0}, 0.0)
        cache = StoreBackedCache(store, "fp")
        assert cache.get((0.0, 0.0), {"x": 4.0, "y": 9.0}) == 0.0
        assert cache.get((0.0, 0.0), {"x": 5.0, "y": 9.0}) is None
        cache.put((0.0, 0.0), {"x": 5.0, "y": 9.0}, 1.0)
        assert cache.hits == 1 and cache.misses == 1
