"""The in-process fleet: server + HTTP front-end + worker over one store.

Everything here runs in one process (workers as threads) so the tests are
fast and deterministic; the cross-process story — real subprocesses dying
mid-lease — lives in ``tests/integration/test_fleet.py``.
"""

import json
import threading
import types

import pytest

from repro.core import (
    Calibrator,
    EvaluationBudget,
    EvaluationFailed,
    FailurePolicy,
    Parameter,
    ParameterSpace,
    RetryPolicy,
    RunConfig,
    get_algorithm,
)
from repro.service import CalibrationRequest, InMemoryStore, JobSpool, JobStatus
from repro.service.fleet import (
    FaultyObjective,
    FleetClient,
    FleetClientError,
    FleetFrontend,
    FleetServer,
    FleetWorker,
)


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 16.0), Parameter("y", 1.0, 16.0)])


def quadratic(values):
    return (values["x"] - 4.0) ** 2 + (values["y"] - 9.0) ** 2


def forbidden(values):
    raise AssertionError("a fleet job must evaluate on workers, not the server")


def broken(values):
    raise ValueError("simulator exploded")


class CallLog:
    """The points the workers evaluated, one line each in a file: a worker
    evaluates in its pool process, so an in-memory list would stay empty."""

    def __init__(self, path):
        self.path = path

    def append(self, values):
        with open(self.path, "a") as handle:
            handle.write(json.dumps(values) + "\n")

    def __len__(self):
        return len(self.path.read_text().splitlines()) if self.path.exists() else 0


class LoggedQuadratic:
    """The quadratic, logging each call to a :class:`CallLog` (it pickles
    into a worker's pool, unlike a closure)."""

    def __init__(self, calls=None):
        self.calls = calls

    def __call__(self, values):
        if self.calls is not None:
            self.calls.append(dict(values))
        return quadratic(values)


def make_request(space, fn=forbidden, algorithm="random", evaluations=20, seed=7,
                 fingerprint="fp-fleet"):
    return CalibrationRequest(
        space=space,
        objective=fn,
        fingerprint=fingerprint,
        algorithm=algorithm,
        budget=EvaluationBudget(evaluations),
        seed=seed,
    )


def run_worker_thread(client, store, calls=None, **kwargs):
    """A fleet worker as a daemon thread with a local quadratic resolver."""
    objective = LoggedQuadratic(calls)
    worker = FleetWorker(
        client, store, resolver=lambda spec: objective, poll=0.1, **kwargs
    )
    thread = threading.Thread(target=worker.run, kwargs={"max_idle": 2.0}, daemon=True)
    thread.start()
    return worker, thread


@pytest.fixture()
def fleet():
    store = InMemoryStore()
    server = FleetServer(store=store, workers=1, max_pending=3, poll_interval=0.1)
    frontend = FleetFrontend(server, port=0).start()
    client = FleetClient(frontend.url, timeout=10.0)
    try:
        yield store, server, frontend, client
    finally:
        frontend.close()
        server.shutdown(wait=False)


class TestFleetCalibration:
    def test_fleet_run_is_byte_identical_to_serial(self, fleet, tmp_path):
        store, server, frontend, client = fleet
        space = make_space()
        serial = Calibrator(
            space, quadratic, algorithm="random", budget=EvaluationBudget(20), seed=7
        ).run()

        settled = []  # each successful resolve: a worker's publish or the store poller's
        resolve = server.board.resolve
        server.board.resolve = lambda *args: settled.append(resolve(*args)) or settled[-1]
        calls = CallLog(tmp_path / "calls.jsonl")
        worker, thread = run_worker_thread(client, store, calls=calls)
        job = server.submit(make_request(space))
        assert job.wait(60)
        thread.join(timeout=30)

        assert job.status is JobStatus.DONE
        assert job.result.best_value == serial.best_value
        assert json.dumps(job.result.best_values, sort_keys=True) == json.dumps(
            serial.best_values, sort_keys=True
        )
        fleet_points = [(e.unit, e.value) for e in job.result.history]
        serial_points = [(e.unit, e.value) for e in serial.history]
        assert fleet_points == serial_points

        # Zero duplicate simulator invocations: every evaluation ran exactly
        # once, on the worker, and landed in the shared store; and each
        # task was settled once, by the worker's publish or, when the store
        # poller saw the value first, by the poller.
        assert len(calls) == 20
        assert len(store) == 20
        assert worker.stats["evaluations"] == 20
        assert sum(settled) == 20

    def test_fleet_runs_a_configured_algorithm_instance_as_given(self, fleet):
        """A fleet job takes a non-default algorithm as an instance and walks
        the serial trajectory of the same configured instance."""
        store, server, frontend, client = fleet
        space = make_space()
        serial = Calibrator(
            space, quadratic, algorithm=get_algorithm("cmaes", population_size=4),
            budget=EvaluationBudget(16), seed=7,
        ).run()
        worker, thread = run_worker_thread(client, store)
        job = server.submit(make_request(
            space, algorithm=get_algorithm("cmaes", population_size=4), evaluations=16))
        assert job.wait(60)
        thread.join(timeout=30)
        assert job.status is JobStatus.DONE
        assert [e.unit for e in job.result.history] == [e.unit for e in serial.history]

    def test_fleet_job_resumes_a_serial_tell_log(self, fleet, tmp_path):
        """Every driver writes one tell-log format: a fleet job replays a
        log the serial calibrator wrote and finishes its trajectory, the
        workers evaluating only the points past the log."""
        store, server, frontend, client = fleet
        space = make_space()
        serial = Calibrator(
            space, quadratic, algorithm="random", budget=EvaluationBudget(20), seed=7
        ).run()
        log = []
        Calibrator(
            space, quadratic, algorithm="random", budget=EvaluationBudget(8), seed=7
        ).run(checkpoint_every=8, on_checkpoint=log.extend)

        calls = CallLog(tmp_path / "calls.jsonl")
        _, thread = run_worker_thread(client, store, calls=calls)
        request = make_request(space)
        request.checkpoint = json.loads(json.dumps(log))
        job = server.submit(request)
        assert job.wait(60)
        thread.join(timeout=30)

        assert job.status is JobStatus.DONE
        assert [(e.unit, e.value) for e in job.result.history] == [
            (e.unit, e.value) for e in serial.history
        ]
        assert len(calls) == 12

    def test_spooled_job_keeps_its_tell_log_as_its_history(self, fleet, tmp_path):
        """Served through the fleet as by `repro serve`, a finished spooled
        job leaves its job file, a result without a history and its tell
        log, from which read_result rebuilds the in-memory history."""
        import argparse

        from repro.cli.main import _serve_spool, _spool_events
        from repro.core.serialization import evaluation_to_dict

        store, server, frontend, client = fleet
        space = make_space()
        spool = JobSpool(tmp_path / "spool")
        job_id = spool.submit({})
        server.on_event = _spool_events(spool)
        jobs = []
        submit = server.submit

        def submitting(request, job_id=None):
            jobs.append(submit(request, job_id=job_id))
            return jobs[-1]

        server.submit = submitting
        factory = types.SimpleNamespace(request=lambda spec: make_request(space))
        _, thread = run_worker_thread(client, store)
        assert _serve_spool(spool, server, factory, argparse.Namespace(poll=None)) == 1
        thread.join(timeout=30)

        assert spool.load(job_id)["status"] == "done"
        assert "history" not in json.loads(spool.result_path(job_id).read_text())
        assert len(spool.read_checkpoint(job_id)) == 20
        assert [evaluation_to_dict(e) for e in spool.read_result(job_id).history] == [
            evaluation_to_dict(e) for e in jobs[0].result.history
        ]

    def test_two_worker_threads_split_the_work_without_duplicates(self, fleet, tmp_path):
        store, server, frontend, client = fleet
        space = make_space()
        calls = CallLog(tmp_path / "calls.jsonl")
        w1, t1 = run_worker_thread(client, store, calls=calls)
        w2, t2 = run_worker_thread(client, store, calls=calls)
        job = server.submit(make_request(space, evaluations=30))
        assert job.wait(60)
        t1.join(timeout=30)
        t2.join(timeout=30)
        assert job.status is JobStatus.DONE
        assert len(calls) == 30, "no point may be evaluated twice"
        assert w1.stats["evaluations"] + w2.stats["evaluations"] == 30

    def test_warm_store_serves_a_repeat_job_without_workers(self, fleet):
        store, server, frontend, client = fleet
        space = make_space()
        _, thread = run_worker_thread(client, store)
        cold = server.submit(make_request(space))
        assert cold.wait(60)
        thread.join(timeout=30)
        # The warm job replays entirely from the store: no worker running.
        warm = server.submit(make_request(space))
        assert warm.wait(60)
        assert warm.status is JobStatus.DONE
        assert warm.cache_hits == 20 and warm.evaluations == 0
        assert warm.result.best_value == cold.result.best_value

    def test_worker_failure_fails_the_job_loudly(self, fleet):
        store, server, frontend, client = fleet
        space = make_space()
        worker = FleetWorker(client, store, resolver=lambda spec: broken, poll=0.1)
        thread = threading.Thread(target=worker.run, kwargs={"max_idle": 2.0}, daemon=True)
        thread.start()
        job = server.submit(make_request(space))
        assert job.wait(60)
        thread.join(timeout=30)
        assert job.status is JobStatus.FAILED
        assert "simulator exploded" in (job.error or "")
        assert worker.stats["failures"] >= 1
        # The broken evaluation's lease was released, not left to expire.
        assert store.lease_count() == 0

    def test_store_poller_resolves_a_put_without_a_publish(self, fleet):
        """A worker that stores its result but dies before the HTTP publish
        still completes the job: the server's store poller backstops it."""
        store, server, frontend, client = fleet
        space = make_space()

        def put_only():
            seen = set()
            while True:
                tasks = client.tasks(wait=0.5)
                for task in tasks:
                    if task["id"] in seen:
                        continue
                    seen.add(task["id"])
                    values = {k: float(v) for k, v in task["values"].items()}
                    store.put(task["fingerprint"], values, quadratic(values))
                    # ...and "die" before client.publish: no HTTP round-trip.
                if done.is_set():
                    return

        done = threading.Event()
        thread = threading.Thread(target=put_only, daemon=True)
        thread.start()
        try:
            job = server.submit(make_request(space, evaluations=10))
            assert job.wait(60), "the poller should resolve put-only results"
            assert job.status is JobStatus.DONE
        finally:
            done.set()
            thread.join(timeout=10)


class TestFrontendEndpoints:
    def test_health_and_job_endpoints(self, fleet):
        store, server, frontend, client = fleet
        space = make_space()
        health = client.health()
        assert health["status"] == "ok" and health["jobs"] == 0

        _, thread = run_worker_thread(client, store)
        job = server.submit(make_request(space, evaluations=5))
        assert job.wait(60)
        thread.join(timeout=30)

        record = client.job(job.id)
        assert record["status"] == "done"
        assert record["evaluations"] == 5
        assert any(r["id"] == job.id for r in client.jobs())

        result = client.result(job.id)
        assert result["best_value"] == job.result.best_value
        assert len(result["history"]) == 5

        events = client.events(job.id)
        kinds = [e["kind"] for e in events]
        assert "submitted" in kinds and "finished" in kinds
        later = client.events(job.id, since=events[-1]["seq"])
        assert len(later) == 1

    def test_unknown_job_is_a_clean_404(self, fleet):
        _, _, _, client = fleet
        with pytest.raises(FleetClientError, match="404"):
            client.job("job-nope")

    def test_result_before_done_is_409(self, fleet):
        store, server, frontend, client = fleet
        space = make_space()
        job = server.submit(make_request(space, evaluations=5))  # no worker running
        try:
            with pytest.raises(FleetClientError, match="409"):
                client.result(job.id)
        finally:
            server.board.withdraw_job(job.id)

    def test_submit_without_handler_is_503(self, fleet):
        _, _, _, client = fleet
        with pytest.raises(FleetClientError, match="503"):
            client.submit({"algorithm": "random"})

    def test_submit_handler_round_trip(self):
        store = InMemoryStore()
        server = FleetServer(store=store, workers=1)
        submitted = []

        def accept(spec):
            submitted.append(spec)
            return f"job-{len(submitted):04d}"

        with FleetFrontend(server, port=0, submit=accept) as frontend:
            client = FleetClient(frontend.url, timeout=10.0)
            job_id = client.submit({"algorithm": "random", "evaluations": 3})
            assert job_id == "job-0001"
            assert submitted == [{"algorithm": "random", "evaluations": 3}]
        server.shutdown(wait=False)

    def test_a_bad_run_configuration_is_400(self):
        server = FleetServer(store=InMemoryStore(), workers=1)
        with FleetFrontend(server, port=0, submit=lambda spec: "job-0001") as frontend:
            client = FleetClient(frontend.url, timeout=10.0)
            with pytest.raises(FleetClientError, match="400"):
                client.submit({"config": {"retry_policy": {"attempts": 3}}})
        server.shutdown(wait=False)

    def test_unknown_endpoint_is_404_and_bad_json_is_400(self, fleet):
        _, _, frontend, client = fleet
        with pytest.raises(FleetClientError, match="404"):
            client._request("/api/nonsense")
        import urllib.request

        request = urllib.request.Request(
            f"{frontend.url}/api/tasks/task-000001/publish",
            data=b"not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400


class TestWorkerProtocol:
    def test_lease_held_elsewhere_is_skipped_not_stolen(self, fleet):
        store, server, frontend, client = fleet
        # Some other worker holds a live lease on the only open point.
        values = {"x": 2.0, "y": 3.0}
        store.claim("fp-fleet", values, owner="other-worker", ttl=60.0)
        server.board.post("job-x", "fp-fleet", values, {})
        worker = FleetWorker(client, store, resolver=lambda spec: quadratic, poll=0.1)
        (task,) = client.tasks()
        assert worker.handle_task(task) is False
        assert worker.stats["lease_skips"] == 1
        assert worker.stats["evaluations"] == 0

    def test_stored_point_is_relayed_not_recomputed(self, fleet):
        store, server, frontend, client = fleet
        values = {"x": 2.0, "y": 3.0}
        store.put("fp-fleet", values, 42.0)
        future = server.board.post("job-x", "fp-fleet", values, {})
        worker = FleetWorker(client, store, resolver=lambda spec: forbidden, poll=0.1)
        (task,) = client.tasks()
        assert worker.handle_task(task) is True
        assert worker.stats["store_hits"] == 1
        assert worker.stats["evaluations"] == 0
        assert future.result(timeout=1)[0] == 42.0

    def test_losing_the_publish_race_is_benign(self, fleet):
        store, server, frontend, client = fleet
        values = {"x": 2.0, "y": 3.0}
        server.board.post("job-x", "fp-fleet", values, {})
        (task,) = client.tasks()
        assert client.publish(task["id"], 1.0) is True
        # The loser of a takeover race publishes into the void: HTTP 200,
        # resolved=false, nobody crashes.
        assert client.publish(task["id"], 2.0) is False


class CountingStore(InMemoryStore):
    """An in-memory store that counts the worker's claims, quarantines and
    releases."""

    def __init__(self):
        super().__init__()
        self.calls = {"claim": 0, "record_failure": 0, "release": 0}

    def claim(self, *args, **kwargs):
        self.calls["claim"] += 1
        return super().claim(*args, **kwargs)

    def record_failure(self, *args, **kwargs):
        self.calls["record_failure"] += 1
        return super().record_failure(*args, **kwargs)

    def release(self, *args, **kwargs):
        self.calls["release"] += 1
        return super().release(*args, **kwargs)


FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.001, backoff_max=0.002)


class TestWorkerFailureRule:
    """The worker evaluates under the task's run configuration, and a
    failed point's fate follows the rule every driver applies."""

    def settle_one(self, fail_attempts, config, lease_ttl=60.0):
        store = CountingStore()
        server = FleetServer(store=store, workers=1, poll_interval=0.1)
        try:
            with FleetFrontend(server, port=0) as frontend:
                client = FleetClient(frontend.url, timeout=10.0)
                objective = FaultyObjective(quadratic, fail_fraction=1.0,
                                            fail_attempts=fail_attempts)
                future = server.board.post("job-x", "fp-fleet", {"x": 2.0, "y": 3.0},
                                           {"config": config.to_dict()})
                worker = FleetWorker(client, store, resolver=lambda spec: objective,
                                     lease_ttl=lease_ttl)
                (task,) = client.tasks()
                try:
                    assert worker.handle_task(task) is True
                finally:
                    worker.close()
                assert client.tasks() == [], "a settled point is never re-claimed"
        finally:
            server.shutdown(wait=False)
        return store, worker, future

    def test_a_point_failing_every_attempt_is_quarantined_once(self):
        config = RunConfig(retry_policy=FAST_RETRY, failure_policy=FailurePolicy())
        store, worker, future = self.settle_one(10, config)
        with pytest.raises(EvaluationFailed) as info:
            future.result(timeout=1)
        assert (info.value.failure.kind, info.value.failure.attempts) == ("transient", 3)
        assert store.calls == {"claim": 1, "record_failure": 1, "release": 0}
        stored = store.get_failure("fp-fleet", {"x": 2.0, "y": 3.0})
        assert (stored.kind, stored.attempts) == ("transient", 3)
        assert worker.stats["failures"] == 1 and worker.stats["evaluations"] == 0

    def test_without_quarantine_the_lease_is_released_once(self):
        config = RunConfig(retry_policy=FAST_RETRY,
                           failure_policy=FailurePolicy(quarantine=False))
        store, worker, future = self.settle_one(10, config)
        with pytest.raises(EvaluationFailed):
            future.result(timeout=1)
        assert store.calls == {"claim": 1, "record_failure": 0, "release": 1}
        assert store.failure_count() == 0 and store.lease_count() == 0

    def test_a_flaky_point_recovers_in_place(self):
        config = RunConfig(retry_policy=FAST_RETRY, failure_policy=FailurePolicy())
        store, worker, future = self.settle_one(1, config)
        assert future.result(timeout=1)[0] == quadratic({"x": 2.0, "y": 3.0})
        assert store.calls == {"claim": 1, "record_failure": 0, "release": 0}
        assert worker.stats["evaluations"] == 1 and worker.stats["failures"] == 0

    def test_a_hard_deadline_past_the_lease_ttl_is_refused(self):
        config = RunConfig(eval_timeout=1.0, failure_policy=FailurePolicy())
        store, worker, future = self.settle_one(0, config, lease_ttl=5.0)
        with pytest.raises(EvaluationFailed, match="not below this worker's lease TTL"):
            future.result(timeout=1)
        assert store.calls == {"claim": 0, "record_failure": 0, "release": 0}
        assert worker.stats["refusals"] == 1
