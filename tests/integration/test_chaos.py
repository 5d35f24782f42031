"""Chaos end-to-end: calibration through injected failures and hangs.

The acceptance test of the fault-tolerance layer: a calibration with 20%
injected transient failures and one permanently hung evaluation must
complete with the *same best* as the clean run, record every permanent
failure in the store, and never wedge.  Every driver run happens on a
daemon thread under a hard join timeout, so a wedged run fails the test
(and the CI ``chaos`` job's ``timeout-minutes``) instead of stalling it.

The fault layout is deterministic: :class:`FaultyObjective` picks
failing/hanging points by hashing the parameter vector, so the seed/salt
pair below was chosen to give the 24-point trajectory 5 failing points
and exactly 1 hanging point, with the clean best un-faulted.
"""

import threading
import time

import numpy as np

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    FailurePolicy,
    Parameter,
    ParameterSpace,
    RetryPolicy,
    RunConfig,
)
from repro.service import CalibrationRequest, InMemoryStore, JobStatus, StoreBackedCache
from repro.service.fleet import FleetClient, FleetFrontend, FleetServer, FleetWorker
from repro.service.fleet.faults import FaultyObjective

SPACE = ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(2)])

#: chosen so the seed-0 24-point random trajectory holds 5 failing points
#: and exactly 1 hanging point, none of them the clean best (see module
#: docstring)
SEED = 0
SALT = 3
BUDGET = 24

RETRY = RetryPolicy(max_attempts=2, backoff=0.01, backoff_max=0.02)
PENALTY = FailurePolicy(penalty=1.0e6)
EVAL_TIMEOUT = 0.75


def base_objective(values):
    unit = SPACE.to_unit_array(values)
    return float(np.sum((unit - 0.37) ** 2)) * 100.0


def run_without_wedging(calibrator, timeout=90.0):
    """Run a driver on a daemon thread; a wedge fails the test instead of
    stalling the suite."""
    box = {}

    def target():
        try:
            box["result"] = calibrator.run()
        except BaseException as error:  # re-raised on the test thread
            box["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"calibration wedged past the {timeout:g}s deadline"
    if "error" in box:
        raise box["error"]
    return box["result"]


def chaos_objective(fail_attempts=1):
    return FaultyObjective(
        base_objective,
        fail_fraction=0.2,
        fail_attempts=fail_attempts,
        hang_fraction=0.05,
        hang_seconds=600.0,
        salt=SALT,
    )


def clean_run():
    return BatchCalibrator(
        SPACE, base_objective, algorithm="random", workers=4, mode="serial",
        budget=EvaluationBudget(BUDGET), seed=SEED,
    ).run()


class TestBatchChaos:
    def test_completes_with_the_clean_best_and_records_the_hang(self):
        clean = clean_run()
        faulty = chaos_objective()
        hanging = [e.values for e in clean.history if faulty.is_hanging_point(e.values)]
        failing = [e.values for e in clean.history if faulty.is_failing_point(e.values)]
        assert len(hanging) == 1 and len(failing) == 5  # the chosen layout

        store = InMemoryStore()
        calibrator = BatchCalibrator(
            SPACE, faulty, algorithm="random", workers=4, mode="process",
            budget=EvaluationBudget(BUDGET), seed=SEED,
            cache=StoreBackedCache(store, "chaos"),
            config=RunConfig(retry_policy=RETRY, failure_policy=PENALTY, eval_timeout=EVAL_TIMEOUT),
        )
        result = run_without_wedging(calibrator)

        # Same budget, same best as the clean run: transient failures
        # recovered on retry, only the hung point became a penalty.
        assert result.evaluations == BUDGET
        assert result.best_value == clean.best_value
        assert result.best_values == clean.best_values
        failed = [e for e in result.history if e.failed]
        assert [e.values for e in failed] == hanging
        assert all(e.value == PENALTY.penalty for e in failed)
        # Retries were actually burned recovering the failing points.
        assert calibrator.evaluator.retries_total >= len(failing)
        # The permanent failure is quarantined in the store, as a timeout.
        assert store.failure_count() == 1
        stored = store.get_failure("chaos", hanging[0])
        assert stored is not None and stored.kind == "timeout"
        assert stored.attempts == RETRY.max_attempts

    def test_exhausted_transients_are_recorded_too(self):
        """With unrecoverable transient faults every failing point becomes
        a recorded failure — and the run still completes on budget."""
        clean = clean_run()
        faulty = chaos_objective(fail_attempts=10)  # never recovers in 2 attempts
        store = InMemoryStore()
        calibrator = BatchCalibrator(
            SPACE, faulty, algorithm="random", workers=4, mode="process",
            budget=EvaluationBudget(BUDGET), seed=SEED,
            cache=StoreBackedCache(store, "chaos"),
            config=RunConfig(retry_policy=RETRY, failure_policy=PENALTY, eval_timeout=EVAL_TIMEOUT),
        )
        result = run_without_wedging(calibrator)
        assert result.evaluations == BUDGET
        assert result.best_value == clean.best_value  # the best is un-faulted
        assert sum(1 for e in result.history if e.failed) == 6  # 5 failing + 1 hung
        assert store.failure_count() == 6


class TestAsyncChaos:
    def test_completes_with_the_clean_best(self):
        clean = clean_run()
        store = InMemoryStore()
        calibrator = AsyncCalibrator(
            SPACE, chaos_objective(), algorithm="random", workers=4, mode="process",
            budget=EvaluationBudget(BUDGET), seed=SEED,
            cache=StoreBackedCache(store, "chaos"),
            config=RunConfig(retry_policy=RETRY, failure_policy=PENALTY, eval_timeout=EVAL_TIMEOUT),
        )
        result = run_without_wedging(calibrator)
        assert result.evaluations == BUDGET
        # Random is async-native: the asked point set is the rng's alone,
        # so it matches the clean trajectory regardless of completion order.
        assert sorted(e.unit for e in result.history) == sorted(
            e.unit for e in clean.history
        )
        assert result.best_value == clean.best_value
        assert result.best_values == clean.best_values
        assert store.failure_count() == 1


class TestQuarantineAcrossJobs:
    def test_second_job_skips_the_poison_point_without_hanging(self):
        """A job sharing the store never re-evaluates (or waits on) the
        hung point a previous job diagnosed: it replays warm and fast."""
        store = InMemoryStore()
        first = BatchCalibrator(
            SPACE, chaos_objective(), algorithm="random", workers=4, mode="process",
            budget=EvaluationBudget(BUDGET), seed=SEED,
            cache=StoreBackedCache(store, "chaos"),
            config=RunConfig(retry_policy=RETRY, failure_policy=PENALTY, eval_timeout=EVAL_TIMEOUT),
        )
        result = run_without_wedging(first)
        assert store.failure_count() == 1

        # The second job runs the *hanging* objective with NO timeout: it
        # completes only because the quarantine skips the poison point.
        # Warm-store accounting (count/record hits) makes the replay
        # terminate on the same 24 steps.
        second = Calibrator(
            SPACE, chaos_objective(), algorithm="random",
            budget=EvaluationBudget(BUDGET), seed=SEED,
            cache=StoreBackedCache(store, "chaos"),
            config=RunConfig(replay_cache_hits=True, failure_policy=PENALTY),
        )
        replay = run_without_wedging(second, timeout=60.0)
        assert replay.best_value == result.best_value
        assert store.failure_count() == 1  # nothing new was diagnosed
        assert sum(1 for e in replay.history if e.failed) == 1  # the skip
        assert sum(1 for e in replay.history if e.cached) == BUDGET - 1


class TestFleetChaos:
    def test_a_hanging_point_costs_one_deadline_not_a_lease(self):
        """Through the fleet the job's run configuration reaches the
        workers: the hung point is quarantined as a timeout within one
        hard deadline, well before any lease could expire, every worker
        keeps serving, and the best is the clean run's."""
        clean = Calibrator(
            SPACE, base_objective, algorithm="random", budget=EvaluationBudget(BUDGET), seed=SEED,
        ).run()
        faulty = FaultyObjective(base_objective, hang_fraction=0.05, hang_seconds=600.0, salt=SALT)
        hanging = [e.values for e in clean.history if faulty.is_hanging_point(e.values)]
        assert len(hanging) == 1  # the chosen layout
        config = RunConfig(eval_timeout=EVAL_TIMEOUT, failure_policy=FailurePolicy())
        lease_ttl = 30.0
        assert config.hard_deadline() < lease_ttl

        store = InMemoryStore()
        server = FleetServer(store=store, workers=1, max_pending=3, poll_interval=0.1)
        frontend = FleetFrontend(server, port=0).start()
        workers, threads = [], []
        try:
            client = FleetClient(frontend.url, timeout=10.0)
            for _ in range(2):
                worker = FleetWorker(client, store, resolver=lambda spec: faulty,
                                     lease_ttl=lease_ttl, poll=0.1)
                thread = threading.Thread(target=worker.run, kwargs={"max_idle": 2.0}, daemon=True)
                thread.start()
                workers.append(worker)
                threads.append(thread)
            started = time.monotonic()
            job = server.submit(CalibrationRequest(
                space=SPACE, objective=faulty, fingerprint="chaos", algorithm="random",
                budget=EvaluationBudget(BUDGET), seed=SEED, config=config,
            ))
            assert job.wait(lease_ttl), "the hung point waited out a lease"
            elapsed = time.monotonic() - started
            assert all(thread.is_alive() for thread in threads), "a worker died"
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "a worker wedged"
        finally:
            frontend.close()
            server.shutdown(wait=False)

        assert job.status is JobStatus.DONE, job.error
        assert elapsed < config.hard_deadline() + 10.0
        result = job.result
        assert result.evaluations == BUDGET
        assert result.best_value == clean.best_value
        assert result.best_values == clean.best_values
        failed = [e for e in result.history if e.failed]
        assert [e.values for e in failed] == hanging
        stored = store.get_failure("chaos", hanging[0])
        assert stored is not None and stored.kind == "timeout"
        assert store.failure_count() == 1
        assert sum(w.stats["failures"] for w in workers) == 1
        assert sum(w.stats["evaluations"] for w in workers) == BUDGET - 1
