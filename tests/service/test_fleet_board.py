"""Fleet building blocks: the task board, the lease-free job cache, the
evaluator transport, and the fault injector's counting."""

import threading
import time

import pytest

from repro.core import RunConfig
from repro.core.evaluation import Claim
from repro.core.faults import EvaluationFailed, EvaluationFailure
from repro.core.parallel import ParallelEvaluator
from repro.service import InMemoryStore
from repro.service.fleet import (
    FaultInjector,
    FleetEvaluator,
    FleetWorker,
    StoreReadCache,
    TaskBoard,
)


def plane(values):
    """A picklable objective for a worker's pool process."""
    return values["x"] + values["y"]


class BoardClient:
    """A fleet worker's front-end connection, straight onto a board."""

    def __init__(self, board):
        self.board = board

    def publish(self, task_id, value, duration=0.0):
        return self.board.resolve(task_id, value, duration)

    def fail(self, task_id, failure):
        return self.board.fail(task_id, failure)


class TestTaskBoard:
    def test_post_resolve_round_trip(self):
        board = TaskBoard()
        future = board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {"platform": "FCSN"})
        assert len(board) == 1
        (task,) = board.open_tasks()
        assert task.job_id == "job-1"
        assert task.values == {"x": 2.0, "y": 3.0}
        assert task.spec == {"platform": "FCSN"}
        assert board.resolve(task.id, 7.5, 0.25) is True
        assert future.result(timeout=1) == (7.5, 0.25)
        assert len(board) == 0

    def test_identical_open_points_share_one_task(self):
        board = TaskBoard()
        first = board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})
        second = board.post("job-2", "fp", {"x": 2.0, "y": 3.0}, {})
        assert len(board) == 1, "the identical point must join, not re-post"
        (task,) = board.open_tasks()
        board.resolve(task.id, 1.0)
        assert first.result(timeout=1)[0] == 1.0
        assert second.result(timeout=1)[0] == 1.0

    def test_different_fingerprints_do_not_share(self):
        board = TaskBoard()
        board.post("job-1", "fp-a", {"x": 2.0, "y": 3.0}, {})
        board.post("job-1", "fp-b", {"x": 2.0, "y": 3.0}, {})
        assert len(board) == 2

    def test_double_resolve_is_benign(self):
        board = TaskBoard()
        board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})
        (task,) = board.open_tasks()
        assert board.resolve(task.id, 1.0) is True
        # A second worker losing the publish race must get False, not an error.
        assert board.resolve(task.id, 2.0) is False

    def test_fail_delivers_the_error_through_the_future(self):
        board = TaskBoard()
        future = board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})
        (task,) = board.open_tasks()
        failure = EvaluationFailure("ValueError: simulator exploded", attempts=2)
        assert board.fail(task.id, failure) is True
        with pytest.raises(EvaluationFailed, match="simulator exploded") as info:
            future.result(timeout=1)
        assert info.value.failure == failure

    def test_withdraw_job_cancels_only_that_jobs_tasks(self):
        board = TaskBoard()
        mine = board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})
        other = board.post("job-2", "fp", {"x": 5.0, "y": 6.0}, {})
        assert board.withdraw_job("job-1") == 1
        assert mine.cancelled()
        assert not other.cancelled()
        assert len(board) == 1

    def test_withdraw_hands_a_shared_task_to_the_remaining_rider(self):
        board = TaskBoard()
        first = FleetEvaluator(board, "job-1", "fp", spec={"evaluations": 10})
        second = FleetEvaluator(board, "job-2", "fp", spec={"evaluations": 20})
        mine = first.submit({"x": 2.0, "y": 3.0})
        theirs = second.submit({"x": 2.0, "y": 3.0})
        (task,) = board.open_tasks()
        first.close()
        assert mine.cancelled()
        assert not theirs.cancelled()
        (kept,) = board.open_tasks()
        assert kept.id == task.id, "a worker evaluating it still publishes to it"
        assert kept.job_id == "job-2" and kept.spec == {"evaluations": 20}
        assert board.resolve(task.id, 4.0) is True
        assert theirs.result(timeout=1) == (4.0, 0.0)

    def test_withdraw_cancels_the_jobs_ride_on_another_jobs_task(self):
        board = TaskBoard()
        owner = board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})
        rider = board.post("job-2", "fp", {"x": 2.0, "y": 3.0}, {})
        assert board.withdraw_job("job-2") == 1
        assert rider.cancelled() and not owner.cancelled()
        (task,) = board.open_tasks()
        assert task.job_id == "job-1"
        board.resolve(task.id, 1.0)
        assert owner.result(timeout=1) == (1.0, 0.0)

    def test_the_same_point_under_another_config_is_another_task(self):
        board = TaskBoard()
        values = {"x": 2.0, "y": 3.0}
        strict = {"config": RunConfig(eval_timeout=1.0).to_dict()}
        board.post("job-1", "fp", values, strict)
        board.post("job-2", "fp", values, {})
        assert len(board) == 2
        specs = sorted(
            (task.spec.get("config") or {}).get("eval_timeout") or 0.0
            for task in board.open_tasks()
        )
        assert specs == [0.0, 1.0], "each job's point runs under its own config"
        # The default config, spelt out or left out, is one config.
        board.post("job-3", "fp", values, {"config": RunConfig().to_dict()})
        board.post("job-4", "fp", values, strict)
        assert len(board) == 2

    def test_wait_for_tasks_long_polls_until_a_post(self):
        board = TaskBoard()

        def post_later():
            time.sleep(0.1)
            board.post("job-1", "fp", {"x": 2.0, "y": 3.0}, {})

        thread = threading.Thread(target=post_later)
        start = time.monotonic()
        thread.start()
        tasks = board.wait_for_tasks(5.0)
        elapsed = time.monotonic() - start
        thread.join()
        assert len(tasks) == 1
        assert elapsed < 4.0, "the long-poll must return on the post, not the timeout"

    def test_wait_for_tasks_times_out_empty(self):
        board = TaskBoard()
        start = time.monotonic()
        assert board.wait_for_tasks(0.1) == []
        assert time.monotonic() - start < 2.0


class TestStoreReadCache:
    def test_never_leases(self):
        store = InMemoryStore()
        cache = StoreReadCache(store, "fp")
        claim = cache.claim(("fp", "k"), {"x": 2.0})
        assert claim.status == Claim.CLAIMED
        # Unlike StoreBackedCache, no lease was recorded in the store.
        assert store.lease_count() == 0

    def test_hits_count_stored_points(self):
        store = InMemoryStore()
        store.put("fp", {"x": 2.0}, 9.0)
        cache = StoreReadCache(store, "fp")
        claim = cache.claim(("fp", "k"), {"x": 2.0})
        assert claim.status == Claim.HIT and claim.value == 9.0
        assert cache.hits == 1
        assert cache.get(("fp", "k"), {"x": 2.0}) == 9.0
        assert cache.hits == 2

    def test_put_and_poll_round_trip(self):
        store = InMemoryStore()
        cache = StoreReadCache(store, "fp")
        assert cache.poll(("fp", "k"), {"x": 2.0}) is None
        cache.put(("fp", "k"), {"x": 2.0}, 4.5)
        assert cache.poll(("fp", "k"), {"x": 2.0}) == 4.5
        cache.cancel(("fp", "k"), {"x": 2.0})  # must be a harmless no-op


class TestFleetEvaluator:
    def test_submit_posts_and_close_withdraws(self):
        board = TaskBoard()
        evaluator = FleetEvaluator(board, "job-1", "fp", spec={"platform": "FCSN"})
        future = evaluator.submit({"x": 2.0, "y": 3.0})
        (task,) = board.open_tasks()
        assert task.spec == {"platform": "FCSN"}
        board.resolve(task.id, 3.25, 0.5)
        assert future.result(timeout=1) == (3.25, 0.5)
        evaluator.submit({"x": 4.0, "y": 5.0})
        evaluator.close()
        assert len(board) == 0


@pytest.fixture
def pool_starts(monkeypatch):
    """The pool processes started, one entry each."""
    starts = []
    start_worker = ParallelEvaluator._start_worker

    def counting(pool):
        starts.append(pool)
        return start_worker(pool)

    monkeypatch.setattr(ParallelEvaluator, "_start_worker", counting)
    return starts


class TestFleetWorkerPool:
    def test_jobs_differing_only_in_budget_share_one_pool_process(self, pool_starts):
        board = TaskBoard()
        worker = FleetWorker(BoardClient(board), InMemoryStore(), resolver=lambda spec: plane)
        futures = []
        try:
            for index in range(6):
                spec = {"platform": "FCSN", "evaluations": 10 if index % 2 else 20}
                futures.append(board.post(f"job-{index % 2}", "fp", {"x": index, "y": 1.0}, spec))
                (task,) = board.open_tasks()
                assert worker.handle_task(task.to_dict()) is True
        finally:
            worker.close()
        assert [f.result(timeout=1)[0] for f in futures] == [i + 1.0 for i in range(6)]
        assert len(pool_starts) == 1

    def test_another_config_gets_another_pool(self, pool_starts):
        board = TaskBoard()
        worker = FleetWorker(BoardClient(board), InMemoryStore(), resolver=lambda spec: plane)
        try:
            for index, config in enumerate([RunConfig(), RunConfig(eval_timeout=5.0)]):
                board.post("job", "fp", {"x": index, "y": 1.0}, {"config": config.to_dict()})
                (task,) = board.open_tasks()
                worker.handle_task(task.to_dict())
        finally:
            worker.close()
        assert len(pool_starts) == 2


class TestFaultInjector:
    def test_disabled_injector_never_fires(self):
        fault = FaultInjector()
        for _ in range(100):
            fault.on_claim()
            fault.on_publish()
        assert fault.claims == 100 and fault.publishes == 100

    def test_publish_delay_sleeps_without_dying(self):
        fault = FaultInjector(publish_delay=0.05)
        start = time.monotonic()
        fault.on_publish()
        assert time.monotonic() - start >= 0.05
