"""The process pool behind ``mode="process"``: what a run sees of it.

Each objective here picks its misbehaving point by who gets to create a
marker file first, so exactly one evaluation misbehaves whichever worker
runs it, and every later one (a resubmission included) behaves.
"""

import multiprocessing
import os
import signal
import time
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    EvaluationBudget,
    EvaluationFailed,
    FailurePolicy,
    Parameter,
    ParallelEvaluator,
    ParameterSpace,
    RunConfig,
)
from repro.service import InMemoryStore, StoreBackedCache

SPACE = ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(2)])


def quadratic(values):
    unit = SPACE.to_unit_array(values)
    return float(np.sum((unit - 0.37) ** 2)) * 100.0


class FirstCallMisbehaves:
    """Picklable objective: the first call across all processes to create
    ``marker`` misbehaves (``action``), every other call is ``quadratic``."""

    def __init__(self, marker, action, others=None):
        self.marker = str(marker)
        self.action = action
        self.others = others

    def __call__(self, values):
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            if self.others == "sleep":
                time.sleep(30.0)
            return quadratic(values)
        if self.action == "raise":
            raise ValueError("this point is broken")
        if self.action == "exit":
            os._exit(7)
        # "hang": out of reach of the in-worker alarm
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(60.0)
        return quadratic(values)


class HangsOnceAmongSlowMates:
    """Picklable objective: the first call to create ``marker`` hangs out
    of reach of the alarm, every other call takes ``seconds``; each call
    first appends its point to ``log``."""

    def __init__(self, marker, log, seconds):
        self.marker = str(marker)
        self.log = str(log)
        self.seconds = seconds

    def __call__(self, values):
        descriptor = os.open(self.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(descriptor, f"{values['p0']!r},{values['p1']!r}\n".encode())
        finally:
            os.close(descriptor)
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            time.sleep(self.seconds)
            return quadratic(values)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        time.sleep(60.0)
        return quadratic(values)


class CountsItsCalls:
    """Picklable objective returning how often this copy was called."""

    def __init__(self):
        self.calls = 0

    def __call__(self, values):
        self.calls += 1
        return float(self.calls)


class Unrebuildable(Exception):
    """Pickles, but its ``__init__`` cannot take the pickled ``args``."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def raise_unrebuildable(values):
    raise Unrebuildable(7, "no way back")


def raise_unpicklable(values):
    raise ValueError(threading.Lock())


def new_children(before):
    return set(multiprocessing.active_children()) - before


def test_an_aborted_run_does_not_wait_for_evaluations_in_flight(tmp_path):
    """The first evaluation raises while its pool-mate sleeps 30 s: the
    exception surfaces at once and the sleeper's worker is killed."""
    before = set(multiprocessing.active_children())
    calibrator = AsyncCalibrator(
        SPACE, FirstCallMisbehaves(tmp_path / "marker", "raise", others="sleep"),
        workers=2, mode="process", budget=EvaluationBudget(8), seed=0,
    )
    started = time.perf_counter()
    with pytest.raises(ValueError, match="this point is broken") as info:
        calibrator.run()
    assert time.perf_counter() - started < 2.0
    assert new_children(before) == set()
    # the worker's traceback comes along as the cause
    assert 'raise ValueError("this point is broken")' in str(info.value.__cause__)


def test_the_hard_deadline_kills_an_evaluation_the_alarm_cannot_stop(tmp_path):
    """An evaluation that ignores ``SIGALRM`` is stopped by the driver's
    hard deadline (0.2 s x 1 round + 5 s): the pool is replaced, the point
    becomes a timeout failure and the budget is still met exactly."""
    before = set(multiprocessing.active_children())
    store = InMemoryStore()
    penalty = FailurePolicy(penalty=1.0e6)
    calibrator = BatchCalibrator(
        SPACE, FirstCallMisbehaves(tmp_path / "marker", "hang"),
        workers=2, mode="process", budget=EvaluationBudget(8), seed=0,
        cache=StoreBackedCache(store, "hang"),
        config=RunConfig(eval_timeout=0.2, failure_policy=penalty),
    )
    started = time.perf_counter()
    result = calibrator.run()
    elapsed = time.perf_counter() - started

    assert 5.0 <= elapsed < 9.0
    assert result.evaluations == 8
    failed = [e for e in result.history if e.failed]
    assert len(failed) == 1 and failed[0].value == penalty.penalty
    stored = store.get_failure("hang", failed[0].values)
    assert stored is not None and stored.kind == "timeout"
    assert "hard deadline" in stored.error
    assert new_children(before) == set()


def test_the_hard_deadline_kills_only_the_stalled_worker(tmp_path):
    """Only the hung point's worker is killed at the hard deadline
    (1 s + 5 s): its pool-mate runs on, so no point is evaluated twice."""
    before = set(multiprocessing.active_children())
    log = tmp_path / "calls"
    penalty = FailurePolicy(penalty=1.0e6)
    result = AsyncCalibrator(
        SPACE, HangsOnceAmongSlowMates(tmp_path / "marker", log, 0.8),
        workers=2, mode="process", budget=EvaluationBudget(12), seed=0,
        config=RunConfig(eval_timeout=1.0, failure_policy=penalty),
    ).run()

    calls = log.read_text().splitlines()
    assert result.evaluations == 12
    assert len(calls) == 12 and len(set(calls)) == 12
    failed = [e for e in result.history if e.failed]
    assert len(failed) == 1 and failed[0].value == penalty.penalty
    assert new_children(before) == set()


def test_a_standalone_pool_keeps_the_hard_deadline(tmp_path):
    """Without a driver, the pool itself fails a task whose worker hangs
    past the hard deadline (0.2 s + 5 s) with a timeout."""
    before = set(multiprocessing.active_children())
    config = RunConfig(eval_timeout=0.2)
    with ParallelEvaluator(
        FirstCallMisbehaves(tmp_path / "marker", "hang"), workers=1, config=config
    ) as evaluator:
        future = evaluator.submit({"p0": 2.0**11, "p1": 2.0**12})
        started = time.perf_counter()
        with pytest.raises(EvaluationFailed) as info:
            future.result(timeout=8.0)
        assert 5.0 <= time.perf_counter() - started < 8.0
        assert info.value.failure.kind == "timeout"
        assert "hard deadline" in info.value.failure.error
        assert new_children(before) == set()  # the killed worker is joined
    assert new_children(before) == set()


def test_every_submission_sees_a_fresh_objective():
    """State an evaluation leaves on the objective never reaches the next
    one, whichever worker runs it."""
    result = AsyncCalibrator(
        SPACE, CountsItsCalls(), workers=2, mode="process",
        budget=EvaluationBudget(10), seed=0, cache=False,
    ).run()
    assert result.evaluations == 10
    assert [e.value for e in result.history] == [1.0] * 10


def test_a_worker_that_dies_breaks_the_run_at_once(tmp_path):
    before = set(multiprocessing.active_children())
    calibrator = AsyncCalibrator(
        SPACE, FirstCallMisbehaves(tmp_path / "marker", "exit"),
        workers=2, mode="process", budget=EvaluationBudget(8), seed=0,
    )
    started = time.perf_counter()
    with pytest.raises(BrokenProcessPool):
        calibrator.run()
    assert time.perf_counter() - started < 1.0
    assert new_children(before) == set()


@pytest.mark.parametrize(
    ("objective", "message"),
    [(raise_unrebuildable, "required positional argument"), (raise_unpicklable, "pickle")],
)
def test_an_exception_that_cannot_travel_fails_only_its_own_task(objective, message):
    """A reply the parent cannot unpickle, or an exception the worker
    cannot pickle, fails that one future; the worker carries on."""
    before = set(multiprocessing.active_children())
    with ParallelEvaluator(objective, workers=1) as evaluator:
        futures = [evaluator.submit({"p0": 2.0**11, "p1": 2.0**12}) for _ in range(2)]
        for future in futures:
            with pytest.raises(TypeError, match=message):
                future.result(timeout=10)
        assert len(new_children(before)) == 1  # one worker ran both
    assert new_children(before) == set()
