"""Drivers deferring behind another driver's lease on a shared store.

A deferred point is re-claimed between completions: the one claim says
whether the leader published it (a hit, counted as one), released it (a
takeover, at once — not after the lease TTL) or is still computing it.
"""

import threading

from repro.core import (
    AsyncCalibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    RunConfig,
)
from repro.core.evaluation import Claim
from repro.service import InMemoryStore, StoreBackedCache

FP = "scenario-fp"
JOIN_TIMEOUT = 15.0


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 16.0)])


class SignallingCache(StoreBackedCache):
    """Sets ``deferred`` the first time a claim reports another owner's lease."""

    def __init__(self, store):
        super().__init__(store, FP)
        self.deferred = threading.Event()

    def claim(self, key, values):
        claim = super().claim(key, values)
        if claim.status == Claim.LEASED:
            self.deferred.set()
        return claim


def run_in_thread(calibrator):
    outcome = {}

    def target():
        try:
            outcome["result"] = calibrator.run()
        except Exception as error:  # the leader's failure is the point
            outcome["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


def start_leader(store, function, budget=1):
    """A driver that claims the seeded first point and holds it in
    ``function`` until the test lets it go."""
    entered = threading.Event()

    def leading(values):
        entered.set()
        return function(values)

    leader = AsyncCalibrator(
        make_space(), leading, workers=1, mode="thread",
        budget=EvaluationBudget(budget), seed=3, cache=StoreBackedCache(store, FP),
    )
    thread, outcome = run_in_thread(leader)
    assert entered.wait(JOIN_TIMEOUT), "the leader never started evaluating"
    return thread, outcome


class TestDeferredLeases:
    def test_leader_failure_releases_the_waiter_at_once(self):
        store = InMemoryStore()
        waiter_cache = SignallingCache(store)

        def failing(values):
            waiter_cache.deferred.wait(JOIN_TIMEOUT)
            raise RuntimeError("the leader's simulator dies")

        leader_thread, leader = start_leader(store, failing)
        waiter = AsyncCalibrator(
            make_space(), lambda v: (v["x"] - 4.0) ** 2, workers=1, mode="thread",
            budget=EvaluationBudget(3), seed=3, cache=waiter_cache,
        )
        waiter_thread, outcome = run_in_thread(waiter)
        leader_thread.join(JOIN_TIMEOUT)
        assert isinstance(leader.get("error"), RuntimeError)
        # The cancelled lease is taken over at the next re-claim; waiting
        # for it to expire would take the full lease TTL.
        waiter_thread.join(JOIN_TIMEOUT)
        assert not waiter_thread.is_alive(), "the waiter sat out a released lease"
        assert outcome["result"].evaluations == 3
        assert waiter.deferred_hits == 0
        assert store.lease_count() == 0

    def test_deferred_hit_counts_as_a_cache_hit(self):
        store = InMemoryStore()
        waiter_cache = SignallingCache(store)

        def slow(values):
            waiter_cache.deferred.wait(JOIN_TIMEOUT)
            return (values["x"] - 4.0) ** 2

        leader_thread, leader = start_leader(store, slow)
        waiter = AsyncCalibrator(
            make_space(), lambda v: 0.0, workers=1, mode="thread",
            budget=EvaluationBudget(1), seed=3, cache=waiter_cache,
            config=RunConfig(replay_cache_hits=True),
        )
        waiter_thread, outcome = run_in_thread(waiter)
        leader_thread.join(JOIN_TIMEOUT)
        waiter_thread.join(JOIN_TIMEOUT)
        assert not waiter_thread.is_alive()
        result = outcome["result"]
        assert result.best_value == leader["result"].best_value
        assert [e.cached for e in result.history] == [True]
        assert waiter.deferred_hits == 1
        # The job cache's hit counter (a server job's ``cache_hits``)
        # sees the deferred hit too.
        assert waiter_cache.hits == 1
