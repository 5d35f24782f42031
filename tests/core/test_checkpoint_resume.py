"""Resume by replay: the run's tell log is its checkpoint.

The contract: a run hands its tell log — one entry per tell, with the
ask index ``seq``, the ask count ``asked`` and the budget ``charged`` —
to ``on_checkpoint``; a fresh calibrator given that log (after a JSON
round trip, as from a file) replays it into an identically seeded
algorithm and finishes the run, and everything that follows — every
evaluation, in order, the counters, the budget and the simulator calls —
is identical to a run that was never interrupted.  A log this
configuration would not have produced fails loudly, naming the first
diverging ``seq``.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ALGORITHMS,
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    FailurePolicy,
    Parameter,
    ParameterSpace,
    RunConfig,
    TimeBudget,
    get_algorithm,
)
from repro.core.evaluation import Claim, DictCache
from repro.core.serialization import evaluation_to_dict

TOTAL = 90
CUT = 37  # deliberately mid-generation for every population algorithm
SEED = 11


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def objective_for(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return objective


def trajectory(result):
    return [(e.unit, e.value, e.cached) for e in result.history]


def logged_run(calibrator, every=1):
    """Run to completion; returns (result, JSON-round-tripped tell log)."""
    log = []
    result = calibrator.run(checkpoint_every=every, on_checkpoint=log.extend)
    return result, json.loads(json.dumps(log))


def first_divergence(log, other):
    return next(a["seq"] for a, b in zip(log, other) if a["unit"] != b["unit"])


class TestResumeDeterminism:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_interrupted_run_finishes_identically(self, name):
        space = make_space()
        uninterrupted = Calibrator(
            space, objective_for(space), algorithm=name,
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run()

        # First leg: stop after CUT charges, keeping the whole tell log.
        _, log = logged_run(Calibrator(
            space, objective_for(space), algorithm=name,
            budget=EvaluationBudget(CUT), seed=SEED,
        ), every=CUT)
        assert sum(entry["charged"] for entry in log) == CUT

        # Second leg: a fresh calibrator replays the log and finishes.
        resumed = Calibrator(
            space, objective_for(space), algorithm=name,
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run(resume=log)
        assert trajectory(resumed) == trajectory(uninterrupted)
        assert resumed.best_value == uninterrupted.best_value
        assert resumed.best_values == uninterrupted.best_values

    def test_periodic_checkpoints_count_evaluations(self):
        space = make_space(2)
        handed_over = []
        log = []

        def on_checkpoint(entries):
            log.extend(entries)
            handed_over.append(len(log))

        Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(30), seed=0,
        ).run(checkpoint_every=10, on_checkpoint=on_checkpoint)
        assert handed_over == [10, 20, 30]
        assert [entry["seq"] for entry in log] == list(range(30))
        assert [entry["asked"] for entry in log] == list(range(1, 31))

    def test_resume_with_wrong_algorithm_is_rejected(self):
        space = make_space(2)
        _, log = logged_run(Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(10), seed=0,
        ), every=5)
        other = Calibrator(
            space, objective_for(space), algorithm="lhs",
            budget=EvaluationBudget(20), seed=0,
        )
        with pytest.raises(ValueError, match=r"\bseq 0\b"):
            other.run(resume=log)

    def test_resume_under_other_options_is_rejected(self):
        space = make_space(3)

        def calibrator(options):
            return Calibrator(
                space, objective_for(space), algorithm=get_algorithm("cmaes", **options),
                budget=EvaluationBudget(30), seed=SEED,
            )

        _, log = logged_run(calibrator({}))
        _, other_log = logged_run(calibrator({"population_size": 8}))
        seq = first_divergence(log, other_log)
        assert seq > 0  # the first generation shares its leading draws
        with pytest.raises(ValueError, match=rf"\bseq {seq}\b"):
            calibrator({"population_size": 8}).run(resume=log)

    def test_resume_with_an_edited_unit_is_rejected(self):
        space = make_space(2)
        _, log = logged_run(Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(12), seed=4,
        ))
        log[7]["unit"][1] = 0.5
        resumed = Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(20), seed=4,
        )
        with pytest.raises(ValueError, match=r"\bseq 7\b"):
            resumed.run(resume=log)

    def test_resume_continues_the_wall_clock(self):
        """A resumed run inherits the log's elapsed time: time budgets get
        only their remaining seconds (not a fresh allowance) and new
        history timestamps stay monotone after the replayed records."""
        space = make_space(2)
        _, log = logged_run(Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(10), seed=0,
        ), every=10)
        elapsed = log[-1]["finished_at"]
        assert elapsed > 0

        # Time budget: a log claiming more elapsed time than the whole
        # allowance leaves nothing to spend — no new evaluations.
        stale = [*log[:-1], {**log[-1], "finished_at": 3600.0}]
        resumed = Calibrator(
            space, objective_for(space), algorithm="random",
            budget=TimeBudget(5.0), seed=0,
        ).run(resume=stale)
        assert resumed.evaluations == 10  # only the replayed records

        # Monotone timestamps across the splice.
        continued = Calibrator(
            space, objective_for(space), algorithm="random",
            budget=EvaluationBudget(20), seed=0,
        ).run(resume=log)
        stamps = [e.started_at for e in continued.history]
        assert stamps == sorted(stamps)
        assert stamps[10] >= elapsed

    def test_resume_restores_budget_accounting(self):
        """A resumed run performs only the missing evaluations."""
        space = make_space(2)
        calls = {"n": 0}

        def counting_objective(values):
            calls["n"] += 1
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.37) ** 2))

        _, log = logged_run(Calibrator(
            space, counting_objective, algorithm="lhs",
            budget=EvaluationBudget(20), seed=3,
        ), every=20)
        assert calls["n"] == 20
        calls["n"] = 0
        resumed = Calibrator(
            space, counting_objective, algorithm="lhs",
            budget=EvaluationBudget(50), seed=3,
        ).run(resume=log)
        assert calls["n"] == 30  # not 50: the first 20 were replayed
        assert resumed.evaluations == 50


class TestTellLog:
    def test_every_tell_is_logged_recorded_or_not(self, scripted):
        """In-run revisits are free, unrecorded cache hits, yet each is a
        tell of its own and so an entry of its own."""
        space = make_space(1)
        a, b = [0.25], [0.75]
        calibrator = Calibrator(space, objective_for(space),
                                algorithm=scripted(space, [a, b, a, a]))
        result, log = logged_run(calibrator)
        assert len(result.history) == 2
        assert [(e["seq"], e["asked"], e["charged"], e.get("cached", False))
                for e in log] == [(0, 1, 1, False), (1, 2, 1, False),
                                  (2, 3, 0, True), (3, 4, 0, True)]

    def test_without_checkpoint_every_nothing_is_handed_over(self):
        space = make_space(2)
        handed_over = []
        Calibrator(space, objective_for(space), budget=EvaluationBudget(5)).run(
            on_checkpoint=handed_over.append
        )
        assert handed_over == []

    @pytest.mark.parametrize("driver", ["serial", "batch", "async"])
    def test_a_run_without_a_sink_keeps_the_same_log(self, driver):
        """The log is the run's record, not the sink's: a run given no
        sink returns the log a sinked run hands over, unrecorded hits and
        failures included, and a resumed run returns the whole of it."""
        space = property_space()
        config = RunConfig(failure_policy=FailurePolicy(penalty=1e4))

        def run(**options):
            calibrator = build(driver, space, counted_objective(space, 0.8), "cmaes", 3, 40,
                               3, None, config)
            return calibrator.run(**options).log

        handed_over = []
        sinked = run(checkpoint_every=1, on_checkpoint=handed_over.extend)
        entries = [evaluation_to_dict(e) for e in sinked]
        assert entries == handed_over
        assert any(e.cached for e in sinked) and any(e.failed for e in sinked)
        assert stable(evaluation_to_dict(e) for e in run()) == stable(entries)
        resumed = run(resume=json.loads(json.dumps(handed_over[:17])))
        assert stable(evaluation_to_dict(e) for e in resumed) == stable(entries)

    def test_a_replayed_failure_stays_quarantined(self, scripted):
        """The log keeps a failure's penalty, not its diagnosis; the replay
        quarantines the point again, so a later revisit is a quarantine
        skip, as in the uninterrupted run, not a second simulator call."""
        space = make_space(1)
        poison, other = [0.75], [0.25]
        calls = {"n": 0}

        def objective(values):
            calls["n"] += 1
            if space.to_unit_array(values)[0] > 0.5:
                raise ValueError("poison")
            return 1.0

        def calibrator(budget):
            return Calibrator(
                space, objective, algorithm=scripted(space, [poison, other, poison]),
                budget=EvaluationBudget(budget),
                config=RunConfig(failure_policy=FailurePolicy(penalty=9.0)),
            )

        _, log = logged_run(calibrator(2))
        assert [e.get("failed", False) for e in log] == [True, False]
        calls["n"] = 0
        resumed = calibrator(3)
        result = resumed.run(resume=log)
        assert calls["n"] == 0
        assert (resumed.failures, resumed.quarantine_skips) == (1, 1)
        assert [e.failed for e in result.history] == [True, False, True]

    def test_resume_under_another_seed_is_rejected(self):
        space = make_space(2)
        _, log = logged_run(Calibrator(
            space, objective_for(space), algorithm="cmaes",
            budget=EvaluationBudget(10), seed=1,
        ))
        with pytest.raises(ValueError, match=r"\bseq 0\b.*seed 2"):
            Calibrator(
                space, objective_for(space), algorithm="cmaes",
                budget=EvaluationBudget(20), seed=2,
            ).run(resume=log)


class PeerLeasedCache(DictCache):
    """A shared cache whose third claim finds its point leased by a peer
    driver, which has published the value by the next poll."""

    def __init__(self, peer_objective):
        super().__init__()
        self.claims = 0
        self.leased = None
        self._peer_objective = peer_objective

    def claim(self, key, values):
        self.claims += 1
        if self.claims == 3:
            self.leased = key
            return Claim(Claim.LEASED)
        if key == self.leased and self.get(key, values) is None:
            self.put(key, values, self._peer_objective(values))
        return super().claim(key, values)


class TestDeferredHitAcrossResume:
    def test_a_deferred_hits_budget_charge_survives_resume(self):
        """A point deferred behind a peer's lease is charged one unit and
        answered by the peer (no simulator call, no record).  The charge
        rides in the tell log, so the resumed run stops where the
        uninterrupted one did instead of spending it on one more call."""
        space = make_space(2)
        calls = {"n": 0}
        peer = objective_for(space)

        def objective(values):
            calls["n"] += 1
            return peer(values)

        def calibrator(budget, cache):
            return Calibrator(space, objective, algorithm="random",
                              budget=EvaluationBudget(budget), seed=3, cache=cache)

        full = calibrator(20, PeerLeasedCache(peer))
        uninterrupted = full.run()
        assert (calls["n"], len(uninterrupted.history), full.deferred_hits) == (19, 19, 1)

        calls["n"] = 0
        shared = PeerLeasedCache(peer)
        _, log = logged_run(calibrator(10, shared))
        assert calls["n"] == 9
        resumed_driver = calibrator(20, shared)
        resumed = resumed_driver.run(resume=log)
        assert calls["n"] == 19
        assert len(resumed.history) == 19
        assert resumed_driver.deferred_hits == 1
        assert trajectory(resumed) == trajectory(uninterrupted)


# --------------------------------------------------------------------- #
# the kill-at-any-tell property
# --------------------------------------------------------------------- #
class Killed(Exception):
    """Stands for the process dying right after persisting its log."""


def property_space():
    # The integer parameter collapses nearby candidates onto one point,
    # so revisits (cache hits and riders) happen for every algorithm.
    return ParameterSpace([
        Parameter("x", 2.0**10, 2.0**30),
        Parameter("n", 1, 6, scale="linear", integer=True),
    ])


def counted_objective(space, poison):
    calls = {"n": 0}

    def objective(values):
        calls["n"] += 1
        unit = space.to_unit_array(values)
        if unit[0] > poison:
            raise ValueError("injected failure")
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    objective.calls = calls
    return objective


def build(driver, space, objective, algorithm, seed, budget, width, ordered, config):
    common = dict(algorithm=algorithm, budget=EvaluationBudget(budget), seed=seed,
                  config=config)
    if driver == "serial":
        return Calibrator(space, objective, **common)
    if driver == "batch":
        return BatchCalibrator(space, objective, workers=width, mode="serial", **common)
    return AsyncCalibrator(space, objective, workers=width, mode="serial",
                           ordered_tells=ordered, **common)


def observed(driver, result, calls):
    return {
        "history": [(e.unit, e.value, e.cached, e.failed) for e in result.history],
        "counters": (driver.cache_hits, driver.deferred_hits, driver.failures,
                     driver.quarantine_skips),
        "budget": driver._budget_units,
        "calls": calls,
    }


def stable(log):
    """A log without its wall-clock fields."""
    return [
        {k: v for k, v in entry.items() if k not in ("started_at", "finished_at")}
        for entry in log
    ]


class TestKillAtAnyTell:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        algorithm=st.sampled_from(sorted(ALGORITHMS)),
        seed=st.integers(0, 2**16),
        driver=st.sampled_from(["serial", "batch", "async"]),
        width=st.integers(2, 4),
        ordered=st.sampled_from([None, True, False]),
        replay=st.booleans(),
        poison=st.sampled_from([1.1, 0.8, 0.5]),  # 1.1: no injected failure
        budget=st.integers(4, 30),
        data=st.data(),
    )
    def test_resumed_equals_uninterrupted(
        self, algorithm, seed, driver, width, ordered, replay, poison, budget, data
    ):
        if ordered is False and not get_algorithm(algorithm).supports_async_tell:
            ordered = None
        space = property_space()
        config = RunConfig(
            failure_policy=FailurePolicy(penalty=1e4) if poison < 1 else None,
            replay_cache_hits=replay,
        )

        def run(resume=None, kill_at=None):
            objective = counted_objective(space, poison)
            calibrator = build(driver, space, objective, algorithm, seed, budget,
                               width, ordered, config)
            log = []

            def on_checkpoint(entries):
                log.extend(entries)
                if kill_at is not None and len(log) >= kill_at:
                    raise Killed

            try:
                result = calibrator.run(resume=resume, checkpoint_every=1,
                                        on_checkpoint=on_checkpoint)
            except Killed:
                return None, log, objective.calls["n"]
            return observed(calibrator, result, objective.calls["n"]), log, 0

        uninterrupted, full_log, _ = run()
        k = data.draw(st.integers(1, len(full_log)), label="k")
        killed, cut_log, cut_calls = run(kill_at=k)
        assert killed is None and len(cut_log) >= k
        cut_log = json.loads(json.dumps(cut_log))
        resumed, rest_log, _ = run(resume=cut_log)
        resumed["calls"] += cut_calls
        assert resumed == uninterrupted
        assert stable(cut_log + rest_log) == stable(full_log)
