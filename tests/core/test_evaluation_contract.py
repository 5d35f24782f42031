"""The evaluation contract, written once: a reference accountant, and one
property that every driver configuration meets it.

:func:`account` is the contract: given the candidates in ask order and
what each point does, it returns what a run charges, records and counts
(its docstring is the rule table).  A pooled driver's rider, a revisit
asked while its point is still in flight, is settled as that revisit
asked afterwards.  The property draws algorithm × seed × budget × warm
store × injected failures (:class:`FaultyObjective`, transient or
deterministic, quarantine on or off) and runs on the draw: serial; batch
and ordered async two and three wide on the inline evaluator, and three
wide on an evaluator completing the latest submission first; the
in-process fleet (the ``fleet_driver`` fixture); and, for the
async-native samplers, unordered async two and three wide on that
latest-first evaluator.  Each run's tell log (unit, value, cached,
failed, charged), history, best value, counters and budget equal the
accountant's over its own asks (the history as a set when tells are
unordered), and every algorithm but TPE, whose asks depend on how many
results it was told, asks what the serial driver asks: ordered runs are
byte-identical to serial, unordered ones visit its point set.  Every
run returns the tell log its sink received (``result.log``), and its
history is that log's recorded subset.
"""

import hashlib
import json
import math
import operator
from concurrent.futures import Future

import numpy as np
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
    RetryPolicy,
    RunConfig,
    get_algorithm,
)
from repro.core.evaluation import CACHE_DECIMALS, Claim, DictCache, unit_cache_key
from repro.core.faults import EvaluationFailure
from repro.core.history import CalibrationHistory, Evaluation
from repro.core.parallel import ParallelEvaluator
from repro.core.serialization import evaluation_to_dict
from repro.service.fleet import FaultyObjective

# The integer parameter collapses nearby candidates onto one point, so
# revisits happen for every algorithm.
SPACE = ParameterSpace([
    Parameter("x", 2.0**10, 2.0**30),
    Parameter("n", 1, 6, scale="linear", integer=True),
])
COUNTERS = ("cache_hits", "deferred_hits", "failures", "quarantine_skips")
NATIVE = ("random", "sobol", "lhs", "tpe", "revisiting")
PEER_FAILURE = EvaluationFailure(error="RuntimeError: a peer's simulator died")


def account(asks, outcome, config, cap, cache=True, peer=None):
    """What a run asking ``asks`` (parameter mappings, in ask order)
    charges, records and counts.

    Before each ask the budget is checked: the run stops once it has
    charged ``cap`` units.
    Each candidate settles as what the cache holds for its point at its
    claim makes it (without a cache, every candidate is a miss):

    outcome    the point at its claim                 cached  failed  counter           charged
    evaluated  a miss, evaluated                      no      no      —                 1
    failed     a miss whose evaluation fails [1]      no      yes     failures          1
    hit        holds a value, this run's or a peer's  yes     no      cache_hits        0 [2]
    deferred   leased by a peer, which publishes it   yes     no      cache_hits and    1
                                                                      deferred_hits
    skipped    quarantined by this run or a peer, or  no      yes     quarantine_skips  1
               leased by a peer, which quarantines it

    [1] then quarantined under a quarantining policy, else released, so
        that a revisit fails afresh.
    [2] 1 when the point is first-seen (no earlier candidate settled it)
        and ``replay_cache_hits`` is on.

    ``outcome(values)`` is a point's value, or ``None`` when it fails;
    ``peer(key)`` is ``"warm"`` for a point a peer settled before the run,
    ``"leased"`` for one it settles once first claimed, else ``None``.  A
    failure records the penalty.  The history holds the uncached records,
    and the cached ones too under ``replay_cache_hits``; its best is the
    least value, where a number always displaces a NaN.
    """
    policy = config.failure_policy
    values_of, quarantined, seen, peered = {}, set(), set(), set()
    log, counters, units = [], dict.fromkeys(COUNTERS, 0), 0
    history = CalibrationHistory()
    for values in asks:
        if units >= cap:
            break
        unit = SPACE.to_unit_array(values)
        key = unit_cache_key(unit, CACHE_DECIMALS)
        share = peer(key) if cache and peer is not None and key not in peered else None
        peered.add(key)
        if share is not None:  # the peer settles the point first
            value = outcome(values)
            if value is None:
                quarantined.add(key)
            else:
                values_of[key] = value
        if cache and key in values_of:
            kind, value = ("deferred" if share == "leased" else "hit"), values_of[key]
        elif cache and key in quarantined:
            kind = "skipped"
        else:
            value = outcome(values)
            kind = "failed" if value is None else "evaluated"
            if cache and value is not None:
                values_of[key] = value
            elif cache and policy.quarantine:
                quarantined.add(key)
        cached, failed = kind in ("hit", "deferred"), kind in ("failed", "skipped")
        charged = int(kind != "hit" or (config.replay_cache_hits and key not in seen))
        seen.add(key)
        units += charged
        for name, moved in zip(COUNTERS, (cached, kind == "deferred", kind == "failed",
                                          kind == "skipped")):
            counters[name] += moved
        value = policy.penalty if failed else value
        record = (tuple(unit.tolist()), value, cached, failed)
        log.append((*record, charged))
        if not cached or config.replay_cache_hits:
            history.record(Evaluation(len(history), dict(values), *record[:2], 0.0, 0.0,
                                      cached, failed))
    values = [e.value for e in history]
    return {
        "log": log,
        "history": [(e.unit, e.value, e.cached, e.failed) for e in history],
        "best": min(values, key=lambda v: (math.isnan(v), v)) if values else None,
        "counters": counters,
        "units": units,
    }


def observed(calibrator):
    """Run ``calibrator`` and state it as :func:`account` does, the tell
    log in ask order; also return the log as it was written."""
    written = []
    try:
        result = calibrator.run(checkpoint_every=1, on_checkpoint=written.extend)
        history, best = result.history, result.best_value
        # One record per tell: the sink received the log, and the history
        # is its recorded subset, the same objects.
        assert same([evaluation_to_dict(e) for e in result.log], written)
        replay = calibrator.config.replay_cache_hits
        recorded = [e for e in result.log if not e.cached or replay]
        assert len(history) == len(recorded) and all(map(operator.is_, history, recorded))
    except RuntimeError as error:  # every candidate was an unrecorded hit
        assert "before a single evaluation" in str(error)
        history, best = [], None
    log = sorted(written, key=lambda entry: entry["seq"])
    return {
        "log": [(tuple(e["unit"]), e["value"], "cached" in e, "failed" in e, e["charged"])
                for e in log],
        "history": [(e.unit, e.value, e.cached, e.failed) for e in history],
        "best": best,
        "counters": {name: getattr(calibrator, name) for name in COUNTERS},
        "units": calibrator._budget_units,
    }, written


def same(a, b):
    """Byte for byte, NaN included."""
    return json.dumps(a) == json.dumps(b)


class Bowl:
    """The objective: a quadratic bowl, NaN on a slice of it when ``nan``."""

    def __init__(self, nan):
        self.nan = nan

    def __call__(self, values):
        unit = SPACE.to_unit_array(values)
        if self.nan and unit[0] < 0.3:
            return math.nan
        return float(np.sum((unit - 0.37) ** 2)) * 100.0


def share(key, salt):
    """A point's share in [0, 1), fixed by hashing its cache key."""
    digest = hashlib.sha256(f"{salt}|{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


class Store(DictCache):
    """A shared cache a peer works in: at the first claim of a point the
    peer has settled it (``peer(key) == "warm"``) or holds its lease and
    settles it before the next claim (``"leased"``).  Settling publishes
    the point's value, or quarantines it when the point fails."""

    def __init__(self, peer, outcome):
        super().__init__()
        self.peer, self.outcome, self.peered = peer, outcome, set()

    def claim(self, key, values):
        settled = None if key in self.peered else self.peer(key)
        self.peered.add(key)
        if settled is not None:
            value = self.outcome(values)
            if value is None:
                self.mark_failed(key, values, PEER_FAILURE)
            else:
                self.put(key, values, value)
            if settled == "leased":
                return Claim(Claim.LEASED)
        return super().claim(key, values)


class LatestFirst:
    """An evaluator that completes the latest submission first, through an
    inline one: native tells then arrive out of ask order, reproducibly."""

    def __init__(self, inline):
        self.inline, self.queued = inline, []

    def submit(self, values):
        future = Future()
        self.queued.append((future, values))
        return future

    def wait(self, futures, timeout=None):
        future, values = self.queued.pop()
        try:
            future.set_result(self.inline.submit(values).result())
        except Exception as error:
            future.set_exception(error)
        return {future}

    def close(self):
        self.inline.close()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    algorithm=st.one_of(st.just("revisiting"), st.sampled_from(sorted(ALGORITHMS))),
    seed=st.integers(0, 2**16),
    cap=st.integers(1, 24),
    cache=st.sampled_from([True, True, True, False]),
    warm=st.sampled_from([0.0, 0.3, 0.6]),  # below 1: free hits alone never spend a cap
    leased=st.sampled_from([0.0, 0.2]),
    failing=st.sampled_from([0.0, 0.5, 1.0]),
    deterministic=st.booleans(),
    quarantine=st.booleans(),
    replay=st.booleans(),
    data=st.data(),
)
def test_every_driver_configuration_meets_the_accountant(
    algorithm, seed, cap, cache, warm, leased, failing, deterministic, quarantine,
    replay, data, scripted, fleet_driver,
):
    nan = False
    if algorithm == "revisiting":
        # Few distinct points, so most asks revisit one; NaN values only
        # here, where no algorithm logic reads them.
        points = data.draw(st.lists(st.tuples(*[st.sampled_from([0.1, 0.5, 0.9])] * 2),
                                    min_size=1, max_size=4), label="points")
        script = [points[i] for i in data.draw(
            st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=30), label="script")]
        nan = data.draw(st.booleans(), label="nan")
    salt = data.draw(st.integers(0, 2**16), label="salt")
    # A transient point fails once and recovers on its retry; a
    # deterministic one fails every attempt of every dispatch.
    config = RunConfig(
        retry_policy=RetryPolicy(max_attempts=2, backoff=0.0, jitter=0.0) if failing else None,
        failure_policy=FailurePolicy(penalty=1e4, quarantine=quarantine) if failing else None,
        replay_cache_hits=replay,
    )

    def objective():
        return FaultyObjective(Bowl(nan), fail_fraction=failing, salt=salt,
                               fail_attempts=10**9 if deterministic else 1)

    def outcome(values):
        faulty = objective()
        failed = deterministic and faulty.is_failing_point(values)
        return None if failed else faulty.function(values)

    def peer(key):
        fraction = share(key, salt)
        return "warm" if fraction < warm else "leased" if fraction < warm + leased else None

    def revisiting():
        revisits = scripted(SPACE, script)  # its asks ignore its tells
        revisits.supports_async_tell = True
        return revisits

    def build(kind, width=1, ordered=True, latest_first=False):
        common = dict(
            algorithm=revisiting() if algorithm == "revisiting" else get_algorithm(algorithm),
            budget=EvaluationBudget(cap),
            seed=seed, config=config, cache=Store(peer, outcome) if cache else False,
        )
        faulty = objective()
        if kind == "serial":
            return Calibrator(SPACE, faulty, **common)
        if kind == "batch":
            return BatchCalibrator(SPACE, faulty, workers=width, mode="serial", **common)
        if kind == "fleet":
            return fleet_driver(SPACE, faulty, **common)
        inline = ParallelEvaluator(faulty, workers=1, mode="serial", config=config)
        return AsyncCalibrator(SPACE, faulty, max_pending=width, ordered_tells=ordered,
                               evaluator=LatestFirst(inline) if latest_first else inline,
                               **common)

    def accountant(log):
        asks = [entry["values"] for entry in sorted(log, key=lambda entry: entry["seq"])]
        return account(asks, outcome, config, cap, cache=cache, peer=peer)

    serial, serial_log = observed(build("serial"))
    assert same(serial, accountant(serial_log))
    configurations = [("batch", 2), ("batch", 3), ("async", 2), ("async", 3),
                      ("async", 3, True, True), ("fleet", 2)]
    if algorithm in NATIVE:
        configurations += [("async", 2, False, True), ("async", 3, False, True)]
    for configuration in configurations:
        run, log = observed(build(*configuration))
        expected = accountant(log)
        if configuration[2:3] == (False,):  # unordered: recorded in completion order
            for records in (run, expected):
                records["history"] = sorted(map(json.dumps, records["history"]))
        else:
            assert [entry["seq"] for entry in log] == list(range(len(log))), configuration
        assert same(run, expected), configuration
        if algorithm != "tpe":  # its asks depend on how many results it was told
            assert same(run["log"], serial["log"]), configuration


def test_a_resume_replays_peer_work_exactly_but_two_counters_approximately(scripted):
    """What ``AsyncCalibrator.run`` documents of a resume: budget, history
    and trajectory come back exact, while under replay_cache_hits a
    replayed deferred hit is not counted in deferred_hits, and a replayed
    skip of a point a peer quarantined counts as a failure."""

    def outcome(values):  # the peer's: the point at unit x = 0.9 fails
        return None if SPACE.to_unit_array(values)[0] > 0.8 else Bowl(False)(values)

    def peer(key):  # a peer leases the first two points
        return "leased" if key[0] != 0.5 else None

    def run(resume=None):
        calibrator = Calibrator(
            SPACE, Bowl(False), algorithm=scripted(SPACE, [(0.1, 0.1), (0.9, 0.9), (0.5, 0.5)]),
            budget=EvaluationBudget(3), cache=Store(peer, outcome),
            config=RunConfig(failure_policy=FailurePolicy(penalty=1e4), replay_cache_hits=True),
        )
        log = []
        result = calibrator.run(resume=resume, checkpoint_every=1, on_checkpoint=log.extend)
        counted = [getattr(calibrator, name) for name in COUNTERS] + [calibrator._budget_units]
        return [(e.unit, e.value, e.cached, e.failed) for e in result.history], counted, log

    history, counted, log = run()
    resumed, recounted, _ = run(resume=log)
    assert same(resumed, history)
    assert counted == [1, 1, 0, 1, 3]
    assert recounted == [1, 0, 1, 0, 3]
