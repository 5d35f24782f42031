"""The outcome rule table: what each outcome of a candidate records, costs
and counts, under the serial, batch, async and fleet drivers.

One case per row of the table in ``_Run._settle``'s
docstring.  Each case runs a scripted algorithm and checks the tell-log
entry of the last scripted point: its ``(cached, failed)``, its
``charged``, and which of the driver's counters it moved — the
difference between the full run and the run without that point.  Every
script ends in a plain evaluation, so each run has a best.  The pooled
drivers run two candidates wide, so a revisit asked while its point is
in flight rides on it, and is charged as the serial driver charges the
same revisit it meets in the cache.  The fleet driver is a fleet job's
(the ``fleet_driver`` fixture): its candidates are posted to a task
board, and a fleet worker on a thread evaluates them under the run's
configuration.
"""

import numpy as np
import pytest

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
    RunConfig,
)
from repro.core.algorithms import CalibrationAlgorithm
from repro.core.evaluation import CACHE_DECIMALS, Claim, DictCache, unit_cache_key
from repro.core.faults import EvaluationFailure, FailurePolicy
from repro.core.serialization import evaluation_from_dict

SPACE = ParameterSpace([Parameter("x", 0.0, 1.0, scale="linear")])
GOOD = np.array([0.25])
LAST = np.array([0.5])
POISON = np.array([0.75])
COUNTERS = ("cache_hits", "deferred_hits", "failures", "quarantine_skips")
PENALTY = FailurePolicy(penalty=1e6)
LEADER_FAILURE = EvaluationFailure(error="RuntimeError: the leader's simulator died")


class Scripted(CalibrationAlgorithm):
    """Asks a fixed list of unit points as one batch, then is done."""

    name = "scripted"

    def __init__(self, script):
        super().__init__()
        self.script = script

    def _setup(self):
        self._asked = False

    def _generate(self, rng, n):
        if self._asked:
            return None
        self._asked = True
        return [point.copy() for point in self.script]


class LeasedOnce(DictCache):
    """A shared cache where another driver holds the lease on ``point`` at
    its first claim, then leaves its value or, given ``failure``, its
    quarantine behind."""

    def __init__(self, point, failure=None):
        super().__init__()
        self.leased = key_of(point)
        self.failure = failure

    def claim(self, key, values):
        if key != self.leased:
            return super().claim(key, values)
        self.leased = None
        if self.failure is not None:
            self.mark_failed(key, values, self.failure)
        else:
            self.put(key, values, objective(values))
        return Claim(Claim.LEASED)


def objective(values):
    if values["x"] > 0.5:
        raise RuntimeError("poison point")
    return values["x"] ** 2


def key_of(point):
    return unit_cache_key(SPACE.to_unit_array(SPACE.from_unit_array(point)), CACHE_DECIMALS)


def stored():
    cache = DictCache()
    cache.put(key_of(GOOD), {}, objective(SPACE.from_unit_array(GOOD)))
    return cache


def quarantined():
    cache = DictCache()
    cache.mark_failed(key_of(POISON), {}, LEADER_FAILURE)
    return cache


#: row -> (script, cache factory, config, expected), where expected is
#: (cached, failed, charged, counters moved) for the last scripted
#: point's entry, under every driver
ROWS = {
    "evaluated": (
        [GOOD], lambda: True, RunConfig(), (False, False, 1, set()),
    ),
    "store hit": (
        [GOOD], stored, RunConfig(), (True, False, 0, {"cache_hits"}),
    ),
    "first-seen hit, replayed": (
        [GOOD], stored, RunConfig(replay_cache_hits=True), (True, False, 1, {"cache_hits"}),
    ),
    "in-run revisit": (
        [GOOD, GOOD], lambda: True, RunConfig(), (True, False, 0, {"cache_hits"}),
    ),
    "deferred hit": (
        [GOOD], lambda: LeasedOnce(GOOD), RunConfig(),
        (True, False, 1, {"cache_hits", "deferred_hits"}),
    ),
    "revisit of a deferred hit": (
        [GOOD, GOOD], lambda: LeasedOnce(GOOD), RunConfig(), (True, False, 0, {"cache_hits"}),
    ),
    "fresh failure": (
        [POISON], lambda: True, RunConfig(failure_policy=PENALTY),
        (False, True, 1, {"failures"}),
    ),
    "quarantine skip": (
        [POISON], quarantined, RunConfig(failure_policy=PENALTY),
        (False, True, 1, {"quarantine_skips"}),
    ),
    "deferred skip": (
        [POISON], lambda: LeasedOnce(POISON, LEADER_FAILURE),
        RunConfig(failure_policy=PENALTY),
        (False, True, 1, {"quarantine_skips"}),
    ),
    "revisit of a failure": (
        [POISON, POISON], lambda: True, RunConfig(failure_policy=PENALTY),
        (False, True, 1, {"quarantine_skips"}),
    ),
    "revisit of a deferred skip": (
        [POISON, POISON], lambda: LeasedOnce(POISON, LEADER_FAILURE),
        RunConfig(failure_policy=PENALTY),
        (False, True, 1, {"quarantine_skips"}),
    ),
}


#: driver -> factory, given the ``fleet_driver`` fixture's class
DRIVERS = {
    "serial": lambda fleet, **kw: Calibrator(SPACE, objective, **kw),
    "batch": lambda fleet, **kw: BatchCalibrator(SPACE, objective, workers=2, mode="serial", **kw),
    "async": lambda fleet, **kw: AsyncCalibrator(SPACE, objective, workers=2, mode="serial", **kw),
    "fleet": lambda fleet, **kw: fleet(SPACE, objective, **kw),
}


def run(driver, fleet, script, cache, config):
    """Run ``script`` and a last plain evaluation; return the tell log
    and the counters."""
    script = [*script, LAST]
    calibrator = DRIVERS[driver](
        fleet, algorithm=Scripted(script), budget=EvaluationBudget(len(script)),
        cache=cache(), config=config,
    )
    log = []
    calibrator.run(checkpoint_every=1, on_checkpoint=log.extend)
    assert sorted(entry["seq"] for entry in log) == list(range(len(script)))
    return log, {name: getattr(calibrator, name) for name in COUNTERS}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("row", list(ROWS))
def test_outcome_records_charges_and_counts_per_the_rule_table(row, driver, fleet_driver):
    script, cache, config, (cached, failed, charged, moved) = ROWS[row]

    log, counters = run(driver, fleet_driver, script, cache, config)
    _, before = run(driver, fleet_driver, script[:-1], cache, config)
    (entry,) = [entry for entry in log if entry["seq"] == len(script) - 1]
    record = evaluation_from_dict(entry)
    assert (record.cached, record.failed) == (cached, failed)
    assert entry["charged"] == charged
    assert {name: counters[name] - before[name] for name in COUNTERS} == {
        name: int(name in moved) for name in COUNTERS
    }
