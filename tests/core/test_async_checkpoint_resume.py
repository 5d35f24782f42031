"""Checkpoint/resume determinism for the pooled drivers.

Extends the seed-trajectory parity harness of
``test_checkpoint_resume.py`` to :class:`AsyncCalibrator` (and to
:class:`BatchCalibrator`, which runs the same event loop): interrupt a
run with candidates still in flight (emulated, as in the serial harness,
by exhausting a smaller budget so the snapshot is taken with the pending
ledger populated along the way), resume from the JSON-round-tripped
snapshot in a fresh driver, and require the resumed trajectory to match
an uninterrupted run.  The in-flight ledger travels inside the
algorithm's ``state_dict`` (asked-but-untold candidates are re-dispatched
on resume), and the snapshot format is byte-compatible with the serial
calibrator's, so the cross-driver case is asserted too.
"""

import json

import numpy as np
import pytest

from repro.core import (
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
    Parameter,
    ParameterSpace,
)

TOTAL = 60
CUT = 23  # mid-generation for the population algorithms
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


def point_multiset(result):
    return sorted((e.unit, e.value) for e in result.history)


def async_calibrator(space, algorithm, budget, ordered):
    # "serial" mode evaluates inline (no pool startup) while keeping the
    # speculative-ask machinery and the pending ledger exercised.
    return AsyncCalibrator(
        space, objective_for(space), algorithm=algorithm,
        workers=3, mode="serial", budget=EvaluationBudget(budget),
        seed=SEED, ordered_tells=ordered,
    )


def batch_calibrator(space, algorithm, budget, ordered=True):
    # Same loop with the barrier: CUT is not a multiple of the batch width,
    # so the interrupted run ends on a truncated batch with an untold tail.
    # (``ordered`` only keeps the call shape of async_calibrator: the batch
    # driver always tells in ask order.)
    return BatchCalibrator(
        space, objective_for(space), algorithm=algorithm,
        workers=3, mode="serial", budget=EvaluationBudget(budget), seed=SEED,
    )


def cut_snapshot(space, algorithm, ordered, calibrator=async_calibrator):
    """The snapshot an interrupted run left behind at CUT evaluations."""
    snapshots = []
    calibrator(space, algorithm, CUT, ordered).run(
        checkpoint_every=CUT, on_checkpoint=snapshots.append
    )
    assert snapshots, f"{algorithm}: no checkpoint was emitted"
    snapshot = json.loads(json.dumps(snapshots[-1]))  # fresh-process emulation
    assert 0 < len(snapshot["history"]) <= CUT
    return snapshot


class TestAsyncResumeDeterminism:
    @pytest.mark.parametrize(
        "calibrator, algorithm",
        [
            pytest.param(calibrator, algorithm, id=prefix + algorithm)
            for calibrator, prefix in ((async_calibrator, ""), (batch_calibrator, "batch-"))
            for algorithm in ("random", "cmaes", "nelder-mead")
        ],
    )
    def test_ordered_resume_is_byte_identical(self, calibrator, algorithm):
        """With the ordered adapter the resumed pooled trajectory — the
        asynchronous driver's and the batch driver's alike — matches both
        the uninterrupted run and the plain serial driver, byte for byte."""
        space = make_space()
        uninterrupted = calibrator(space, algorithm, TOTAL, ordered=True).run()
        serial = Calibrator(
            space, objective_for(space), algorithm=algorithm,
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run()
        assert trajectory(uninterrupted) == trajectory(serial)

        snapshot = cut_snapshot(space, algorithm, ordered=True, calibrator=calibrator)
        resumed = calibrator(space, algorithm, TOTAL, ordered=True).run(
            resume=snapshot
        )
        assert trajectory(resumed) == trajectory(uninterrupted)
        assert resumed.best_value == uninterrupted.best_value
        assert resumed.best_values == uninterrupted.best_values

    @pytest.mark.parametrize("algorithm", ["random", "lhs"])
    def test_native_resume_visits_the_same_points(self, algorithm):
        """Async-native tells land in completion order, so the resumed
        run must reproduce the uninterrupted point multiset and best —
        the record *order* is not part of the native contract."""
        space = make_space()
        uninterrupted = async_calibrator(space, algorithm, TOTAL, ordered=False).run()
        snapshot = cut_snapshot(space, algorithm, ordered=False)
        resumed = async_calibrator(space, algorithm, TOTAL, ordered=False).run(
            resume=snapshot
        )
        assert point_multiset(resumed) == point_multiset(uninterrupted)
        assert resumed.best_value == uninterrupted.best_value
        assert resumed.evaluations == uninterrupted.evaluations

    def test_async_snapshot_resumes_in_the_serial_driver(self):
        """The snapshot format is the serial calibrator's: a distributed
        job interrupted mid-flight can be finished by a plain Calibrator."""
        space = make_space()
        serial = Calibrator(
            space, objective_for(space), algorithm="cmaes",
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run()
        snapshot = cut_snapshot(space, "cmaes", ordered=True)
        resumed = Calibrator(
            space, objective_for(space), algorithm="cmaes",
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run(resume=snapshot)
        assert trajectory(resumed) == trajectory(serial)

    def test_resume_restores_budget_accounting(self):
        """A resumed asynchronous run performs only the missing work."""
        space = make_space(2)
        calls = {"n": 0}

        def counting_objective(values):
            calls["n"] += 1
            unit = space.to_unit_array(values)
            return float(np.sum((unit - 0.37) ** 2))

        def driver(budget):
            return AsyncCalibrator(
                space, counting_objective, algorithm="lhs",
                workers=3, mode="serial", budget=EvaluationBudget(budget),
                seed=3, ordered_tells=True,
            )

        snapshots = []
        driver(20).run(checkpoint_every=20, on_checkpoint=snapshots.append)
        assert calls["n"] == 20
        calls["n"] = 0
        resumed = driver(50).run(resume=json.loads(json.dumps(snapshots[-1])))
        assert calls["n"] == 30  # not 50: the first 20 came from the snapshot
        assert resumed.evaluations == 50

    def test_checkpoint_before_run_is_rejected(self):
        space = make_space(2)
        driver = async_calibrator(space, "random", 10, ordered=True)
        with pytest.raises(RuntimeError):
            driver.checkpoint()

    def test_resume_with_wrong_algorithm_is_rejected(self):
        space = make_space(2)
        snapshot = cut_snapshot(space, "random", ordered=True)
        other = async_calibrator(space, "lhs", TOTAL, ordered=True)
        with pytest.raises(ValueError):
            other.run(resume=snapshot)
