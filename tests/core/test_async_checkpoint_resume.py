"""Resume by replay for the pooled drivers.

Extends the harness of ``test_checkpoint_resume.py`` to
:class:`AsyncCalibrator` (and to :class:`BatchCalibrator`, which runs the
same event loop): interrupt a run (emulated by exhausting a smaller
budget, so a batch is cut short and candidates are left asked but
untold), replay its JSON-round-tripped tell log in a fresh driver, and
require the resumed trajectory to match an uninterrupted run.  The
replay asks in the driver's own width until each entry's ``asked`` count
is reached, and the asked-but-untold candidates are launched again under
their original ``seq``; every driver writes one log format, so the
cross-driver case is asserted too.
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


def cut_log(space, algorithm, ordered, calibrator=async_calibrator):
    """The tell log an interrupted run left behind at CUT charges."""
    log = []
    calibrator(space, algorithm, CUT, ordered).run(
        checkpoint_every=CUT, on_checkpoint=log.extend
    )
    assert sum(entry["charged"] for entry in log) == CUT
    return json.loads(json.dumps(log))  # fresh-process emulation


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

        log = cut_log(space, algorithm, ordered=True, calibrator=calibrator)
        resumed = calibrator(space, algorithm, TOTAL, ordered=True).run(resume=log)
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
        log = cut_log(space, algorithm, ordered=False)
        resumed = async_calibrator(space, algorithm, TOTAL, ordered=False).run(resume=log)
        assert point_multiset(resumed) == point_multiset(uninterrupted)
        assert resumed.best_value == uninterrupted.best_value
        assert resumed.evaluations == uninterrupted.evaluations

    def test_async_log_resumes_in_the_serial_driver(self):
        """The tell log format is the serial calibrator's: a distributed
        job interrupted mid-flight can be finished by a plain Calibrator."""
        space = make_space()
        serial = Calibrator(
            space, objective_for(space), algorithm="cmaes",
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run()
        log = cut_log(space, "cmaes", ordered=True)
        resumed = Calibrator(
            space, objective_for(space), algorithm="cmaes",
            budget=EvaluationBudget(TOTAL), seed=SEED,
        ).run(resume=log)
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

        log = []
        driver(20).run(checkpoint_every=20, on_checkpoint=log.extend)
        assert calls["n"] == 20
        calls["n"] = 0
        resumed = driver(50).run(resume=json.loads(json.dumps(log)))
        assert calls["n"] == 30  # not 50: the first 20 were replayed
        assert resumed.evaluations == 50

    def test_out_of_order_log_is_rejected_by_the_ordered_adapter(self):
        """The ordered adapter tells in ask order, so it only replays a
        log told in ask order and names the first entry that is not."""
        space = make_space(2)
        log = cut_log(space, "random", ordered=False)
        log = [log[1], log[0], *log[2:]]
        with pytest.raises(ValueError, match=r"\bseq 1\b"):
            async_calibrator(space, "random", TOTAL, ordered=True).run(resume=log)

    def test_resume_with_wrong_algorithm_is_rejected(self):
        space = make_space(2)
        log = cut_log(space, "random", ordered=True)
        other = async_calibrator(space, "lhs", TOTAL, ordered=True)
        with pytest.raises(ValueError, match=r"\bseq 0\b"):
            other.run(resume=log)
