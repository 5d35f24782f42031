"""Crash/resume of service jobs: tell-log checkpoint events, the spool's
log file, and the acceptance property — a killed-then-resumed job
finishes with the same best point as an uninterrupted one.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro.core import Calibrator, EvaluationBudget, Parameter, ParameterSpace, save_result
from repro.service import CalibrationRequest, CalibrationServer, InMemoryStore, JobSpool


def make_space(dimension=3):
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(dimension)])


def make_objective(space, crash_after=None):
    """A deterministic objective that optionally dies mid-calibration."""
    calls = {"n": 0}
    lock = threading.Lock()

    def objective(values):
        with lock:
            calls["n"] += 1
            if crash_after is not None and calls["n"] > crash_after:
                raise RuntimeError("simulated worker crash")
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    objective.calls = calls
    return objective


def run_job(request, store=None):
    """Run one job to completion; returns (job, checkpoint events' entries).

    Checkpoint events are delivered to the ``on_event`` callback only (they
    are deliberately not retained on the job), so their entries must be
    captured here — exactly what the CLI's spool persistence does.
    """
    handed_over = []

    def on_event(job, event):
        if event.kind == "checkpoint":
            handed_over.append(event.payload["entries"])

    with CalibrationServer(store=store or InMemoryStore(), workers=1,
                           on_event=on_event) as server:
        job = server.submit(request)
        job.wait()
    return job, handed_over


def joined(handed_over):
    """The tell log as a file would hold it: every entry, JSON-round-tripped."""
    return json.loads(json.dumps([entry for entries in handed_over for entry in entries]))


class TestServerCheckpointEvents:
    def test_checkpoint_events_carry_resumable_state(self):
        space = make_space(2)
        request = CalibrationRequest(
            space=space, objective=make_objective(space), fingerprint="fp-ckpt",
            algorithm="annealing", budget=EvaluationBudget(30), seed=3,
            checkpoint_every=10,
        )
        job, handed_over = run_job(request)
        assert [len(entries) for entries in handed_over] == [10, 10, 10]
        log = joined(handed_over)  # must be spool-persistable as-is
        assert [entry["seq"] for entry in log] == list(range(30))
        assert sum(entry["charged"] for entry in log) == 30
        # The log resumes the job: replayed, it finishes with no new work.
        resumed, _ = run_job(CalibrationRequest(
            space=space, objective=make_objective(space, crash_after=0),
            fingerprint="fp-ckpt", algorithm="annealing",
            budget=EvaluationBudget(30), seed=3, checkpoint=log,
        ))
        assert resumed.status.value == "done"
        assert resumed.result.best_value == job.result.best_value
        # Entries are streamed, not retained on the job's event log.
        assert not any(e.kind == "checkpoint" for e in job.events)

    def test_jobs_without_checkpointing_emit_none(self):
        space = make_space(2)
        job, handed_over = run_job(CalibrationRequest(
            space=space, objective=make_objective(space), fingerprint="fp-none",
            algorithm="random", budget=EvaluationBudget(10),
        ))
        assert handed_over == []
        assert not any(e.kind == "checkpoint" for e in job.events)


class TestKilledThenResumedJob:
    @pytest.mark.parametrize("algorithm", ["random", "cmaes", "gdfix"])
    def test_resumed_job_matches_uninterrupted_best(self, algorithm):
        space = make_space()
        budget = 60

        def request_for(objective, checkpoint=None):
            return CalibrationRequest(
                space=space, objective=objective, fingerprint=f"fp-{algorithm}",
                algorithm=algorithm, budget=EvaluationBudget(budget), seed=7,
                checkpoint_every=10, checkpoint=checkpoint,
            )

        reference, _ = run_job(request_for(make_objective(space)))
        assert reference.status.value == "done"

        # The same job, but the simulator dies after 25 evaluations.
        crashed, handed_over = run_job(request_for(make_objective(space, crash_after=25)))
        assert crashed.status.value == "failed"
        assert handed_over, "the crashed job left no tell log behind"
        log = joined(handed_over)
        assert 0 < len(log) < budget

        # Resubmit with the log: the job finishes the trajectory.
        resumed, _ = run_job(request_for(make_objective(space), checkpoint=log))
        assert resumed.status.value == "done"
        assert resumed.result.best_value == reference.result.best_value
        assert resumed.result.best_values == reference.result.best_values
        assert [e.value for e in resumed.result.history] == [
            e.value for e in reference.result.history
        ]
        # Only the missing evaluations were simulated after the resume.
        assert resumed.evaluations == budget

    def test_resume_replays_nothing_through_the_store(self):
        """The resumed leg only pays for evaluations past the logged ones:
        the replay needs neither the simulator nor the crashed run's store."""
        space = make_space(2)
        objective = make_objective(space)
        crashing = make_objective(space, crash_after=25)
        store = InMemoryStore()

        def request_for(obj, checkpoint=None, fresh_store=None):
            return CalibrationRequest(
                space=space, objective=obj, fingerprint="fp-replay",
                algorithm="lhs", budget=EvaluationBudget(40), seed=1,
                checkpoint_every=10, checkpoint=checkpoint,
            )

        crashed, handed_over = run_job(request_for(crashing), store=store)
        assert crashed.status.value == "failed"
        resumed, _ = run_job(request_for(objective, checkpoint=joined(handed_over)),
                             store=InMemoryStore())
        assert resumed.status.value == "done"
        # 20 evaluations were replayed, so only 20 new calls were needed.
        assert objective.calls["n"] == 20


def lhs_calibrator(space, objective, budget):
    return Calibrator(space, objective, algorithm="lhs",
                      budget=EvaluationBudget(budget), seed=4)


def bowl(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.4) ** 2))

    return objective


def trajectory(result):
    return [(e.unit, e.value, e.cached) for e in result.history]


class TestSpoolCheckpoints:
    def test_checkpoint_roundtrip(self, tmp_path):
        spool = JobSpool(tmp_path / "spool")
        assert spool.read_checkpoint("job-0001") is None
        first = [{"seq": 0, "asked": 1, "charged": 1, "unit": [0.5], "value": 1.0}]
        second = [{"seq": 1, "asked": 2, "charged": 0, "unit": [0.5], "value": 1.0,
                   "cached": True}]
        path = spool.write_checkpoint("job-0001", first)
        assert path == spool.checkpoint_path("job-0001") and path.name == "job-0001.log.jsonl"
        assert spool.read_checkpoint("job-0001") == first
        first_bytes = path.read_bytes()
        spool.write_checkpoint("job-0001", second)
        # Appended to, never rewritten.
        assert path.read_bytes()[: len(first_bytes)] == first_bytes
        assert spool.read_checkpoint("job-0001") == first + second
        assert sorted(p.name for p in spool.checkpoints_dir.iterdir()) == [path.name]

    def test_result_is_written_without_its_history(self, tmp_path):
        """A finished job's history lives in its tell log alone: the result
        file leaves it out and read_result rebuilds it from the log."""
        space = make_space(2)
        spool = JobSpool(tmp_path / "spool")
        result = lhs_calibrator(space, bowl(space), 12).run(
            checkpoint_every=1,
            on_checkpoint=lambda entries: spool.write_checkpoint("job-0001", entries),
        )
        path = spool.write_result("job-0001", result)
        assert "history" not in json.loads(path.read_text())
        loaded = spool.read_result("job-0001")
        assert loaded.history.evaluations == result.history.evaluations
        assert (loaded.best_value, loaded.evaluations) == (result.best_value, result.evaluations)

    def test_a_spool_without_tell_logs_fails_loudly(self, tmp_path):
        """A finished job of an older spool has its history in the result
        file and no tell log: reading it names the missing log instead of
        returning a result with an empty history."""
        space = make_space(2)
        spool = JobSpool(tmp_path / "spool")
        save_result(lhs_calibrator(space, bowl(space), 6).run(), spool.result_path("job-0001"))
        with pytest.raises(ValueError, match="job-0001.log.jsonl is missing: this spool predates"):
            spool.read_result("job-0001")

    def test_end_to_end_resume_through_the_log_file(self, tmp_path):
        """A calibrator's tell log appended through the spool and read back
        resumes to the exact uninterrupted trajectory."""
        space = make_space(2)
        full = lhs_calibrator(space, bowl(space), 30).run()
        spool = JobSpool(tmp_path / "spool")
        lhs_calibrator(space, bowl(space), 12).run(
            checkpoint_every=6,
            on_checkpoint=lambda entries: spool.write_checkpoint("job-0001", entries),
        )
        log = spool.read_checkpoint("job-0001")
        assert len(log) == 12
        resumed = lhs_calibrator(space, bowl(space), 30).run(resume=log)
        assert trajectory(resumed) == trajectory(full)

    def test_interior_corruption_raises(self, tmp_path):
        """Only the final line can be torn by a crash; a damaged line before
        it is not a crash signature and is not skipped silently."""
        spool = JobSpool(tmp_path / "spool")
        spool.write_checkpoint("job-0001", [{"seq": i} for i in range(3)])
        path = spool.checkpoint_path("job-0001")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt tell log"):
            spool.read_checkpoint("job-0001")


@pytest.fixture
def propagating_logs():
    """The CLI's log handler sets ``repro``'s propagate=False (once any CLI
    test has run), which would hide records from caplog's root handler."""
    logger = logging.getLogger("repro")
    before = logger.propagate
    logger.propagate = True
    yield
    logger.propagate = before


class TestTornTellLog:
    def test_resume_from_a_log_torn_at_any_byte_of_its_last_entry(
        self, tmp_path, caplog, propagating_logs
    ):
        """A crash mid-append can leave the last entry cut at any byte.
        Reading the log cuts that fragment (with a warning) and repairs the
        file, and the resumed run equals one resumed from the acknowledged
        prefix — every entry whose line was complete — with the same
        simulator calls."""
        space = make_space(2)
        calls = {"n": 0}

        def objective(values):
            calls["n"] += 1
            return bowl(space)(values)

        spool = JobSpool(tmp_path / "spool")
        job = "job-0001"
        lhs_calibrator(space, objective, 9).run(
            checkpoint_every=4, on_checkpoint=lambda e: spool.write_checkpoint(job, e)
        )
        path = spool.checkpoint_path(job)
        raw = path.read_bytes()
        entries = [json.loads(line) for line in raw.splitlines()]
        last_line = raw.rindex(b"\n", 0, len(raw) - 1) + 1

        def resumed(log):
            calls["n"] = 0
            result = lhs_calibrator(space, objective, 20).run(resume=log)
            return trajectory(result), calls["n"]

        expected = {len(entries) - 1: resumed(entries[:-1]), len(entries): resumed(entries)}
        for cut in range(last_line, len(raw)):
            path.write_bytes(raw[:cut])
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="repro.service.store"):
                log = spool.read_checkpoint(job)
            torn = last_line < cut < len(raw) - 1
            assert len(log) == len(entries) - (cut < len(raw) - 1)
            assert any("truncated" in r.getMessage() for r in caplog.records) == torn
            assert log == entries[: len(log)]
            assert resumed(log) == expected[len(log)]
            # The file ends on a whole line again, so the resumed run's
            # next append lands on a line of its own.
            spool.write_checkpoint(job, [entries[-1]])
            assert spool.read_checkpoint(job) == entries[: len(log)] + [entries[-1]]
