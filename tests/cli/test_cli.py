"""The ``repro`` command-line interface."""

import importlib
import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.core import AsyncCalibrator, FailurePolicy, RetryPolicy, RunConfig


def spy_on_store_close(monkeypatch):
    """Record the path of every store the CLI opens once it is closed."""
    import repro.service

    closed = []
    open_store = repro.service.open_store

    def opening(path=None):
        store = open_store(path)
        close = store.close

        def closing():
            closed.append(str(path))
            close()

        store.close = closing
        return store

    monkeypatch.setattr(repro.service, "open_store", opening)
    return closed


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_calibrate_defaults(self):
        args = build_parser().parse_args(["calibrate"])
        assert args.platform == "FCSN"
        assert args.algorithm == "random"
        assert args.metric == "mre"
        assert args.evaluations == 200

    def test_experiment_accepts_a_name(self):
        args = build_parser().parse_args(["experiment", "table3", "--scale", "tiny"])
        assert args.name == "table3"
        assert args.scale == "tiny"

    def test_invalid_platform_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate", "--platform", "MOON"])


class TestListCommand:
    def test_lists_algorithms_and_metrics(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("random", "grid", "gdfix", "bayesian", "mre", "rmse", "SCFN"):
            assert token in out


class TestCalibrateCommand:
    def test_tiny_calibration_with_comparison(self, capsys):
        code = main([
            "calibrate", "--platform", "SCSN", "--scale", "tiny",
            "--icds", "0.0,1.0", "--algorithm", "random",
            "--evaluations", "15", "--seed", "3", "--compare",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best MRE" in out
        assert "HUMAN" in out
        assert "disk_bandwidth" in out

    def test_invalid_icds_rejected(self):
        with pytest.raises(SystemExit):
            main(["calibrate", "--icds", "zero,one", "--scale", "tiny"])


class TestCalibrateRunOptions:
    """The calibrate flags reach whichever driver runs as one RunConfig."""

    TINY = ["calibrate", "--scale", "tiny", "--icds", "0.0,1.0",
            "--evaluations", "6", "--seed", "2"]
    FAULT_FLAGS = ["--retries", "2", "--on-failure", "penalty", "--penalty", "77",
                   "--eval-timeout", "30", "--max-failure-rate", "0.9"]

    @staticmethod
    def received(monkeypatch):
        """Record (driver class, config, max_pending) of every driver run."""
        seen = []
        run = AsyncCalibrator.run

        def spy(self, *args, **kwargs):
            seen.append((type(self).__name__, self.config, self.max_pending))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(AsyncCalibrator, "run", spy)
        return seen

    @pytest.mark.parametrize(
        ("driver_flags", "driver", "max_pending"),
        [
            ([], "Calibrator", 1),
            (["--workers", "2"], "BatchCalibrator", 2),
            (["--workers", "2", "--async", "--max-pending", "3"], "AsyncCalibrator", 3),
        ],
        ids=["serial", "batch", "async"],
    )
    def test_flags_reach_the_driver(
        self, monkeypatch, tmp_path, capsys, driver_flags, driver, max_pending
    ):
        seen = self.received(monkeypatch)
        store = ["--store", str(tmp_path / "store.jsonl")]
        assert main(self.TINY + driver_flags + self.FAULT_FLAGS + store) == 0
        assert seen == [(driver, RunConfig(
            retry_policy=RetryPolicy(max_attempts=3),
            failure_policy=FailurePolicy(
                on_failure="penalty", penalty=77.0, failure_rate_threshold=0.9,
            ),
            eval_timeout=30.0,
            replay_cache_hits=True,
        ), max_pending)]

    def test_no_flags_give_the_default_config(self, monkeypatch, capsys):
        seen = self.received(monkeypatch)
        assert main(self.TINY) == 0
        assert seen == [("Calibrator", RunConfig(), 1)]

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--max-pending", "3"], "--max-pending needs --async"),
            (["--penalty", "5"], "--penalty needs a penalty policy"),
            (["--on-failure", "raise", "--penalty", "5"], "--penalty needs a penalty policy"),
            (["--retries", "-1"], "--retries must be at least 0"),
            (["--eval-timeout", "0"], "eval_timeout must be positive"),
        ],
        ids=["max-pending-without-async", "penalty-without-policy",
             "penalty-under-raise", "negative-retries", "zero-eval-timeout"],
    )
    def test_ignored_flags_are_rejected(self, capsys, flags, message):
        with pytest.raises(SystemExit) as info:
            main(self.TINY + flags)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_submitted_flags_reach_the_served_driver(self, monkeypatch, tmp_path, capsys):
        """`submit` takes the same fault flags; the spooled job carries
        them, and the server runs it under them, with cache-hit replay."""
        serve_dir = str(tmp_path / "svc")
        submit = ["submit", "--serve-dir", serve_dir] + self.TINY[1:]
        assert main(submit + self.FAULT_FLAGS) == 0
        seen = self.received(monkeypatch)
        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        assert seen == [("Calibrator", RunConfig(
            retry_policy=RetryPolicy(max_attempts=3),
            failure_policy=FailurePolicy(
                on_failure="penalty", penalty=77.0, failure_rate_threshold=0.9,
            ),
            eval_timeout=30.0,
            replay_cache_hits=True,
        ), 1)]

    def test_submit_rejects_an_ignored_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["submit", "--penalty", "5"])
        assert info.value.code == 2
        assert "submit: --penalty needs a penalty policy" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_with_true_values(self, capsys):
        code = main([
            "simulate", "--platform", "FCSN", "--scale", "tiny",
            "--icds", "0.0,1.0", "--values", "true",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MRE" in out
        assert "ICD  0.0" in out or "ICD 0.0" in out.replace("  ", " ")


class TestExperimentCommand:
    def test_table1_needs_no_simulation(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "114" in out  # the survey total

    def test_table2_prints_the_platform_table(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        for platform in ("SCFN", "FCFN", "SCSN", "FCSN"):
            assert platform in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    def test_experiments_take_no_time_budget(self):
        # Every experiment's budget is --evaluations, charged in simulated
        # events where scenarios of different cost compete.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table6", "--seconds", "1"])


class TestCalibrateReportAndSave:
    def test_report_and_save_options(self, capsys, tmp_path):
        out_path = tmp_path / "result.json"
        code = main([
            "calibrate", "--platform", "FCSN", "--scale", "tiny",
            "--icds", "0.0,1.0", "--algorithm", "lhs",
            "--evaluations", "12", "--seed", "2",
            "--report", "--save", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Calibration report" in out
        assert "sparkline" in out
        assert out_path.exists()

        from repro.core.serialization import result_from_dict

        loaded = result_from_dict(json.loads(out_path.read_text()))
        assert loaded.evaluations == 12
        assert loaded.algorithm == "lhs"


class TestServiceCommands:
    SUBMIT = [
        "submit", "--platform", "SCSN", "--scale", "tiny", "--icds", "0.0,1.0",
        "--algorithm", "random", "--evaluations", "8", "--seed", "3",
    ]

    def test_submit_serve_status_roundtrip(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "submitted job-0001" in out

        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "job-0001 done" in out

        assert main(["status", "--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "done" in out

    def test_second_job_hits_the_shared_store(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        # Two identical jobs, served by two separate server processes: the
        # second must answer every evaluation from the persisted store.
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        capsys.readouterr()

        from repro.service import JobSpool

        spool = JobSpool(serve_dir)
        first, second = spool.load("job-0001"), spool.load("job-0002")
        assert first["status"] == second["status"] == "done"
        assert first["cache_hits"] == 0 and first["evaluations"] == 8
        assert second["cache_hits"] > 0 and second["evaluations"] == 0
        assert second["best_value"] == first["best_value"]

        # Results are reloadable, their histories read from the tell logs.
        result = spool.read_result("job-0001")
        assert result.evaluations == 8
        history = spool.read_result("job-0002").history
        assert len(history) == 8
        assert all(e.cached for e in history)
        assert spool.default_store_path.exists()

    def test_status_on_empty_spool(self, capsys, tmp_path):
        assert main(["status", "--serve-dir", str(tmp_path / "empty")]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_status_unknown_job_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["status", "--serve-dir", str(tmp_path / "svc"), "--job", "job-9999"])

    @pytest.mark.parametrize("submitted, named", [(0, "no job"), (2, "job-0001, job-0002")])
    def test_ctrl_c_names_the_jobs_left_running_and_exits_130(
        self, monkeypatch, capsys, tmp_path, submitted, named
    ):
        """An interrupted serve leaves without a traceback: one line names
        what it left running for the next serve, and the status is 130."""
        cli = importlib.import_module("repro.cli.main")  # the package exports main
        serve_dir = str(tmp_path / "svc")
        for _ in range(submitted):
            assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0

        def interrupted(spool, server, factory, args):
            for job_id in spool.pending():
                spool.update(job_id, status="running")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_serve_spool", interrupted)
        capsys.readouterr()
        assert main(["serve", "--serve-dir", serve_dir]) == 130
        assert capsys.readouterr().out == (
            f"interrupted: {named} left running; the next `repro serve` resumes from the "
            "tell log\n"
        )

    def test_serve_recovers_jobs_stranded_in_running(self, capsys, tmp_path):
        # A server that died mid-job leaves its spool record at "running";
        # the next serve must pick it up again rather than strand it.
        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0

        from repro.service import JobSpool

        spool = JobSpool(serve_dir)
        spool.update("job-0001", status="running")
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        assert spool.load("job-0001")["status"] == "done"

    def test_serve_resume_replays_the_tell_log(self, capsys, tmp_path):
        """A job killed mid-run (here: a 4-evaluation run of it stands for
        its first 4 tells) is resumed by the next plain `serve`, which
        replays the log: it finishes with the uninterrupted job's best and
        simulates only the missing points."""
        from repro.service import JobSpool

        reference_dir = str(tmp_path / "reference")
        assert main(self.SUBMIT + ["--serve-dir", reference_dir]) == 0
        assert main(["serve", "--serve-dir", reference_dir]) == 0
        reference = JobSpool(reference_dir).load("job-0001")

        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
        spool = JobSpool(serve_dir)
        spool.update("job-0001", evaluations=4)
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        assert len(spool.read_checkpoint("job-0001")) == 4
        spool.update("job-0001", evaluations=8, status="running")
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "store: 8 evaluations, 0 hits / 4 misses" in out
        resumed = spool.load("job-0001")
        assert resumed["status"] == "done"
        assert resumed["best_value"] == reference["best_value"]
        assert len(spool.read_result("job-0001").history) == 8
        assert len(spool.read_checkpoint("job-0001")) == 8  # kept once done

    def test_read_result_rebuilds_the_served_history_from_the_tell_log(self, capsys, tmp_path, monkeypatch):
        """The tell log is a served job's one per-evaluation record: a
        finished job leaves its job file, a result without a history and
        its log, and the history read back equals the in-memory one entry
        for entry — for a cold job, a warm re-run and a killed-then-resumed
        job."""
        import json

        from repro.core.serialization import evaluation_to_dict
        from repro.service import CalibrationServer, JobSpool

        served = {}
        submit = CalibrationServer.submit

        def submitting(self, request, job_id=None):
            job = submit(self, request, job_id=job_id)
            served[job.id] = job  # a resumed run replaces the killed one
            return job

        monkeypatch.setattr(CalibrationServer, "submit", submitting)
        serve_dir = str(tmp_path / "svc")
        spool = JobSpool(serve_dir)
        for _ in range(2):  # cold, then warm on the filled store
            assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
            assert main(["serve", "--serve-dir", serve_dir]) == 0
        assert main(self.SUBMIT + ["--serve-dir", serve_dir, "--seed", "4"]) == 0
        spool.update("job-0003", evaluations=4)  # killed after 4 tells
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        spool.update("job-0003", evaluations=8, status="running")
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        capsys.readouterr()

        assert sorted(served) == ["job-0001", "job-0002", "job-0003"]
        assert all(e.cached for e in served["job-0002"].result.history)
        for job_id, job in served.items():
            assert spool.load(job_id)["status"] == "done"
            assert "history" not in json.loads(spool.result_path(job_id).read_text())
            assert spool.checkpoint_path(job_id).exists()
            assert [evaluation_to_dict(e) for e in spool.read_result(job_id).history] == [
                evaluation_to_dict(e) for e in job.result.history
            ]

    def test_corrupt_tell_log_marks_the_job_failed(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0

        from repro.service import JobSpool

        spool = JobSpool(serve_dir)
        spool.checkpoint_path("job-0001").write_text('{"seq": 0, "as\n{"seq": 1}\n')
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        record = spool.load("job-0001")
        assert record["status"] == "failed" and "corrupt tell log" in record["error"]

    def test_a_failed_tell_log_append_fails_the_job(self, capsys, tmp_path, monkeypatch):
        """The tell log is the job's one record: a job whose log cannot be
        appended to ends failed, not done with a short history."""
        from repro.service import JobSpool

        write_checkpoint = JobSpool.write_checkpoint
        calls = []

        def disk_full_on_the_third_append(self, job_id, entries):
            calls.append(job_id)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write_checkpoint(self, job_id, entries)

        monkeypatch.setattr(JobSpool, "write_checkpoint", disk_full_on_the_third_append)
        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        record = JobSpool(serve_dir).load("job-0001")
        assert record["status"] == "failed"
        assert "OSError" in record["error"] and "No space left on device" in record["error"]
        assert len(calls) == 3  # the run stopped at the failed append

    def test_duplicate_explicit_job_id_is_rejected(self, tmp_path):
        from repro.service import JobSpool

        spool = JobSpool(tmp_path / "svc")
        spool.submit({"platform": "FCSN"}, job_id="job-0001")
        with pytest.raises(ValueError, match="already exists"):
            spool.submit({"platform": "FCSN"}, job_id="job-0001")

    def test_unserveable_spec_marks_the_job_failed(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--serve-dir", serve_dir]) == 0

        from repro.service import JobSpool

        spool = JobSpool(serve_dir)
        spool.update("job-0001", scale="galaxy")  # no such scenario scale
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        assert spool.load("job-0001")["status"] == "failed"

    def test_serve_closes_its_store(self, capsys, tmp_path, monkeypatch):
        serve_dir = tmp_path / "svc"
        assert main(self.SUBMIT + ["--serve-dir", str(serve_dir)]) == 0
        closed = spy_on_store_close(monkeypatch)
        assert main(["serve", "--serve-dir", str(serve_dir)]) == 0
        capsys.readouterr()
        assert closed == [str(serve_dir / "store.jsonl")]

    def test_fleet_that_cannot_bind_closes_its_store_and_server(self, tmp_path, monkeypatch):
        import repro.service.fleet

        def taken(*args, **kwargs):
            raise OSError("address already in use")

        monkeypatch.setattr(repro.service.fleet, "FleetFrontend", taken)
        closed = spy_on_store_close(monkeypatch)
        store = str(tmp_path / "store.db")
        before = set(threading.enumerate())
        with pytest.raises(OSError, match="already in use"):
            main(["fleet", "--serve-dir", str(tmp_path / "svc"), "--store", store])
        assert closed == [store]
        left = [
            thread.name
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("calibration-worker-")
        ]
        assert left == []

    def test_help_epilog_documents_the_service(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for token in ("repro submit", "repro serve", "repro status", "evaluation store"):
            assert token in out


class TestCalibrateTelemetryOptions:
    BASE = [
        "calibrate", "--platform", "SCSN", "--scale", "tiny",
        "--icds", "0.0,1.0", "--algorithm", "random",
        "--evaluations", "8", "--seed", "3",
    ]

    def test_metrics_render_to_stdout(self, capsys):
        assert main(self.BASE + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# HELP repro_objective_evaluations_total" in out
        assert "# TYPE repro_algorithm_ask_seconds histogram" in out
        assert "repro_store_" not in out  # no store in play → no store metrics

    def test_metrics_snapshot_written_to_json(self, capsys, tmp_path):
        import json

        snap = tmp_path / "metrics.json"
        assert main(self.BASE + ["--metrics", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        data = json.loads(snap.read_text())
        names = {m["name"] for m in data["metrics"]}
        # One command, all layers: algorithm + objective instruments at
        # minimum (driver metrics appear with --workers, store with --store).
        assert "repro_algorithm_ask_seconds" in names
        assert "repro_algorithm_tell_seconds" in names
        assert "repro_objective_evaluations_total" in names

    def test_trace_reconstructs_every_evaluation(self, capsys, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        assert main(self.BASE + ["--trace", str(trace)]) == 0
        assert "trace written to" in capsys.readouterr().out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        (root,) = by_name["calibration"]
        evaluations = [r for r in by_name["evaluation"] if "value" in r["attrs"]]
        assert len(evaluations) == 8
        assert all(r["parent_id"] == root["span_id"] for r in evaluations)
        assert all(r["trace_id"] == root["trace_id"] for r in evaluations)
        # Each evaluation wraps its simulator spans.
        evaluation_ids = {r["span_id"] for r in by_name["evaluation"]}
        assert by_name["simulate"]
        assert all(r["parent_id"] in evaluation_ids for r in by_name["simulate"])

    def test_store_reuses_evaluations_across_runs(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        assert main(self.BASE + ["--store", store]) == 0
        cold = capsys.readouterr().out
        assert "8 evaluations, 0 hits this run" in cold
        assert main(self.BASE + ["--store", store]) == 0
        warm = capsys.readouterr().out
        assert "8 evaluations, 8 hits this run" in warm

    def test_store_is_closed_when_the_run_raises(self, tmp_path, monkeypatch):
        from repro.hepsim import CaseStudyProblem

        def dying(self, **kwargs):
            raise RuntimeError("the run dies")

        monkeypatch.setattr(CaseStudyProblem, "calibrate", dying)
        closed = spy_on_store_close(monkeypatch)
        store = str(tmp_path / "store.jsonl")
        with pytest.raises(RuntimeError, match="the run dies"):
            main(self.BASE + ["--store", store])
        assert closed == [store]


class TestTopCommand:
    def test_top_over_a_drained_spool(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(TestServiceCommands.SUBMIT + ["--serve-dir", serve_dir]) == 0
        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        capsys.readouterr()

        assert main(["top", "--serve-dir", serve_dir, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "-- repro top @" in out
        assert "(1 jobs)" in out and "done:1" in out
        assert "stored evaluations in" in out

    def test_top_on_empty_spool(self, capsys, tmp_path):
        assert main(["top", "--serve-dir", str(tmp_path / "empty"),
                     "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "(0 jobs)" in out

    def test_status_appends_the_store_summary(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(TestServiceCommands.SUBMIT + ["--serve-dir", serve_dir]) == 0
        assert main(["serve", "--serve-dir", serve_dir, "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["status", "--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "stored evaluations in" in out


class TestVerbosityFlags:
    CAL = [
        "calibrate", "--platform", "SCSN", "--scale", "tiny",
        "--icds", "0.0,1.0", "--evaluations", "4", "--seed", "1",
    ]

    def test_quiet_keeps_results_but_drops_info_logs(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(TestServiceCommands.SUBMIT + ["--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        assert main(["serve", "-q", "--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "served 1 job(s)" in out  # console() output survives -q
        assert "done: best" not in out  # event log lines are suppressed

    def test_default_serve_still_narrates_events(self, capsys, tmp_path):
        serve_dir = str(tmp_path / "svc")
        assert main(TestServiceCommands.SUBMIT + ["--serve-dir", serve_dir]) == 0
        capsys.readouterr()
        assert main(["serve", "--serve-dir", serve_dir]) == 0
        out = capsys.readouterr().out
        assert "job-0001 done" in out


class TestReportCommand:
    def test_report_from_a_results_directory(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2.txt").write_text("== table2 ==\nSCFN | disabled\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "Reproduction report" in out
        assert "SCFN" in out

    def test_report_written_to_a_file(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "figure2.txt").write_text("== figure2 ==\ncurve\n")
        output = tmp_path / "REPORT.md"
        assert main(["report", "--results-dir", str(results), "--output", str(output)]) == 0
        assert output.exists()
        assert "figure2" in output.read_text() or "Figure 2" in output.read_text()
