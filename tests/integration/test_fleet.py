"""Cross-process fleet integration: real worker subprocesses, one SQLite
store, an HTTP front-end — and deliberately killed workers.

The acceptance bar for the distributed path:

* a calibration served by two worker processes produces the *same bytes*
  as the single-process serial run (ordered tells make completion order
  irrelevant);
* no point is ever evaluated twice across the fleet (the store's lease
  protocol is the only arbiter, and it is enough);
* a worker killed while holding a live lease (``os._exit``, no cleanup —
  the closest a process gets to SIGKILL-ing itself) delays the job by at
  most the lease TTL and costs zero duplicate evaluations;
* a worker that dies *after* evaluating but *before* publishing costs
  exactly one duplicate evaluation — the computed value died with it;
* a worker evaluates under the submitted job's fault flags, so a hung or
  raising evaluation is retried in place and the job still reproduces
  the serial run.

Nothing here sleeps for longer than the lease TTL: the tests block on
process exits and on the served job's own completion.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import Calibrator
from repro.service import JobSpool, open_store
from repro.service.case_study import CaseStudyRequestFactory
from repro.service.fleet.faults import DIED_IN_PUBLISH, KILLED_ON_CLAIM

SRC = Path(__file__).resolve().parents[2] / "src"
LEASE_TTL = 2.0
JOB = "job-0001"


def spawn(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", *argv],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def run(*argv, cwd, timeout=120):
    process = spawn(*argv, cwd=cwd)
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        pytest.fail(f"command {argv} timed out:\n{process.communicate()[0]}")
    return process.returncode, output


def wait_exit(process, timeout=120, label="process"):
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        pytest.fail(f"{label} did not exit in {timeout}s:\n{process.communicate()[0]}")
    return process.returncode, output


def submit_job(cwd, evaluations=10, seed=3, *flags):
    code, output = run(
        "submit", "--serve-dir", "spool", "--algorithm", "random",
        "--evaluations", str(evaluations), "--seed", str(seed), *flags, cwd=cwd,
    )
    assert code == 0, output
    assert JOB in output


def start_fleet(cwd):
    """Launch ``repro fleet`` on an ephemeral port; returns (process, url)."""
    process = spawn(
        "fleet", "--serve-dir", "spool", "--port", "0", "--url-file", "url.txt",
        "--workers", "1", cwd=cwd,
    )
    url_file = cwd / "url.txt"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            pytest.fail(f"fleet died on startup:\n{process.communicate()[0]}")
        if url_file.exists() and url_file.read_text().strip():
            return process, url_file.read_text().strip()
        time.sleep(0.1)
    process.kill()
    pytest.fail("fleet front-end never wrote its URL file")


def start_worker(cwd, url, name, *extra):
    return spawn(
        "worker", "--url", url, "--store", "spool/store.db",
        "--lease-ttl", str(LEASE_TTL), "--poll", "0.2",
        "--max-idle", "3", "--stats", f"{name}.json", *extra, cwd=cwd,
    )


def worker_stats(cwd, name):
    return json.loads((cwd / f"{name}.json").read_text())


def store_entries(cwd):
    with open_store(cwd / "spool" / "store.db") as store:
        return len(store)


def serial_baseline(cwd, job_id=JOB):
    """The single-process serial run of exactly what was submitted."""
    spec = JobSpool(cwd / "spool").load(job_id)
    request = CaseStudyRequestFactory().request(spec)
    return Calibrator(
        request.space,
        request.objective,
        algorithm=request.algorithm,
        budget=request.budget,
        seed=request.seed,
    ).run()


class TestTwoWorkerFleet:
    def test_two_workers_reproduce_the_serial_run_without_duplicates(self, tmp_path):
        submit_job(tmp_path, evaluations=10)
        fleet, url = start_fleet(tmp_path)
        workers = []
        try:
            # Before any worker exists the job is running and its tasks are
            # open: `repro status --url` must show both.
            status_out = ""
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                code, status_out = run("status", "--url", url, cwd=tmp_path)
                assert code == 0, status_out
                if JOB in status_out and "open evaluation task" in status_out:
                    break
                time.sleep(0.2)
            assert JOB in status_out
            assert "fleet:" in status_out

            workers = [start_worker(tmp_path, url, f"w{i}") for i in (1, 2)]
            fleet_code, fleet_out = wait_exit(fleet, label="fleet")
            assert fleet_code == 0, fleet_out
            assert "served 1 fleet job(s)" in fleet_out
            for worker in workers:
                wait_exit(worker, label="worker")
        finally:
            fleet.kill()
            for worker in workers:
                worker.kill()

        result = JobSpool(tmp_path / "spool").read_result(JOB)
        serial = serial_baseline(tmp_path)
        assert result.best_value == serial.best_value
        assert json.dumps(result.best_values, sort_keys=True) == json.dumps(
            serial.best_values, sort_keys=True
        )
        assert [(e.unit, e.value) for e in result.history] == [
            (e.unit, e.value) for e in serial.history
        ]

        # Zero duplicate simulator invocations, fleet-wide: every store
        # entry was paid for exactly once by exactly one worker.
        evaluations = sum(worker_stats(tmp_path, w)["evaluations"] for w in ("w1", "w2"))
        assert evaluations == store_entries(tmp_path) == 10


class TestWorkerDeath:
    def test_killed_worker_lease_expires_and_the_fleet_recovers(self, tmp_path):
        """Worker A dies (exit 43, no cleanup) holding a live lease on its
        first claim; worker B must wait out the TTL, reclaim the point and
        finish the job — with zero duplicate evaluations, because A died
        *before* evaluating."""
        submit_job(tmp_path, evaluations=8)
        fleet, url = start_fleet(tmp_path)
        victim = start_worker(
            tmp_path, url, "victim", "--fault-kill-after-claims", "1"
        )
        victim_code, victim_out = wait_exit(victim, label="victim worker")
        assert victim_code == KILLED_ON_CLAIM, victim_out

        # The victim's lease is still live in the store right now; the
        # survivor must not steal it before the TTL runs out.
        survivor = start_worker(tmp_path, url, "survivor")
        try:
            fleet_code, fleet_out = wait_exit(fleet, label="fleet")
            assert fleet_code == 0, fleet_out
            wait_exit(survivor, label="survivor worker")
        finally:
            fleet.kill()
            survivor.kill()

        spool = JobSpool(tmp_path / "spool")
        assert spool.load(JOB)["status"] == "done"
        result = spool.read_result(JOB)
        serial = serial_baseline(tmp_path)
        assert result.best_value == serial.best_value

        victim_stats = worker_stats(tmp_path, "victim")
        survivor_stats = worker_stats(tmp_path, "survivor")
        assert victim_stats["claims"] == 1
        assert victim_stats["evaluations"] == 0, "death precedes evaluation"
        assert survivor_stats["lease_skips"] >= 1, (
            "the survivor must have respected the dead worker's live lease"
        )
        # Zero duplicates: the dead claim cost nothing.
        total = victim_stats["evaluations"] + survivor_stats["evaluations"]
        assert total == store_entries(tmp_path) == 8

    def test_dropped_publish_costs_exactly_one_duplicate(self, tmp_path):
        """Worker A evaluates its first claim, then dies (exit 44) before
        the result reaches the store or the front-end.  The value died
        with the process: recovery re-evaluates that one point — exactly
        one duplicate, never more."""
        submit_job(tmp_path, evaluations=8)
        fleet, url = start_fleet(tmp_path)
        victim = start_worker(
            tmp_path, url, "victim", "--fault-drop-publish", "1"
        )
        victim_code, victim_out = wait_exit(victim, label="victim worker")
        assert victim_code == DIED_IN_PUBLISH, victim_out

        survivor = start_worker(tmp_path, url, "survivor")
        try:
            fleet_code, fleet_out = wait_exit(fleet, label="fleet")
            assert fleet_code == 0, fleet_out
            wait_exit(survivor, label="survivor worker")
        finally:
            fleet.kill()
            survivor.kill()

        spool = JobSpool(tmp_path / "spool")
        assert spool.load(JOB)["status"] == "done"
        assert spool.read_result(JOB).best_value == serial_baseline(tmp_path).best_value

        victim_stats = worker_stats(tmp_path, "victim")
        survivor_stats = worker_stats(tmp_path, "survivor")
        assert victim_stats["evaluations"] == 1, "the victim paid for one evaluation"
        assert victim_stats["publishes"] == 0, "...but its result never landed"
        total = victim_stats["evaluations"] + survivor_stats["evaluations"]
        assert total == store_entries(tmp_path) + 1, (
            "a dropped publish costs exactly one duplicate evaluation"
        )


class TestJobRunConfig:
    def test_a_worker_retries_and_times_out_under_the_jobs_flags(self, tmp_path):
        """The job's --retries/--eval-timeout reach a worker process whose
        second evaluation hangs for an hour and whose every fourth one
        raises: each fault is retried in place, inside the worker's pool
        process, and the job reproduces the serial run exactly."""
        submit_job(tmp_path, 8, 3, "--retries", "1", "--eval-timeout", "1")
        fleet, url = start_fleet(tmp_path)
        worker = start_worker(
            tmp_path, url, "faulty", "--lease-ttl", "30",
            "--fault-hang-on-eval", "2", "--fault-raise-every-evals", "4",
        )
        try:
            fleet_code, fleet_out = wait_exit(fleet, label="fleet")
            assert fleet_code == 0, fleet_out
            worker_code, worker_out = wait_exit(worker, label="worker")
            assert worker_code == 0, worker_out
        finally:
            fleet.kill()
            worker.kill()

        spool = JobSpool(tmp_path / "spool")
        assert spool.load(JOB)["status"] == "done"
        result = spool.read_result(JOB)
        serial = serial_baseline(tmp_path)
        assert [(e.unit, e.value) for e in result.history] == [
            (e.unit, e.value) for e in serial.history
        ]
        stats = worker_stats(tmp_path, "faulty")
        # Evaluation 2 hung and timed out, 4 and 8 raised: one retry each.
        assert stats["retries"] == 3
        assert stats["failures"] == 0
        assert stats["evaluations"] == store_entries(tmp_path) == 8
