"""Ctrl-C stops ``repro serve`` at once, and the next serve finishes the job.

An interrupted server leaves without waiting for its running job, names
it and exits with status 130: the job's record stays ``running`` in the
spool, so the next ``repro serve`` replays its tell log and finishes it
where an uninterrupted run would.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import JobSpool

SRC = Path(__file__).resolve().parents[2] / "src"
JOB = "job-0001"
EVALUATIONS = 800
SUBMIT = [
    "submit", "--platform", "SCSN", "--scale", "tiny", "--icds", "0.0,1.0",
    "--algorithm", "random", "--evaluations", str(EVALUATIONS), "--seed", "3",
]


def tells(spool):
    return len(spool.read_checkpoint(JOB) or [])


def test_sigint_stops_serve_mid_job_and_the_next_serve_finishes_it(tmp_path, capsys):
    reference_dir, serve_dir = str(tmp_path / "reference"), str(tmp_path / "svc")
    assert main([*SUBMIT, "--serve-dir", reference_dir]) == 0
    assert main(["serve", "--serve-dir", reference_dir]) == 0
    reference = JobSpool(reference_dir).load(JOB)
    assert main([*SUBMIT, "--serve-dir", serve_dir]) == 0
    capsys.readouterr()

    spool = JobSpool(serve_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.main", "serve", "--serve-dir", serve_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        # A shell starts background jobs with SIGINT ignored, and an
        # ignored signal stays ignored across exec: give the server the
        # default disposition a terminal's Ctrl-C meets.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while tells(spool) < 20:  # the job is mid-run
            assert server.poll() is None, server.communicate()[0]
            assert time.monotonic() < deadline, "the served job logged no tells"
            time.sleep(0.02)
        server.send_signal(signal.SIGINT)
        interrupted = time.monotonic()
        try:
            output, _ = server.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            pytest.fail("repro serve did not exit within 10 s of SIGINT")
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert time.monotonic() - interrupted < 10
    # It says which job it left and how to go on, and exits cleanly.
    assert server.returncode == 130, output
    assert f"interrupted: {JOB} left running" in output
    assert "the next `repro serve` resumes" in output
    assert "Traceback" not in output
    # It left without running the job to its end, and the job is still
    # "running": the next serve picks it up.
    assert tells(spool) < EVALUATIONS
    assert spool.load(JOB)["status"] == "running"

    assert main(["serve", "--serve-dir", serve_dir]) == 0
    assert "replaying" in capsys.readouterr().out
    resumed = spool.load(JOB)
    assert resumed["status"] == "done"
    assert resumed["best_value"] == reference["best_value"]
    assert tells(spool) == EVALUATIONS
