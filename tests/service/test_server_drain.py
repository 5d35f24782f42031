"""Regression tests: a job and shutdown() survive a worker dying mid-job.

An objective can raise past ``except Exception`` (``SystemExit``,
``KeyboardInterrupt`` forwarded from a signal handler, interpreter
teardown).  Before the fix, the worker thread died with the job's done
event unset: any ``job.wait()`` hung forever, and jobs still queued
behind the dead worker were stranded silently.
"""

import pytest

from repro.core import EvaluationBudget, Parameter, ParameterSpace
from repro.service import CalibrationRequest, CalibrationServer, InMemoryStore, JobStatus

# The killed worker threads re-raise on purpose; pytest reports each one.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)


def make_space():
    return ParameterSpace([Parameter("x", 1.0, 16.0)])


def make_request(fn, fingerprint, evaluations=10):
    return CalibrationRequest(
        space=make_space(),
        objective=fn,
        fingerprint=fingerprint,
        algorithm="random",
        budget=EvaluationBudget(evaluations),
        seed=3,
    )


def lethal(values):
    raise SystemExit(3)  # escapes the job's `except Exception` handler


def quadratic(values):
    return (values["x"] - 4.0) ** 2


class TestWorkerDeath:
    def test_job_whose_worker_dies_is_failed_and_released(self):
        server = CalibrationServer(store=InMemoryStore(), workers=1)
        job = server.submit(make_request(lethal, "fp-lethal"))
        assert job.wait(10), "a dying worker must still release the job"
        assert job.status is JobStatus.FAILED
        assert "died" in job.error

    def test_shutdown_fails_jobs_stranded_behind_a_dead_pool(self):
        server = CalibrationServer(store=InMemoryStore(), workers=1)
        server.submit(make_request(lethal, "fp-lethal"))
        stranded = server.submit(make_request(quadratic, "fp-q"))
        server.shutdown(wait=True)
        assert stranded.wait(0)
        assert stranded.status is JobStatus.FAILED
        assert "pool died" in stranded.error

