"""Data files and job bookkeeping."""

import pytest

from repro.simgrid.errors import SimulationError
from repro.wrench.files import DataFile
from repro.wrench.jobs import (
    Job,
    JobResult,
    JobSpec,
    average_execution_time,
    group_by_node,
)


class TestDataFile:
    def test_equality_is_by_name(self):
        assert DataFile("a", 10) == DataFile("a", 20)
        assert DataFile("a", 10) != DataFile("b", 10)

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            DataFile("bad", -1.0)

    def test_usable_in_sets(self):
        files = {DataFile("a", 1), DataFile("a", 2), DataFile("b", 1)}
        assert len(files) == 2


class TestJobSpec:
    def test_with_name(self):
        spec = JobSpec("j", (), flops_per_byte=1.0)
        assert spec.with_name("k").name == "k"


class TestJobResults:
    def test_execution_time(self):
        job = Job(JobSpec("j", (), 1.0))
        job.submit_time, job.start_time, job.end_time = 0.0, 2.0, 10.0
        assert job.execution_time == pytest.approx(8.0)

    def test_to_result_carries_the_bookkeeping(self):
        job = Job(JobSpec("j", (), 1.0))
        job.node_name = "node1"
        job.submit_time, job.start_time, job.end_time = 1.0, 2.0, 10.0
        job.bytes_from_cache, job.bytes_from_remote = 300.0, 700.0
        assert job.to_result() == JobResult("j", "node1", 1.0, 2.0, 10.0, 300.0, 700.0)
        assert job.to_result().execution_time == job.execution_time

    def test_incomplete_job_raises(self):
        job = Job(JobSpec("j", (), 1.0))
        with pytest.raises(ValueError):
            _ = job.execution_time

    def test_result_roundtrip(self):
        result = JobResult("j", "node1", 0.0, 1.0, 5.0, 10.0, 20.0)
        assert JobResult.from_dict(result.to_dict()) == result
        assert result.execution_time == pytest.approx(4.0)

    def test_group_and_aggregate(self):
        results = [
            JobResult("a", "n1", 0, 0, 10),
            JobResult("b", "n1", 0, 2, 6),
            JobResult("c", "n2", 0, 1, 5),
        ]
        grouped = group_by_node(results)
        assert set(grouped) == {"n1", "n2"}
        assert average_execution_time(grouped["n1"]) == pytest.approx(7.0)

    def test_empty_aggregates_raise(self):
        with pytest.raises(ValueError):
            average_execution_time([])

