"""Data files and job bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid.errors import SimulationError
from repro.wrench.files import DataFile
from repro.wrench.jobs import (
    Job,
    JobResult,
    JobSpec,
    average_execution_time,
    group_by_node,
    makespan,
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
    def test_volumes(self):
        files = (DataFile("a", 100.0), DataFile("b", 300.0))
        spec = JobSpec("j", files, flops_per_byte=2.0, flops_baseline=50.0)
        assert spec.input_bytes == 400.0
        assert spec.total_flops == pytest.approx(850.0)

    def test_with_name(self):
        spec = JobSpec("j", (), flops_per_byte=1.0)
        assert spec.with_name("k").name == "k"


class TestJobResults:
    def test_execution_and_wait_time(self):
        job = Job(JobSpec("j", (), 1.0))
        job.submit_time, job.start_time, job.end_time = 0.0, 2.0, 10.0
        assert job.execution_time == pytest.approx(8.0)
        assert job.wait_time == pytest.approx(2.0)

    def test_incomplete_job_raises(self):
        job = Job(JobSpec("j", (), 1.0))
        with pytest.raises(ValueError):
            _ = job.execution_time

    def test_result_roundtrip(self):
        result = JobResult("j", "node1", 0.0, 1.0, 5.0, 10.0, 20.0)
        assert JobResult.from_dict(result.to_dict()) == result
        assert result.execution_time == pytest.approx(4.0)
        assert result.turnaround_time == pytest.approx(5.0)

    def test_group_and_aggregate(self):
        results = [
            JobResult("a", "n1", 0, 0, 10),
            JobResult("b", "n1", 0, 2, 6),
            JobResult("c", "n2", 0, 1, 5),
        ]
        grouped = group_by_node(results)
        assert set(grouped) == {"n1", "n2"}
        assert average_execution_time(grouped["n1"]) == pytest.approx(7.0)
        assert makespan(results) == pytest.approx(10.0)

    def test_empty_aggregates_raise(self):
        with pytest.raises(ValueError):
            average_execution_time([])
        with pytest.raises(ValueError):
            makespan([])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3),
                st.floats(min_value=0, max_value=1e3),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_makespan_bounds_every_execution_time(self, intervals):
        results = [
            JobResult(f"j{i}", "n", 0.0, start, start + dur)
            for i, (start, dur) in enumerate(intervals)
        ]
        span = makespan(results)
        assert span >= max(r.execution_time for r in results) - 1e-9
        assert span <= (
            max(r.end_time for r in results) - min(r.start_time for r in results) + 1e-9
        )
