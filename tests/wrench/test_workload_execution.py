"""A workload run end to end on compute services behind the FCFS scheduler.

The case study submits its whole workload at time 0 to three bare-metal
compute services through :class:`FCFSScheduler`; these tests pin the
behaviour that the per-node job-time metrics depend on: FCFS start order,
core occupancy, placement by free cores, and the results the jobs report.
"""

import pytest

from repro.simgrid import Platform, Timeout
from repro.wrench.compute import BareMetalComputeService
from repro.wrench.files import DataFile
from repro.wrench.jobs import (
    Job,
    JobResult,
    JobSpec,
    average_execution_time,
    group_by_node,
    makespan,
)
from repro.wrench.scheduler import FCFSScheduler


def compute_body(flops):
    def body(job, host):
        yield host.exec_async(f"{job.name}:work", flops)

    return body


def make_site(cores=(1, 1, 2), speed=1e9):
    platform = Platform("site")
    services = [
        BareMetalComputeService(f"cs{i}", platform.add_host(f"node{i + 1}", speed, n))
        for i, n in enumerate(cores)
    ]
    return platform, services


def specs(count, flops_per_byte=0.0):
    return [JobSpec(f"j{i}", (), flops_per_byte) for i in range(count)]


class TestComputeServiceQueue:
    def test_queued_jobs_counts_jobs_waiting_for_a_core(self):
        platform, (service,) = make_site(cores=(2,))
        for i in range(5):
            service.submit(Job(JobSpec(f"j{i}", (), 1.0)), compute_body(1e9))
        assert service.running_jobs == 2
        assert service.queued_jobs == 3
        assert service.free_cores == 0
        platform.engine.run()
        assert service.queued_jobs == 0
        assert service.free_cores == 2

    def test_jobs_start_in_submission_order(self):
        platform, (service,) = make_site(cores=(1,))
        jobs = [Job(JobSpec(f"j{i}", (), 1.0)) for i in range(4)]
        for job in jobs:
            service.submit(job, compute_body(1e9))
        platform.engine.run()
        starts = [job.start_time for job in jobs]
        assert starts == sorted(starts)
        assert [j.name for j in service.completed_jobs] == ["j0", "j1", "j2", "j3"]

    def test_queued_job_waits_exactly_for_the_core_to_free(self):
        platform, (service,) = make_site(cores=(1,))
        first, second = Job(JobSpec("a", (), 1.0)), Job(JobSpec("b", (), 1.0))
        service.submit(first, compute_body(3e9))
        service.submit(second, compute_body(1e9))
        platform.engine.run()
        assert second.wait_time == pytest.approx(first.execution_time)
        assert second.start_time == pytest.approx(first.end_time)

    def test_a_preset_submit_time_is_kept(self):
        platform, (service,) = make_site(cores=(1,))
        job = Job(JobSpec("j", (), 1.0))
        job.submit_time = -2.0
        service.submit(job, compute_body(1e9))
        platform.engine.run()
        assert job.submit_time == -2.0
        assert job.wait_time == pytest.approx(2.0)

    def test_later_submissions_are_stamped_with_the_clock(self):
        platform, (service,) = make_site(cores=(1,))
        late = Job(JobSpec("late", (), 1.0))

        def submitter():
            yield Timeout(4.0)
            service.submit(late, compute_body(1e9))

        platform.engine.add_process(submitter(), "submitter")
        platform.engine.run()
        assert late.submit_time == pytest.approx(4.0)
        assert late.start_time == pytest.approx(4.0)
        assert late.end_time == pytest.approx(5.0)

    def test_completed_jobs_is_a_copy(self):
        platform, (service,) = make_site(cores=(1,))
        service.submit(Job(JobSpec("j", (), 1.0)), compute_body(1e9))
        platform.engine.run()
        service.completed_jobs.clear()
        assert len(service.completed_jobs) == 1

    def test_a_job_holds_its_core_through_every_phase(self):
        platform, (service,) = make_site(cores=(1,))

        def two_phase(job, host):
            yield Timeout(2.0)
            yield host.exec_async(f"{job.name}:work", 1e9)

        first, second = Job(JobSpec("a", (), 1.0)), Job(JobSpec("b", (), 1.0))
        service.submit(first, two_phase)
        service.submit(second, compute_body(1e9))
        platform.engine.run()
        assert first.execution_time == pytest.approx(3.0)
        assert second.start_time == pytest.approx(3.0)


class TestSchedulerPlacement:
    def test_ties_go_to_the_first_declared_service(self):
        platform, services = make_site(cores=(2, 2, 2))
        scheduler = FCFSScheduler(services)
        scheduler.submit_all(specs(3), lambda job: compute_body(1e9))
        assert [job.node_name for job in scheduler.jobs] == ["node1", "node2", "node3"]

    def test_the_service_with_most_free_cores_comes_first(self):
        platform, services = make_site(cores=(1, 1, 4))
        scheduler = FCFSScheduler(services)
        scheduler.submit_all(specs(3), lambda job: compute_body(1e9))
        assert [job.node_name for job in scheduler.jobs] == ["node3", "node3", "node3"]

    def test_queued_jobs_count_against_a_busy_service(self):
        platform, services = make_site(cores=(1, 1, 2))
        scheduler = FCFSScheduler(services)
        scheduler.submit_all(specs(8), lambda job: compute_body(1e9))
        # Placement ranks services by free cores minus queued jobs: the
        # first four jobs fill the four cores, then the backlog is dealt
        # one job per service in declaration order, whatever the core count.
        assert [job.node_name for job in scheduler.jobs] == [
            "node3", "node1", "node2", "node3", "node1", "node2", "node3", "node1",
        ]
        assert [s.queued_jobs for s in services] == [2, 1, 1]

    def test_oversubscribed_workload_runs_in_waves(self):
        platform, services = make_site(cores=(1, 1, 2))
        scheduler = FCFSScheduler(services)
        scheduler.submit_all(specs(12), lambda job: compute_body(1e9))
        platform.engine.run()
        # 4 cores, 12 jobs: the 8 queued ones go 3/3/2 to node1/2/3, so the
        # single-core nodes run four waves and node3 runs two per core.
        assert scheduler.placement() == {"node1": 4, "node2": 4, "node3": 4}
        ends = sorted(job.end_time for job in scheduler.jobs)
        assert ends == pytest.approx([1.0] * 4 + [2.0] * 4 + [3.0] * 2 + [4.0] * 2)
        assert all(s.free_cores == s.total_cores for s in services)


class TestWorkloadResults:
    def run_workload(self):
        platform, services = make_site(cores=(1, 1, 2))
        scheduler = FCFSScheduler(services)
        files = [DataFile(f"in{i}", 1e8) for i in range(6)]
        workload = [JobSpec(f"j{i}", (files[i],), 10.0) for i in range(6)]

        def body_factory(job):
            def body(job, host):
                yield host.exec_async(f"{job.name}:work", job.spec.total_flops)
                job.bytes_from_remote = job.spec.input_bytes

            return body

        scheduler.submit_all(workload, body_factory)
        platform.engine.run()
        return [job.to_result() for job in scheduler.jobs]

    def test_results_carry_the_job_timeline(self):
        results = self.run_workload()
        assert [r.name for r in results] == [f"j{i}" for i in range(6)]
        for result in results:
            assert isinstance(result, JobResult)
            assert result.submit_time == 0.0
            assert result.execution_time == pytest.approx(1.0)
            assert result.bytes_from_remote == pytest.approx(1e8)
            assert result.bytes_from_cache == 0.0

    def test_results_group_and_aggregate_per_node(self):
        results = self.run_workload()
        grouped = group_by_node(results)
        assert {node: len(rs) for node, rs in grouped.items()} == {
            "node1": 2,
            "node2": 2,
            "node3": 2,
        }
        assert average_execution_time(results) == pytest.approx(1.0)
        assert makespan(results) == pytest.approx(2.0)

    def test_unfinished_job_converts_with_zero_times(self):
        result = Job(JobSpec("j", (), 1.0)).to_result()
        assert result.node_name == ""
        assert (result.submit_time, result.start_time, result.end_time) == (0.0, 0.0, 0.0)

    def test_result_dict_roundtrip_after_a_run(self):
        for result in self.run_workload():
            assert JobResult.from_dict(result.to_dict()) == result
