"""Bare-metal compute service and FCFS scheduler."""

from collections import Counter

import pytest

from repro.simgrid import Platform, Timeout
from repro.simgrid.errors import SimulationError
from repro.wrench.compute import BareMetalComputeService
from repro.wrench.jobs import Job, JobSpec
from repro.wrench.scheduler import FCFSScheduler


def make_host(cores=2, speed=1e9):
    p = Platform("p")
    h = p.add_host("node", speed, cores)
    return p, h


def compute_body(flops):
    def body(job, host):
        yield host.exec_async(f"{job.name}:work", flops)

    return body


class TestComputeService:
    def test_jobs_run_concurrently_up_to_core_count(self):
        p, h = make_host(cores=2)
        service = BareMetalComputeService("cs", h)
        for i in range(2):
            service.submit(Job(JobSpec(f"j{i}", (), 1.0)), compute_body(1e9))
        p.engine.run()
        jobs = service.completed_jobs
        assert len(jobs) == 2
        assert all(j.execution_time == pytest.approx(1.0) for j in jobs)
        assert all(j.start_time == pytest.approx(j.submit_time) for j in jobs)

    def test_excess_jobs_queue_for_a_core(self):
        p, h = make_host(cores=1)
        service = BareMetalComputeService("cs", h)
        for i in range(3):
            service.submit(Job(JobSpec(f"j{i}", (), 1.0)), compute_body(1e9))
        p.engine.run()
        ends = sorted(j.end_time for j in service.completed_jobs)
        assert ends == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]
        assert service.free_cores == 1

    def test_job_records_node_and_submit_time(self):
        p, h = make_host()
        service = BareMetalComputeService("cs", h)
        job = Job(JobSpec("j", (), 1.0))
        service.submit(job, compute_body(1e9))
        p.engine.run()
        assert job.node_name == "node"
        assert job.submit_time == 0.0

    def test_failing_job_body_fails_the_simulation(self):
        p, h = make_host()
        service = BareMetalComputeService("cs", h)

        def bad_body(job, host):
            yield Timeout(0.5)
            raise ValueError("broken job")

        service.submit(Job(JobSpec("bad", (), 1.0)), bad_body)
        with pytest.raises(SimulationError):
            p.engine.run()


class TestScheduler:
    def test_requires_services(self):
        with pytest.raises(SimulationError):
            FCFSScheduler([])

    def test_greedy_balanced_placement(self):
        p = Platform("p")
        hosts = [
            p.add_host("node1", 1e9, 2),
            p.add_host("node2", 1e9, 2),
            p.add_host("node3", 1e9, 4),
        ]
        services = [BareMetalComputeService(f"cs{i}", h) for i, h in enumerate(hosts)]
        scheduler = FCFSScheduler(services)
        specs = [JobSpec(f"j{i}", (), 1.0) for i in range(8)]
        for spec in specs:
            scheduler.submit(spec, lambda job: compute_body(1e9))
        placement = Counter(job.node_name for job in scheduler.jobs)
        assert placement == {"node1": 2, "node2": 2, "node3": 4}
        assert scheduler.total_cores == 8
        p.engine.run()
        # Every job had its own core.
        assert all(j.start_time == pytest.approx(j.submit_time) for j in scheduler.jobs)
