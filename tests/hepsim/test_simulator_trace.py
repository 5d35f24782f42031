"""The case-study simulator and execution traces."""

import pytest

from repro.hepsim.groundtruth import ReferenceSystemConfig
from repro.hepsim.platforms import CalibrationValues
from repro.hepsim.scenario import Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.hepsim.trace import ExecutionTrace
from repro.hepsim.units import GBps, MBps, gbps, gflops
from repro.wrench.jobs import JobResult


def baseline_values(**overrides):
    values = {
        "core_speed": gflops(1.9),
        "disk_bandwidth": MBps(40),
        "lan_bandwidth": gbps(10),
        "wan_bandwidth": gbps(1),
        "page_cache_bandwidth": GBps(11),
    }
    values.update(overrides)
    return CalibrationValues(**values)


@pytest.fixture(scope="module")
def tiny_fcsn():
    return HEPSimulator(Scenario.tiny("FCSN"))


@pytest.fixture(scope="module")
def tiny_scsn():
    return HEPSimulator(Scenario.tiny("SCSN"))


class TestSimulatorBasics:
    def test_all_jobs_complete_on_expected_nodes(self, tiny_fcsn):
        results, stats = tiny_fcsn.simulate(baseline_values(), icd=0.5)
        assert len(results) == tiny_fcsn.scenario.workload.n_jobs
        assert {r.node_name for r in results} == set(tiny_fcsn.scenario.node_names)
        assert stats["events"] > 0
        assert stats["wall_time"] > 0
        assert stats["simulated_makespan"] > 0

    def test_simulation_is_deterministic(self, tiny_fcsn):
        first, _ = tiny_fcsn.simulate(baseline_values(), icd=0.5)
        second, _ = tiny_fcsn.simulate(baseline_values(), icd=0.5)
        assert [r.end_time for r in first] == [r.end_time for r in second]

    def test_icd_reduces_job_times_when_cache_is_fast(self, tiny_fcsn):
        trace = tiny_fcsn.run_trace(baseline_values(), icd_values=[0.0, 0.5, 1.0])
        times = [trace.average_job_time("node3", icd) for icd in (0.0, 0.5, 1.0)]
        assert times[0] > times[1] > times[2]

    def test_faster_wan_shortens_low_icd_jobs(self, tiny_fcsn):
        slow, _ = tiny_fcsn.simulate(baseline_values(wan_bandwidth=gbps(1)), icd=0.0)
        fast, _ = tiny_fcsn.simulate(baseline_values(wan_bandwidth=gbps(10)), icd=0.0)
        assert max(r.execution_time for r in fast) < max(r.execution_time for r in slow)

    def test_page_cache_bandwidth_matters_only_when_enabled(self, tiny_fcsn, tiny_scsn):
        # FCSN (page cache enabled): slower page cache => slower jobs at ICD 1.
        fast_pc, _ = tiny_fcsn.simulate(baseline_values(), icd=1.0)
        slow_pc, _ = tiny_fcsn.simulate(
            baseline_values(page_cache_bandwidth=GBps(0.2)), icd=1.0
        )
        assert max(r.execution_time for r in slow_pc) > max(r.execution_time for r in fast_pc)
        # SCSN (page cache disabled): the parameter is inert.
        a, _ = tiny_scsn.simulate(baseline_values(), icd=1.0)
        b, _ = tiny_scsn.simulate(baseline_values(page_cache_bandwidth=GBps(0.2)), icd=1.0)
        assert [r.end_time for r in a] == pytest.approx([r.end_time for r in b])

    def test_disk_bandwidth_matters_on_sc_platform(self, tiny_scsn):
        fast, _ = tiny_scsn.simulate(baseline_values(disk_bandwidth=MBps(200)), icd=1.0)
        slow, _ = tiny_scsn.simulate(baseline_values(disk_bandwidth=MBps(20)), icd=1.0)
        assert max(r.execution_time for r in slow) > max(r.execution_time for r in fast)

    def test_core_speed_bounds_high_icd_times(self, tiny_fcsn):
        fast, _ = tiny_fcsn.simulate(baseline_values(core_speed=gflops(4)), icd=1.0)
        slow, _ = tiny_fcsn.simulate(baseline_values(core_speed=gflops(0.5)), icd=1.0)
        assert max(r.execution_time for r in slow) > max(r.execution_time for r in fast)

    def test_finer_granularity_means_more_events(self):
        coarse = HEPSimulator(Scenario.tiny("FCSN").with_granularity(1e9, 5e8))
        fine = HEPSimulator(Scenario.tiny("FCSN").with_granularity(1e8, 2e7))
        _, coarse_stats = coarse.simulate(baseline_values(), icd=0.0)
        _, fine_stats = fine.simulate(baseline_values(), icd=0.0)
        assert fine_stats["events"] > 2 * coarse_stats["events"]

    def test_granularity_changes_cost_not_correctness(self):
        coarse = HEPSimulator(Scenario.tiny("FCSN").with_granularity(1e9, 5e8))
        fine = HEPSimulator(Scenario.tiny("FCSN").with_granularity(2e8, 5e7))
        coarse_results, _ = coarse.simulate(baseline_values(), icd=0.0)
        fine_results, _ = fine.simulate(baseline_values(), icd=0.0)
        coarse_avg = sum(r.execution_time for r in coarse_results) / len(coarse_results)
        fine_avg = sum(r.execution_time for r in fine_results) / len(fine_results)
        # Different pipelining granularity shifts times somewhat but not wildly.
        assert fine_avg == pytest.approx(coarse_avg, rel=0.35)

    def test_job_byte_accounting(self, tiny_fcsn):
        results, _ = tiny_fcsn.simulate(baseline_values(), icd=0.5)
        spec = tiny_fcsn.scenario.workload
        expected_total = spec.mean_input_bytes_per_job
        for result in results:
            assert result.bytes_from_cache + result.bytes_from_remote == pytest.approx(
                expected_total
            )
        all_cached, _ = tiny_fcsn.simulate(baseline_values(), icd=1.0)
        assert all(r.bytes_from_remote == 0 for r in all_cached)

    def test_run_trace_covers_requested_icds(self, tiny_fcsn):
        trace = tiny_fcsn.run_trace(baseline_values(), icd_values=[0.0, 1.0])
        assert trace.icd_values == [0.0, 1.0]
        assert trace.platform_name == "FCSN"


class TestExecutionTrace:
    def make_trace(self):
        trace = ExecutionTrace("FCSN", ["node1", "node2"])
        trace.add_run(
            0.0,
            [
                JobResult("a", "node1", 0, 0, 10),
                JobResult("b", "node2", 0, 0, 20),
            ],
            {"wall_time": 0.5, "events": 100},
        )
        trace.add_run(
            1.0,
            [
                JobResult("a", "node1", 0, 0, 4),
                JobResult("b", "node2", 0, 1, 5),
            ],
        )
        return trace

    def test_metrics_structure(self):
        trace = self.make_trace()
        metrics = trace.metrics()
        assert len(metrics) == 4
        assert metrics[("node1", 0.0)] == pytest.approx(10.0)
        assert metrics[("node2", 1.0)] == pytest.approx(4.0)

    def test_metrics_subsets_and_errors(self):
        trace = self.make_trace()
        subset = trace.metrics(nodes=["node1"], icds=[1.0])
        assert list(subset) == [("node1", 1.0)]
        with pytest.raises(KeyError):
            trace.metrics(icds=[0.7])
        with pytest.raises(KeyError):
            trace.metrics(nodes=["node9"])
        with pytest.raises(KeyError):
            trace.average_job_time("node9", 0.0)

    def test_stats_and_wall_time(self):
        trace = self.make_trace()
        assert trace.stats(0.0)["events"] == 100
        assert trace.stats(1.0) == {}
        assert trace.total_simulation_wall_time() == pytest.approx(0.5)

    def test_json_roundtrip(self):
        trace = self.make_trace()
        restored = ExecutionTrace.from_json(trace.to_json())
        assert restored.platform_name == trace.platform_name
        assert restored.icd_values == trace.icd_values
        assert restored.metrics() == trace.metrics()
        assert restored.stats(0.0) == trace.stats(0.0)

    def test_empty_run_rejected(self):
        trace = ExecutionTrace("FCSN", ["node1"])
        with pytest.raises(ValueError):
            trace.add_run(0.0, [])
