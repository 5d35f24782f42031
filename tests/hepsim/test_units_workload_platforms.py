"""Units, workload generation, platform configurations and scenarios."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hepsim import platforms as P
from repro.hepsim import units as U
from repro.hepsim.scenario import PAPER_ICD_VALUES, REDUCED_ICD_VALUES, Scenario
from repro.hepsim.workload import (
    Distribution,
    WorkloadSpec,
    bench_scale,
    cached_file_count,
    calib_scale,
    constant,
    make_workload,
    paper_scale,
    tiny_scale,
)


class TestUnits:
    def test_bandwidth_conversions(self):
        assert U.gbps(1) == pytest.approx(1.25e8)
        assert U.MBps(1) == 1e6
        assert U.GBps(2) == 2e9

    def test_speed_conversion(self):
        assert U.gflops(1.9) == pytest.approx(1.9e9)

    def test_formatting(self):
        assert U.format_bandwidth(U.gbps(10)) == "10.00 Gbps"
        assert U.format_bandwidth(U.gbps(0.5)) == "500.0 Mbps"
        assert U.format_disk_bandwidth(U.MBps(17)) == "17.0 MBps"
        assert U.format_disk_bandwidth(U.GBps(1)) == "1.00 GBps"
        assert U.format_speed(1.97e9) == "1.97 Gflops"
        assert U.format_duration(90) == "1.5 min"
        assert U.format_duration(0.03) == "30 ms"
        assert U.format_duration(7200) == "2.0 h"


class TestDistributions:
    def test_constant(self):
        d = constant(5.0)
        assert d.sample() == 5.0
        assert d.sample(np.random.default_rng(0)) == 5.0

    def test_uniform_and_lognormal_bounds(self):
        rng = np.random.default_rng(0)
        u = Distribution(value=0.0, kind="uniform", low=2.0, high=4.0)
        samples = [u.sample(rng) for _ in range(50)]
        assert all(2.0 <= s <= 4.0 for s in samples)
        ln = Distribution(value=10.0, kind="lognormal", sigma=0.2)
        samples = [ln.sample(rng) for _ in range(500)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Distribution(value=1.0, kind="cauchy").sample(np.random.default_rng(0))


class TestWorkload:
    def test_scales_have_expected_shapes(self):
        assert paper_scale().n_jobs == 48 and paper_scale().files_per_job == 20
        assert bench_scale().n_jobs == 12
        assert calib_scale().n_jobs == 8
        assert tiny_scale().n_jobs == 4

    def test_make_workload_structure(self):
        spec = tiny_scale()
        jobs = make_workload(spec)
        assert len(jobs) == spec.n_jobs
        for job in jobs:
            assert len(job.input_files) == spec.files_per_job
            assert job.output_file is not None
            assert job.flops_per_byte == spec.flops_per_byte.value
        files = {f.name for job in jobs for f in job.input_files}
        assert len(files) == spec.n_jobs * spec.files_per_job

    def test_shared_input_files(self):
        spec = dataclasses.replace(tiny_scale(), shared_input_files=True)
        jobs = make_workload(spec)
        assert len({f.name for job in jobs for f in job.input_files}) == spec.files_per_job

    def test_workload_is_deterministic_per_seed(self):
        spec = dataclasses.replace(
            tiny_scale(), file_size=Distribution(value=1e8, kind="lognormal", sigma=0.3)
        )
        first = make_workload(spec)
        second = make_workload(spec)
        assert [f.size for j in first for f in j.input_files] == [
            f.size for j in second for f in j.input_files
        ]

    def test_cached_file_count_bounds(self):
        assert cached_file_count(10, 0.0) == 0
        assert cached_file_count(10, 1.0) == 10
        assert cached_file_count(10, 0.5) == 5
        with pytest.raises(ValueError):
            cached_file_count(10, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.floats(min_value=0.0, max_value=1.0))
    def test_cached_file_count_monotone_in_icd(self, files, icd):
        count = cached_file_count(files, icd)
        assert 0 <= count <= files
        assert cached_file_count(files, 1.0) >= count >= cached_file_count(files, 0.0)


class TestPlatformConfigs:
    def test_table2_configurations(self):
        assert set(P.PLATFORM_CONFIGS) == {"SCFN", "FCFN", "SCSN", "FCSN"}
        assert P.PLATFORM_CONFIGS["FCFN"].page_cache_enabled
        assert not P.PLATFORM_CONFIGS["SCSN"].page_cache_enabled
        assert P.PLATFORM_CONFIGS["SCFN"].wan_nominal_bandwidth == pytest.approx(U.gbps(10))
        assert P.PLATFORM_CONFIGS["FCSN"].wan_nominal_bandwidth == pytest.approx(U.gbps(1))
        assert "page cache" in P.PLATFORM_CONFIGS["FCFN"].description

    def test_node_presets_keep_1_1_2_shape(self):
        for nodes in (P.PAPER_NODES, P.BENCH_NODES, P.CALIB_NODES, P.TINY_NODES):
            cores = [n.cores for n in nodes]
            assert len(cores) == 3
            assert cores[0] == cores[1]
            assert cores[2] == 2 * cores[0]
        assert sum(n.cores for n in P.PAPER_NODES) == 48

    def test_calibration_values_roundtrip_and_describe(self):
        values = P.CalibrationValues(1.9e9, 3e7, 1.25e9, 1.15e8, 1.1e10)
        assert P.CalibrationValues.from_dict(values.to_dict()) == values
        text = values.describe()
        for token in ("core", "disk", "LAN", "WAN", "page cache"):
            assert token in text

    def test_build_platform_applies_values(self):
        config = P.PLATFORM_CONFIGS["FCSN"]
        values = P.CalibrationValues(2e9, 4e7, 1.25e9, 1.15e8, 1.2e10)
        built = P.build_platform(config, values, nodes=P.TINY_NODES)
        assert len(built.compute_hosts) == 3
        assert built.wan_link.bandwidth == pytest.approx(1.15e8)
        assert built.lan_link.bandwidth == pytest.approx(1.25e9)
        for host in built.compute_hosts:
            assert host.speed == pytest.approx(2e9)
        for disk in built.node_disks.values():
            assert disk.read_bandwidth == pytest.approx(4e7)
        for memory in built.node_memories.values():
            assert memory.bandwidth == pytest.approx(1.2e10)
        # Every compute host can reach the storage host.
        for host in built.compute_hosts:
            assert built.platform.route(host, built.storage_host)

    def test_platform_ascii_art_mentions_parameters(self):
        art = P.platform_ascii_art()
        assert "calibration parameters" in art
        assert "node3" in art


class TestScenario:
    def test_presets(self):
        assert Scenario.paper("SCFN").workload.n_jobs == 48
        assert Scenario.bench("FCFN").label == "bench"
        assert Scenario.calib("FCSN").total_cores == 8
        assert Scenario.tiny("SCSN").workload.files_per_job == 4
        assert len(PAPER_ICD_VALUES) == 11
        assert len(REDUCED_ICD_VALUES) == 5

    def test_preset_by_scale_name(self):
        assert Scenario.preset("tiny", "SCSN") == Scenario.tiny("SCSN")
        assert Scenario.preset("calib", "FCSN", [0, 1]) == Scenario.calib(
            "FCSN", icd_values=(0.0, 1.0)
        )
        with pytest.raises(ValueError, match="unknown scenario scale 'huge'"):
            Scenario.preset("huge")

    def test_metric_count_matches_paper(self):
        scenario = Scenario.paper("FCSN")
        assert len(scenario.nodes) * len(scenario.icd_values) == 33

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario.calib("NOPE")
        with pytest.raises(ValueError):
            Scenario.calib("FCSN", icd_values=(1.5,))
        with pytest.raises(ValueError):
            Scenario.calib("FCSN").with_granularity(-1.0, 1e6)

    def test_derivation_helpers(self):
        scenario = Scenario.calib("FCSN")
        subset = scenario.with_icds([0.0, 1.0])
        assert subset.icd_values == (0.0, 1.0)
        fine = scenario.with_granularity(1e8, 1e6)
        assert fine.block_size == 1e8
        other = scenario.with_platform("SCFN")
        assert other.platform_name == "SCFN"
        assert other.workload == scenario.workload

    def test_cache_key_distinguishes_platforms_and_scales(self):
        keys = {
            Scenario.calib("FCSN").cache_key(),
            Scenario.calib("SCFN").cache_key(),
            Scenario.tiny("FCSN").cache_key(),
        }
        assert len(keys) == 3
