"""The case-study simulator on each of the four Table II platforms.

The platforms differ in two switches — RAM page cache on/off (FC/SC) and a
10 or 1 Gbps WAN interface (FN/SN) — and each calibration parameter only
matters where the hardware it models is on the data path.  These checks
run the tiny scenario on every platform, so a change that breaks one
configuration cannot hide behind the FCSN/SCSN pair the rest of the suite
favours.
"""

import dataclasses

import pytest

from repro.hepsim.calibration import scenario_fingerprint
from repro.hepsim.platforms import (
    PLATFORM_CONFIGS,
    TINY_NODES,
    CalibrationValues,
    build_platform,
)
from repro.hepsim.scenario import Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.hepsim.units import GBps, MBps, gbps, gflops
from repro.hepsim.workload import cached_file_count

PLATFORMS = sorted(PLATFORM_CONFIGS)

VALUES = CalibrationValues(
    core_speed=gflops(1.9),
    disk_bandwidth=MBps(40),
    lan_bandwidth=gbps(10),
    wan_bandwidth=gbps(1),
    page_cache_bandwidth=GBps(11),
)


def end_times(platform_name, icd, **overrides):
    simulator = HEPSimulator(Scenario.tiny(platform_name))
    results, _ = simulator.simulate(dataclasses.replace(VALUES, **overrides), icd)
    return [(r.name, r.end_time) for r in results]


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_build_platform_wires_figure_one(platform_name):
    config = PLATFORM_CONFIGS[platform_name]
    built = build_platform(config, VALUES, nodes=TINY_NODES)
    assert [h.name for h in built.compute_hosts] == [n.name for n in TINY_NODES]
    assert [h.cores for h in built.compute_hosts] == [n.cores for n in TINY_NODES]
    assert all(h.speed == VALUES.core_speed for h in built.compute_hosts)
    # The simulated WAN runs at the calibrated value, not the interface's
    # nominal speed.
    assert built.wan_link.bandwidth == VALUES.wan_bandwidth
    assert built.lan_link.bandwidth == VALUES.lan_bandwidth
    platform = built.platform
    for host in built.compute_hosts:
        assert platform.route(host, built.storage_host) == [built.lan_link, built.wan_link]
        assert built.node_disks[host.name].read_bandwidth == VALUES.disk_bandwidth
        assert built.node_memories[host.name].bandwidth == VALUES.page_cache_bandwidth
        for other in built.compute_hosts:
            if other is not host:
                assert platform.route(host, other) == [built.lan_link]


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_every_job_completes_once_on_a_site_node(platform_name):
    simulator = HEPSimulator(Scenario.tiny(platform_name))
    results, stats = simulator.simulate(VALUES, 0.5)
    assert sorted(r.name for r in results) == sorted(s.name for s in simulator.job_specs)
    cores = {node.name: node.cores for node in TINY_NODES}
    for node, count in cores.items():
        # the tiny workload has one job per core: nobody waits
        assert sum(r.node_name == node for r in results) == count
    assert all(r.start_time == 0.0 and r.end_time > 0.0 for r in results)
    assert stats["simulated_makespan"] == max(r.end_time for r in results)


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_cached_bytes_follow_the_icd(platform_name):
    simulator = HEPSimulator(Scenario.tiny(platform_name))
    workload = simulator.scenario.workload
    size = workload.file_size.value
    for icd in (0.0, 0.5, 1.0):
        cached = cached_file_count(workload.files_per_job, icd)
        results, _ = simulator.simulate(VALUES, icd)
        for result in results:
            assert result.bytes_from_cache == pytest.approx(cached * size)
            assert result.bytes_from_remote == pytest.approx(
                (workload.files_per_job - cached) * size
            )


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_slower_wan_lengthens_every_uncached_job(platform_name):
    fast = dict(end_times(platform_name, 0.0))
    slow = dict(end_times(platform_name, 0.0, wan_bandwidth=gbps(0.1)))
    assert all(slow[name] > fast[name] for name in fast)


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_page_cache_bandwidth_matters_only_with_the_page_cache(platform_name):
    enabled = PLATFORM_CONFIGS[platform_name].page_cache_enabled
    base = end_times(platform_name, 1.0)
    slower = end_times(platform_name, 1.0, page_cache_bandwidth=GBps(1))
    assert (slower != base) == enabled


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_disk_bandwidth_matters_only_without_the_page_cache(platform_name):
    enabled = PLATFORM_CONFIGS[platform_name].page_cache_enabled
    base = end_times(platform_name, 1.0)
    slower = end_times(platform_name, 1.0, disk_bandwidth=MBps(10))
    assert (slower != base) == (not enabled)


@pytest.mark.parametrize("pair", [("SCFN", "SCSN"), ("FCFN", "FCSN")])
def test_nominal_wan_interface_does_not_change_the_simulation(pair):
    for icd in (0.0, 0.5, 1.0):
        assert end_times(pair[0], icd) == end_times(pair[1], icd)


class TestScenarioFingerprint:
    def test_equal_scenarios_share_a_fingerprint(self):
        a = scenario_fingerprint(Scenario.tiny("FCSN"))
        assert a == scenario_fingerprint(Scenario.tiny("FCSN"))
        assert a.startswith("hepsim-")
        # naming the scenario's own ICD grid is the same objective
        assert a == scenario_fingerprint(Scenario.tiny("FCSN"), icd_values=(0.0, 0.5, 1.0))

    def test_every_platform_has_its_own_fingerprint(self):
        prints = {scenario_fingerprint(Scenario.tiny(p)) for p in PLATFORMS}
        assert len(prints) == len(PLATFORMS)

    def test_metric_icds_and_granularity_change_the_fingerprint(self):
        scenario = Scenario.tiny("FCSN")
        base = scenario_fingerprint(scenario)
        variants = {
            scenario_fingerprint(scenario, metric="rmse"),
            scenario_fingerprint(scenario, icd_values=(0.0, 1.0)),
            scenario_fingerprint(scenario.with_granularity(1e9, 2.5e8)),
            scenario_fingerprint(scenario.with_granularity(5e8, 1e8)),
        }
        assert base not in variants
        assert len(variants) == 4
