"""Hosts, links, disks, memories and platform descriptions."""

import pytest

from repro.simgrid import Platform, SimulationEngine
from repro.simgrid.disk import Disk
from repro.simgrid.errors import PlatformError
from repro.simgrid.host import Host
from repro.simgrid.link import Link
from repro.simgrid.memory import Memory
from repro.simgrid.network import communicate
from repro.simgrid.resources import Resource


class TestResource:
    def test_positive_capacity_required(self):
        with pytest.raises(PlatformError):
            Resource("bad", 0.0)
        with pytest.raises(PlatformError):
            Resource("bad", -5.0)

    def test_set_capacity(self):
        r = Resource("r", 10.0)
        r.set_capacity(20.0)
        assert r.capacity == 20.0
        with pytest.raises(PlatformError):
            r.set_capacity(0.0)


class TestHost:
    def test_cpu_capacity_is_speed_times_cores(self):
        host = Host(SimulationEngine(), "h", speed=2e9, cores=4)
        assert host.cpu.capacity == pytest.approx(8e9)

    def test_exec_rate_capped_at_one_core(self):
        engine = SimulationEngine()
        host = Host(engine, "h", speed=1e9, cores=4)
        done = {}

        def proc():
            yield host.exec_async("solo", 2e9)
            done["t"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        # A single task cannot use more than one core: 2e9 / 1e9 = 2 s.
        assert done["t"] == pytest.approx(2.0)

    def test_parallel_task_uses_multiple_cores(self):
        engine = SimulationEngine()
        host = Host(engine, "h", speed=1e9, cores=4)
        done = {}

        def proc():
            yield host.exec_async("par", 2e9, parallelism=2)
            done["t"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        assert done["t"] == pytest.approx(1.0)

    def test_oversubscription_shares_cores(self):
        engine = SimulationEngine()
        host = Host(engine, "h", speed=1e9, cores=2)
        times = {}

        def proc(i):
            yield host.exec_async(f"t{i}", 1e9)
            times[i] = engine.now

        for i in range(4):
            engine.add_process(proc(i), f"p{i}")
        engine.run()
        # 4 x 1e9 flops on 2e9 flop/s total capacity = 2 s for all.
        assert all(t == pytest.approx(2.0) for t in times.values())

    def test_invalid_host_parameters(self):
        engine = SimulationEngine()
        with pytest.raises(PlatformError):
            Host(engine, "h", speed=0.0)
        with pytest.raises(PlatformError):
            Host(engine, "h", speed=1e9, cores=0)
        host = Host(engine, "h", speed=1e9)
        with pytest.raises(PlatformError):
            host.exec_async("bad", 1.0, parallelism=0)


class TestDiskAndMemory:
    def test_disk_read_write_bandwidths(self):
        engine = SimulationEngine()
        disk = Disk(engine, "hdd", read_bandwidth=100.0, write_bandwidth=50.0)
        times = {}

        def proc():
            yield disk.read_async("r", 1000.0)
            times["read"] = engine.now
            yield disk.write_async("w", 1000.0)
            times["write"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        assert times["read"] == pytest.approx(10.0)
        assert times["write"] == pytest.approx(30.0)

    def test_disk_seek_latency(self):
        engine = SimulationEngine()
        disk = Disk(engine, "hdd", read_bandwidth=100.0, read_latency=0.5)
        done = {}

        def proc():
            yield disk.read_async("r", 100.0)
            done["t"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        assert done["t"] == pytest.approx(1.5)

    def test_memory_faster_than_disk(self):
        engine = SimulationEngine()
        memory = Memory(engine, "ram", bandwidth=1e9)
        done = {}

        def proc():
            yield memory.read_async("r", 1e9)
            done["t"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        assert done["t"] == pytest.approx(1.0)

    def test_memory_requires_positive_bandwidth(self):
        with pytest.raises(PlatformError):
            Memory(SimulationEngine(), "ram", bandwidth=0.0)


class TestLinkAndRoutes:
    def test_link_properties(self):
        link = Link(SimulationEngine(), "l", bandwidth=1e8, latency=0.01)
        assert link.bandwidth == 1e8
        assert link.latency == 0.01

    def test_negative_latencies_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(PlatformError):
            Link(engine, "l", bandwidth=1e8, latency=-0.01)
        with pytest.raises(PlatformError):
            Memory(engine, "ram", bandwidth=1e9, latency=-0.01)

    def test_communicate_requires_links(self):
        with pytest.raises(PlatformError):
            communicate("c", 100.0, [])

    def test_multi_link_route_latency_and_bottleneck(self):
        engine = SimulationEngine()
        fast = Link(engine, "fast", bandwidth=1e9, latency=0.1)
        slow = Link(engine, "slow", bandwidth=1e8, latency=0.2)
        done = {}

        def proc():
            yield communicate("c", 1e8, [fast, slow])
            done["t"] = engine.now

        engine.add_process(proc(), "p")
        engine.run()
        # latency 0.3 s + 1e8 bytes at the 1e8 B/s bottleneck = 1.3 s.
        assert done["t"] == pytest.approx(1.3)


def _element(kind, engine):
    """A platform element of 100 units/s and a 300-unit activity on it."""
    if kind == "cpu":
        host = Host(engine, "h", speed=100.0)
        return host.cpu, host.exec_async("work", 300.0)
    if kind == "disk":
        disk = Disk(engine, "hdd", read_bandwidth=100.0)
        return disk.resource, disk.read_async("work", 300.0)
    if kind == "memory":
        memory = Memory(engine, "ram", bandwidth=100.0)
        return memory.resource, memory.read_async("work", 300.0)
    link = Link(engine, "wire", bandwidth=100.0)
    return link.resource, communicate("work", 300.0, [link])


class TestCapacityChanges:
    """A capacity change mid-run (how a platform element is slowed down or
    sped up) reaches the activity already running on it."""

    @pytest.mark.parametrize("kind", ["cpu", "disk", "memory", "link"])
    def test_a_cut_mid_run_slows_the_running_activity(self, kind):
        engine = SimulationEngine()
        resource, activity = _element(kind, engine)
        engine.start_activity(activity)
        engine.run(until=1.0)
        resource.set_capacity(50.0)
        # 100 units done in the first second, the other 200 at 50/s.
        assert engine.run() == pytest.approx(5.0)
        assert activity.finish_time == pytest.approx(5.0)

    @pytest.mark.parametrize("kind", ["cpu", "disk"])
    def test_a_raise_above_the_rate_cap_leaves_the_rate_alone(self, kind):
        """One core's speed and a disk's read bandwidth cap the activity, so
        more capacity on the shared resource does not speed it up."""
        engine = SimulationEngine()
        resource, activity = _element(kind, engine)
        engine.start_activity(activity)
        engine.run(until=1.0)
        resource.set_capacity(400.0)
        assert engine.run() == pytest.approx(3.0)

    def test_bandwidth_reads_the_current_capacity(self):
        engine = SimulationEngine()
        link = Link(engine, "wire", bandwidth=100.0)
        memory = Memory(engine, "ram", bandwidth=100.0)
        link.resource.set_capacity(250.0)
        memory.resource.set_capacity(300.0)
        assert link.bandwidth == 250.0
        assert memory.bandwidth == 300.0


class TestPlatform:
    def test_duplicate_names_rejected(self):
        p = Platform("p")
        p.add_host("h", 1e9)
        with pytest.raises(PlatformError):
            p.add_host("h", 1e9)
        p.add_link("l", 1e8)
        with pytest.raises(PlatformError):
            p.add_link("l", 1e8)

    def test_route_lookup_and_symmetry(self):
        p = Platform("p")
        a = p.add_host("a", 1e9)
        b = p.add_host("b", 1e9)
        link = p.add_link("ab", 1e8)
        p.add_route(a, b, [link])
        assert p.route(a, b) == [link]
        assert p.route(b, a) == [link]
        assert p.route(a, a) == []

    def test_missing_route_raises(self):
        p = Platform("p")
        a = p.add_host("a", 1e9)
        b = p.add_host("b", 1e9)
        with pytest.raises(PlatformError):
            p.route(a, b)

    def test_loopback_transfer_is_instantaneous(self):
        p = Platform("p")
        a = p.add_host("a", 1e9)
        done = {}

        def proc():
            yield p.transfer_async("self", 1e9, a, a)
            done["t"] = p.engine.now

        p.engine.add_process(proc(), "p")
        p.engine.run()
        assert done["t"] == pytest.approx(0.0)

    def test_summary_mentions_all_elements(self):
        p = Platform("site")
        h = p.add_host("n1", 1e9, cores=4)
        p.add_disk(h, "hdd", 1e8)
        p.add_memory(h, "ram", 1e10)
        p.add_link("wan", 1e8, 0.01)
        text = p.summary()
        for token in ("site", "n1", "hdd", "ram", "wan"):
            assert token in text

    def test_elements_are_indexed_by_name(self):
        p = Platform("p")
        h = p.add_host("a", 1e9)
        disk = p.add_disk(h, "hdd", 1e8)
        memory = p.add_memory(h, "ram", 1e10)
        link = p.add_link("wan", 1e8)
        assert p.hosts == {"a": h}
        assert p.disks == {"hdd": disk} and h.disks == {"hdd": disk}
        assert p.memories == {"ram": memory} and h.memories == {"ram": memory}
        assert p.links == {"wan": link}
        assert disk.host is h and memory.host is h
