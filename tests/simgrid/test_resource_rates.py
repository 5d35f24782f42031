"""What a resource carries while the clock runs.

The rate the sharing solver put on a resource is the sum of its registered
activities' rates weighted by their usage (:func:`carried_rate`);
``activities`` and ``load`` say who is registered on it.  A rate change can
be caused on *another* resource (a competitor leaves a shared link), so
these are checked mid-run with ``run(until=...)``, not only before and
after.  Host attachments, activity life-cycle hooks and the start and
finish times activities record complete the picture.
"""

import pytest

from repro.simgrid import ActivityState, Platform, SimulationEngine
from repro.simgrid.activity import Activity
from repro.simgrid.disk import Disk
from repro.simgrid.errors import PlatformError
from repro.simgrid.memory import Memory
from repro.simgrid.resources import Resource


def carried_rate(resource):
    """Aggregate rate (work/s) currently allocated on ``resource``."""
    return sum(activity.rate * activity.usages[resource] for activity in resource.activities)


class TestCurrentRate:
    def test_idle_resource_carries_no_rate(self):
        r = Resource("r", 10.0)
        assert carried_rate(r) == 0.0
        assert r.load == 0

    def test_rates_are_weighted_by_usage(self):
        engine = SimulationEngine()
        r = Resource("r", 12.0)
        light = engine.start_activity(Activity("light", 100.0, {r: 1.0}))
        heavy = engine.start_activity(Activity("heavy", 100.0, {r: 2.0}))
        engine.run(until=1.0)
        # Max-min fairness gives both the same rate x with x + 2x = 12.
        assert light.rate == pytest.approx(4.0)
        assert heavy.rate == pytest.approx(4.0)
        assert carried_rate(r) == pytest.approx(12.0)

    def test_rate_cap_leaves_capacity_unused(self):
        engine = SimulationEngine()
        r = Resource("r", 10.0)
        engine.start_activity(Activity("capped", 100.0, {r: 1.0}, rate_cap=3.0))
        engine.run(until=1.0)
        assert carried_rate(r) == pytest.approx(3.0)

    def test_rate_follows_changes_caused_on_another_resource(self):
        """``X`` speeds up when ``A`` leaves ``r1``; nothing registers or
        unregisters on ``r2`` then, yet ``r2`` carries ``X`` and its rate
        must go from 5/s to 10/s."""
        engine = SimulationEngine()
        r1, r2 = Resource("r1", 10.0), Resource("r2", 100.0)
        engine.start_activity(Activity("A", 10.0, {r1: 1.0}))
        engine.start_activity(Activity("X", 100.0, {r1: 1.0, r2: 1.0}))
        engine.run(until=1.0)
        assert carried_rate(r2) == pytest.approx(5.0)
        assert carried_rate(r1) == pytest.approx(10.0)
        engine.run(until=3.0)
        assert r2.load == 1 and r1.load == 1
        assert carried_rate(r2) == pytest.approx(10.0)
        assert carried_rate(r1) == pytest.approx(10.0)
        assert engine.run() == pytest.approx(11.0)
        assert carried_rate(r1) == carried_rate(r2) == 0.0

    def test_set_capacity_mid_run_rescales_the_rate(self):
        engine = SimulationEngine()
        r = Resource("r", 10.0)
        activity = engine.start_activity(Activity("a", 40.0, {r: 1.0}))
        engine.run(until=2.0)
        r.set_capacity(5.0)
        engine.run(until=3.0)
        assert carried_rate(r) == pytest.approx(5.0)
        # 20 units done in the first 2 s, the other 20 at 5/s.
        assert engine.run() == pytest.approx(6.0)
        assert activity.is_done


class TestRegistration:
    def test_a_running_activity_is_registered_until_it_ends(self):
        engine = SimulationEngine()
        r, other = Resource("r", 10.0), Resource("other", 10.0)
        activity = engine.start_activity(Activity("a", 10.0, {r: 0.5}))
        assert list(r.activities) == [activity]
        assert list(other.activities) == []
        engine.run()
        assert list(r.activities) == []
        assert r.load == 0

    def test_latency_phase_does_not_occupy_the_resource(self):
        engine = SimulationEngine()
        r = Resource("r", 10.0)
        activity = engine.start_activity(Activity("a", 10.0, {r: 1.0}, latency=2.0))
        assert r.load == 0
        engine.run(until=1.0)
        assert r.load == 0 and carried_rate(r) == 0.0
        engine.run(until=2.5)
        assert r.load == 1
        assert engine.run() == pytest.approx(3.0)
        assert activity.duration() == pytest.approx(3.0)

    def test_canceled_activity_leaves_its_resources(self):
        engine = SimulationEngine()
        r = Resource("r", 10.0)
        victim = engine.start_activity(Activity("victim", 100.0, {r: 1.0}))
        survivor = engine.start_activity(Activity("survivor", 30.0, {r: 1.0}))
        engine.run(until=2.0)
        engine.cancel_activity(victim)
        assert list(r.activities) == [survivor]
        # survivor did 10 units at 5/s, the remaining 20 go at 10/s
        assert engine.run() == pytest.approx(4.0)
        assert survivor.is_done and victim.state is ActivityState.CANCELED


class TestActivityLifecycle:
    def test_is_terminated_once_done(self):
        engine = SimulationEngine()
        r = Resource("r", 1.0)
        activity = Activity("a", 1.0, {r: 1.0}, latency=1.0)
        assert not activity.is_terminated
        engine.start_activity(activity)
        assert not activity.is_terminated
        engine.run()
        assert activity.is_done and activity.is_terminated

    def test_state_moves_through_latency_and_running_to_done(self):
        engine = SimulationEngine()
        r = Resource("r", 1.0)
        activity = Activity("a", 1.0, {r: 1.0}, latency=1.0)
        assert activity.state is ActivityState.NEW
        engine.start_activity(activity)
        assert activity.state is ActivityState.LATENCY
        engine.run(until=1.5)
        assert activity.state is ActivityState.RUNNING
        engine.run()
        assert activity.state is ActivityState.DONE
        assert (activity.start_time, activity.finish_time) == (0.0, pytest.approx(2.0))

    def test_waiters_run_once_on_completion(self):
        engine = SimulationEngine()
        r = Resource("r", 1.0)
        activity = engine.start_activity(Activity("a", 2.0, {r: 1.0}))
        seen = []
        activity.add_waiter(lambda a: seen.append((a.name, engine.now)))
        engine.run()
        assert seen == [("a", 2.0)]

    def test_waiter_added_after_termination_runs_immediately(self):
        engine = SimulationEngine()
        r = Resource("r", 1.0)
        activity = engine.start_activity(Activity("a", 1.0, {r: 1.0}))
        engine.run()
        seen = []
        activity.add_waiter(seen.append)
        assert seen == [activity]

    def test_progress_is_measured_mid_run(self):
        engine = SimulationEngine()
        r = Resource("r", 2.0)
        activity = engine.start_activity(Activity("a", 8.0, {r: 1.0}))
        engine.run(until=1.0)
        assert activity.progress == pytest.approx(0.25)
        engine.run()
        assert activity.progress == 1.0


class TestHostAttachments:
    def test_platform_attaches_disks_and_memories_to_their_host(self):
        platform = Platform("p")
        host = platform.add_host("h", 1e9)
        disk = platform.add_disk(host, "h_disk", 1e8)
        memory = platform.add_memory(host, "h_ram", 1e10)
        assert host.disks == {"h_disk": disk}
        assert host.memories == {"h_ram": memory}
        assert disk.host is host and memory.host is host

    def test_a_host_rejects_a_second_disk_of_the_same_name(self):
        platform = Platform("p")
        host = platform.add_host("h", 1e9)
        platform.add_disk(host, "d", 1e8)
        with pytest.raises(PlatformError):
            host.attach_disk(Disk(platform.engine, "d", 1e8))

    def test_a_host_rejects_a_second_memory_of_the_same_name(self):
        platform = Platform("p")
        host = platform.add_host("h", 1e9)
        platform.add_memory(host, "m", 1e10)
        with pytest.raises(PlatformError):
            host.attach_memory(Memory(platform.engine, "m", 1e10))


class TestActivityTimes:
    def test_a_workflow_records_every_step_interval(self):
        platform = Platform("p")
        a = platform.add_host("alpha", 1e9, cores=2)
        b = platform.add_host("beta", 1e9, cores=2)
        link = platform.add_link("wire", 1e8, latency=0.0)
        platform.add_route(a, b, [link])
        disk = platform.add_disk(a, "alpha_disk", 1e8)
        steps = [
            a.exec_async("crunch", 2e9),                       # 2 s on one core
            platform.transfer_async("ship", 1e8, a, b),        # 1 s on the link
            disk.read_async("load", 5e7),                      # 0.5 s on the disk
            platform.transfer_async("loopback", 1e6, a, a),    # zero work
        ]

        def process():
            for step in steps:
                yield step

        platform.engine.add_process(process(), "main")
        assert platform.engine.run() == pytest.approx(3.5)
        intervals = [(step.start_time, step.finish_time) for step in steps]
        assert intervals == [
            (0.0, pytest.approx(2.0)),
            (pytest.approx(2.0), pytest.approx(3.0)),
            (pytest.approx(3.0), pytest.approx(3.5)),
            (pytest.approx(3.5), pytest.approx(3.5)),
        ]

    def test_memory_read_then_compute(self):
        platform = Platform("p")
        host = platform.add_host("h", 1e9)
        memory = platform.add_memory(host, "h_ram", 1e9)
        read = memory.read_async("page-in", 5e8)
        crunch = host.exec_async("crunch", 1e9)

        def process():
            yield read
            yield crunch

        platform.engine.add_process(process(), "main")
        platform.engine.run()
        assert (read.start_time, read.finish_time) == (pytest.approx(0.0), pytest.approx(0.5))
        assert (crunch.start_time, crunch.finish_time) == (pytest.approx(0.5), pytest.approx(1.5))

    def test_a_canceled_activity_finishes_when_canceled(self):
        platform = Platform("p")
        host = platform.add_host("h", 1e9)
        doomed = host.exec_async("doomed", 1e12)
        platform.engine.start_activity(doomed)
        platform.engine.schedule(0.5, lambda: platform.engine.cancel_activity(doomed))
        platform.engine.run()
        assert doomed.state is ActivityState.CANCELED
        assert (doomed.start_time, doomed.finish_time) == (0.0, pytest.approx(0.5))
