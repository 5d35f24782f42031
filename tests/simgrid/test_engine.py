"""Discrete-event engine: clock, timers, activities, fluid model."""

import pytest

from repro.simgrid import ActivityState, Platform, SimulationEngine, Timeout
from repro.simgrid.activity import Activity
from repro.simgrid.errors import DeadlockError, InvalidStateError, SimulationError
from repro.simgrid.resources import Resource


def test_clock_starts_at_zero():
    assert SimulationEngine().now == 0.0


def test_empty_run_terminates_immediately():
    engine = SimulationEngine()
    assert engine.run() == 0.0


def test_timer_ordering_and_clock_advance():
    engine = SimulationEngine()
    fired = []
    engine.schedule(2.0, lambda: fired.append(("b", engine.now)))
    engine.schedule(1.0, lambda: fired.append(("a", engine.now)))
    engine.run()
    assert fired == [("a", 1.0), ("b", 2.0)]
    assert engine.now == 2.0


def test_schedule_in_the_past_rejected():
    engine = SimulationEngine()
    with pytest.raises(InvalidStateError):
        engine.schedule(-1.0, lambda: None)


def test_single_activity_duration():
    engine = SimulationEngine()
    r = Resource("disk", 10.0)
    activity = Activity("read", 100.0, {r: 1.0})

    def proc():
        yield activity

    engine.add_process(proc(), "p")
    engine.run()
    assert engine.now == pytest.approx(10.0)
    assert activity.state is ActivityState.DONE
    assert activity.duration() == pytest.approx(10.0)


def test_two_activities_share_resource_fairly():
    engine = SimulationEngine()
    r = Resource("link", 10.0)
    done = {}

    def proc(name, amount):
        yield Activity(name, amount, {r: 1.0})
        done[name] = engine.now

    engine.add_process(proc("small", 50.0), "a")
    engine.add_process(proc("large", 100.0), "b")
    engine.run()
    # Both progress at 5/s until the small one finishes at t=10; the large
    # one then gets the full 10/s for its remaining 50 units.
    assert done["small"] == pytest.approx(10.0)
    assert done["large"] == pytest.approx(15.0)


def test_latency_delays_fluid_phase():
    engine = SimulationEngine()
    r = Resource("link", 10.0)
    activity = Activity("comm", 100.0, {r: 1.0}, latency=2.5)

    def proc():
        yield activity

    engine.add_process(proc(), "p")
    engine.run()
    assert engine.now == pytest.approx(12.5)


def test_zero_amount_activity_completes_after_latency_only():
    engine = SimulationEngine()
    activity = Activity("noop", 0.0, {}, latency=1.0)

    def proc():
        yield activity

    engine.add_process(proc(), "p")
    engine.run()
    assert engine.now == pytest.approx(1.0)
    assert activity.is_done


def test_run_until_pauses_simulation():
    engine = SimulationEngine()
    r = Resource("cpu", 1.0)
    activity = Activity("work", 100.0, {r: 1.0})

    def proc():
        yield activity

    engine.add_process(proc(), "p")
    engine.run(until=30.0)
    assert engine.now == pytest.approx(30.0)
    assert not activity.is_done
    assert activity.remaining == pytest.approx(70.0)
    engine.run()
    assert engine.now == pytest.approx(100.0)
    assert activity.is_done


def test_capacity_change_between_runs_reaches_the_solver():
    """A capacity set while activities run takes effect at the next sharing
    update, not at the next unrelated event (there is none here)."""
    p = Platform("throttled")
    host = p.add_host("h", speed=4.0, cores=1)
    work = host.exec_async("work", 16.0)

    def proc():
        yield work

    p.engine.add_process(proc(), "p")
    p.engine.run(until=2.0)
    assert work.remaining == 8.0
    host.cpu.set_capacity(2.0)
    assert p.engine.run() == 6.0
    assert work.finish_time == 6.0


def test_cancel_activity_raises_in_waiting_process():
    engine = SimulationEngine()
    r = Resource("cpu", 1.0)
    activity = Activity("work", 100.0, {r: 1.0})
    observed = {}

    def proc():
        try:
            yield activity
        except Exception as exc:  # noqa: BLE001
            observed["error"] = type(exc).__name__

    engine.add_process(proc(), "p")
    engine.schedule(5.0, lambda: engine.cancel_activity(activity))
    engine.run()
    assert observed["error"] == "ActivityCanceledError"
    assert activity.state is ActivityState.CANCELED


def test_starting_an_activity_twice_is_rejected():
    engine = SimulationEngine()
    r = Resource("cpu", 1.0)
    activity = Activity("work", 1.0, {r: 1.0})
    engine.start_activity(activity)
    with pytest.raises(InvalidStateError):
        engine.start_activity(activity)


def test_process_failure_surfaces_as_simulation_error():
    engine = SimulationEngine()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    engine.add_process(bad(), "bad")
    with pytest.raises(SimulationError, match="boom"):
        engine.run()


def test_deadlock_detection():
    """Two processes joining each other can never make progress."""

    def a(other_holder):
        yield other_holder["b"]

    def b(other_holder):
        yield other_holder["a"]

    holder = {}
    engine = SimulationEngine()
    holder["a"] = engine.add_process(a(holder), "a")
    holder["b"] = engine.add_process(b(holder), "b")
    with pytest.raises(DeadlockError):
        engine.run()


def test_event_and_sharing_counters_increase():
    engine = SimulationEngine()
    r = Resource("cpu", 10.0)

    def proc():
        yield Activity("one", 10.0, {r: 1.0})
        yield Activity("two", 10.0, {r: 1.0})

    engine.add_process(proc(), "p")
    engine.run()
    assert engine.completed_activity_count == 2
    assert engine.sharing_update_count >= 2


def test_negative_amount_rejected():
    r = Resource("cpu", 1.0)
    with pytest.raises(InvalidStateError):
        Activity("bad", -1.0, {r: 1.0})


def test_platform_smoke_pipeline():
    """A short end-to-end pipeline on a Platform (read, compute, send)."""
    p = Platform("smoke")
    h1 = p.add_host("n1", speed=1e9, cores=2)
    h2 = p.add_host("remote", speed=1e9, cores=1)
    lan = p.add_link("lan", bandwidth=1e8, latency=0.0)
    p.add_route(h1, h2, [lan])
    d = p.add_disk(h1, "hdd", read_bandwidth=5e7)
    finished = {}

    def worker(i):
        yield from d.read(f"r{i}", 1e8)
        yield from h1.execute(f"c{i}", 2e9)
        yield p.transfer_async(f"t{i}", 1e8, h1, h2)
        finished[i] = p.engine.now

    for i in range(3):
        p.engine.add_process(worker(i), f"w{i}")
    p.engine.run()
    # 3 x 1e8 B at 5e7 B/s shared = 6 s; compute: 3 tasks on 2 cores of
    # 1e9 = 3 s; transfer: 3 x 1e8 at 1e8 shared = 3 s.
    assert all(t == pytest.approx(12.0, rel=1e-6) for t in finished.values())
