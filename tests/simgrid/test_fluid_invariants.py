"""Analytic invariants of the fluid model, checked end to end.

The SimGrid-style fluid model has closed-form answers for simple workloads;
these property-based tests drive the whole stack (platform, activities,
engine, max-min sharing) and compare against them:

* a single computation of ``W`` flops on an idle host takes ``W / speed``;
* ``n <= cores`` identical computations run at full speed; ``n`` identical
  computations on one core serialise perfectly under fair sharing (they all
  finish together at ``n`` times the solo duration);
* a transfer of ``S`` bytes over a link takes ``latency + S / bandwidth``;
* bandwidth sharing conserves work: however many flows share a link, the
  last completion time equals ``total bytes / bandwidth`` (plus latency),
  and a flow can never finish earlier than its fair share allows.

Random multi-resource systems have no closed form; there the engine's
incremental sharing is held, at every clock advance, to the rates one solve
of all running activities assigns (the differential), and to the model's
physics: no resource above capacity, every activity capped or crossing a
saturated resource, work conserved, clock monotone.  The systems repeat
themselves (the same activities again, later) with capacity changes in
between, because the engine reuses the rates of a component it has solved
before: a reused rate that is stale fails the differential.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simgrid import Platform, SimulationEngine
from repro.simgrid.activity import Activity
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import solve_max_min


def run_engine(platform):
    platform.engine.run()
    return platform.engine.now


class TestComputeInvariants:
    @given(
        flops=st.floats(1e6, 1e12),
        speed=st.floats(1e6, 1e11),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_exec_duration(self, flops, speed):
        platform = Platform("solo")
        host = platform.add_host("h", speed, cores=2)

        def process():
            yield host.exec_async("work", flops)

        platform.engine.add_process(process(), "p")
        assert run_engine(platform) == pytest.approx(flops / speed, rel=1e-6)

    @given(n=st.integers(1, 6), cores=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_identical_concurrent_execs_share_fairly(self, n, cores):
        speed, flops = 1e9, 2e9
        platform = Platform("shared")
        host = platform.add_host("h", speed, cores=cores)

        def process(i):
            yield host.exec_async(f"work{i}", flops)

        for i in range(n):
            platform.engine.add_process(process(i), f"p{i}")
        elapsed = run_engine(platform)
        # With fair sharing of `cores * speed` capacity and a per-task cap of
        # one core, n identical tasks all finish together.
        expected = (flops / speed) * max(1.0, n / cores)
        assert elapsed == pytest.approx(expected, rel=1e-6)


class TestNetworkInvariants:
    @given(
        size=st.floats(1e5, 1e11),
        bandwidth=st.floats(1e6, 1e10),
        latency=st.floats(0.0, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_transfer_duration(self, size, bandwidth, latency):
        platform = Platform("net")
        a = platform.add_host("a", 1e9)
        b = platform.add_host("b", 1e9)
        link = platform.add_link("l", bandwidth, latency=latency)
        platform.add_route(a, b, [link])

        def process():
            yield platform.transfer_async("move", size, a, b)

        platform.engine.add_process(process(), "p")
        assert run_engine(platform) == pytest.approx(latency + size / bandwidth, rel=1e-6)

    @given(sizes=st.lists(st.floats(1e6, 1e9), min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_sharing_conserves_work(self, sizes):
        bandwidth = 1e8
        platform = Platform("sharing")
        a = platform.add_host("a", 1e9)
        b = platform.add_host("b", 1e9)
        link = platform.add_link("l", bandwidth, latency=0.0)
        platform.add_route(a, b, [link])
        finish_times = {}

        def process(i, size):
            yield platform.transfer_async(f"flow{i}", size, a, b)
            finish_times[i] = platform.engine.now

        for i, size in enumerate(sizes):
            platform.engine.add_process(process(i, size), f"p{i}")
        elapsed = run_engine(platform)

        # Work conservation: the link is never idle while work remains, so
        # the last flow finishes exactly when the total volume has moved.
        assert elapsed == pytest.approx(sum(sizes) / bandwidth, rel=1e-6)
        # No flow can beat its best case (alone on the link) nor finish while
        # more than its fair share of the time would still be needed.
        for i, size in enumerate(sizes):
            assert finish_times[i] >= size / bandwidth - 1e-9
            assert finish_times[i] <= elapsed + 1e-9

    def test_two_flow_crossover_times(self):
        """Analytic check of the classic two-flow case: equal rates until the
        small flow ends, then the big one gets the whole link."""
        bandwidth, small, big = 1e8, 2e8, 6e8
        platform = Platform("two-flows")
        a = platform.add_host("a", 1e9)
        b = platform.add_host("b", 1e9)
        link = platform.add_link("l", bandwidth, latency=0.0)
        platform.add_route(a, b, [link])
        finish = {}

        def process(name, size):
            yield platform.transfer_async(name, size, a, b)
            finish[name] = platform.engine.now

        platform.engine.add_process(process("small", small), "ps")
        platform.engine.add_process(process("big", big), "pb")
        run_engine(platform)
        assert finish["small"] == pytest.approx(2 * small / bandwidth, rel=1e-6)
        assert finish["big"] == pytest.approx((small + big) / bandwidth, rel=1e-6)


class TestDiskInvariants:
    @given(
        size=st.floats(1e5, 1e10),
        read_bw=st.floats(1e6, 1e9),
        latency=st.floats(0.0, 0.05),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_read_duration(self, size, read_bw, latency):
        platform = Platform("disk")
        host = platform.add_host("h", 1e9)
        disk = platform.add_disk(host, "d", read_bw, read_latency=latency)

        def process():
            yield disk.read_async("load", size)

        platform.engine.add_process(process(), "p")
        assert run_engine(platform) == pytest.approx(latency + size / read_bw, rel=1e-6)

    def test_mixed_read_write_share_the_device(self):
        """A read and a write issued together share the device capacity and
        finish no earlier than work conservation allows."""
        platform = Platform("mixed")
        host = platform.add_host("h", 1e9)
        disk = platform.add_disk(host, "d", read_bandwidth=1e8, write_bandwidth=1e8)

        def process():
            from repro.simgrid.process import AllOf

            yield AllOf([disk.read_async("r", 3e8), disk.write_async("w", 3e8)])

        platform.engine.add_process(process(), "p")
        elapsed = run_engine(platform)
        assert elapsed == pytest.approx(6e8 / 1e8, rel=1e-6)


# --------------------------------------------------------------------------- #
# multi-resource systems: incremental sharing against the full solve
# --------------------------------------------------------------------------- #
#
# Magnitudes are the case study's (1e6..1e10): every fair share and cap is
# then far above the solver's absolute tie tolerance (1e-12), so a solve of
# one component and a solve of everything make the same comparisons.
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0])


@st.composite
def activity_specs(draw, n_resources):
    resources = draw(st.lists(st.integers(0, n_resources - 1), max_size=3, unique=True))
    start = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0]))
    return {
        "amount": draw(st.sampled_from([0.0, 1e8, 3e8]) | st.floats(1e8, 1e10)),
        "usages": {index: draw(WEIGHTS) for index in resources},
        "rate_cap": draw(st.none() | st.floats(1e6, 1e9)),
        "latency": draw(st.sampled_from([0.0, 0.0, 0.5])),
        "start": start,
        "cancel": draw(st.none() | st.floats(0.0, 50.0).map(lambda delay: start + delay)),
    }


@st.composite
def sharing_systems(draw):
    capacities = draw(st.lists(st.floats(1e7, 1e9), min_size=2, max_size=8))
    specs = draw(st.lists(activity_specs(len(capacities)), min_size=1, max_size=30))
    # The whole list runs again at each offset: a wave that starts after the
    # previous one drained meets the configurations it met, under whatever
    # capacities the throttles (some between waves, on idle resources) left.
    waves = draw(st.lists(st.sampled_from([0.0, 3.0, 40.0, 400.0, 4000.0]), max_size=2))
    throttles = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 60.0) | st.sampled_from([39.0, 399.0, 3999.0]),
                st.integers(0, len(capacities) - 1),
                st.floats(1e7, 1e9),
            ),
            max_size=3,
        )
    )
    return capacities, specs, [0.0, *waves], throttles


class CheckedEngine(SimulationEngine):
    """Checks the fluid model's state each time the clock is about to move:
    the rates in force are the ones the coming interval is simulated with."""

    def __init__(self, resources):
        super().__init__()
        self.resources = resources
        self.work_done = {}
        self.clock = [0.0]

    def _advance_to(self, when):
        running = sorted(self._active, key=lambda a: a.uid)
        # Differential: solving only what an event touched left every
        # running activity at the rate a solve of all of them assigns.
        reference = solve_max_min(running)
        assert {a.name: a.rate for a in running} == {a.name: reference[a] for a in running}

        load = {resource: 0.0 for resource in self.resources}
        for activity in running:
            for resource, usage in activity.usages.items():
                if usage > 0:
                    load[resource] += activity.rate * usage
        for resource, used in load.items():
            assert used <= resource.capacity * (1 + 1e-9), f"{resource.name} above capacity"
        for activity in running:
            crossed = [r for r, usage in activity.usages.items() if usage > 0]
            if not crossed:
                expected = math.inf if activity.rate_cap is None else activity.rate_cap
                assert activity.rate == expected
                continue
            capped = activity.rate_cap is not None and activity.rate >= activity.rate_cap * (1 - 1e-9)
            saturated = any(load[r] >= r.capacity * (1 - 1e-9) for r in crossed)
            assert capped or saturated, f"{activity.name} could run faster"

        assert when >= self.clock[-1]
        self.clock.append(when)
        dt = when - self.now
        for activity in running:
            if activity.rate < math.inf:
                self.work_done[activity] = self.work_done.get(activity, 0.0) + activity.rate * dt
        return super()._advance_to(when)


class TestMultiResourceSharing:
    @given(system=sharing_systems(), pause=st.none() | st.floats(0.0, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_incremental_rates_equal_full_solve_and_obey_physics(self, system, pause):
        capacities, specs, waves, throttles = system
        resources = [Resource(f"r{i}", capacity) for i, capacity in enumerate(capacities)]
        engine = CheckedEngine(resources)
        activities = []
        for wave, offset in enumerate(waves):
            for index, spec in enumerate(specs):
                activity = Activity(
                    f"a{index}.{wave}",
                    spec["amount"],
                    {resources[i]: weight for i, weight in spec["usages"].items()},
                    rate_cap=spec["rate_cap"],
                    latency=spec["latency"],
                )
                activities.append(activity)
                start = offset + spec["start"]
                engine.schedule(start, lambda a=activity: engine.start_activity(a))
                if spec["cancel"] is not None:
                    cancel = offset + spec["cancel"]
                    engine.schedule(cancel, lambda a=activity: engine.cancel_activity(a))
        for when, index, capacity in throttles:
            engine.schedule(when, lambda i=index, c=capacity: resources[i].set_capacity(c))

        if pause is not None:
            engine.run(until=pause)
        end = engine.run()

        assert engine.clock == sorted(engine.clock)
        assert end == engine.now >= engine.clock[-1]
        for activity in activities:
            assert activity.is_terminated, f"{activity.name} never finished"
            assert activity.start_time <= activity.finish_time <= end
            done = engine.work_done.get(activity, 0.0)
            # Work conserved: what the rates delivered is the amount asked
            # for (up to the engine's completion tolerances), never more.
            assert done <= activity.amount * (1 + 1e-4) + 1e-3
            if activity.is_done and activity in engine.work_done:
                assert done == pytest.approx(activity.amount, rel=1e-4)
