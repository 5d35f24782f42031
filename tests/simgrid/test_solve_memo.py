"""The engine's store of solved components.

That a reused rate is never stale is held, at every clock advance of random
systems, by ``test_fluid_invariants.TestMultiResourceSharing``.  Here: what
an entry is keyed by, who owns the store, and that it keeps being hit.
"""

import pytest

import repro.simgrid.engine as engine_module
from repro.hepsim import CaseStudyProblem, Scenario
from repro.simgrid import SimulationEngine
from repro.simgrid.activity import Activity
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import solve_max_min


@pytest.fixture
def solves(monkeypatch):
    """The member lists handed to the real solver, in call order."""
    calls = []

    def counting(activities):
        calls.append(list(activities))
        return solve_max_min(activities)

    monkeypatch.setattr(engine_module, "solve_max_min", counting)
    return calls


def one_after_the_other(engine, make, count, gap=100.0):
    activities = [make(index) for index in range(count)]
    for index, activity in enumerate(activities):
        engine.schedule(index * gap, lambda a=activity: engine.start_activity(a))
    return activities


def test_a_configuration_met_again_is_not_solved_again(solves):
    engine = SimulationEngine()
    disk = Resource("disk", 10.0)
    reads = one_after_the_other(engine, lambda i: Activity(f"read{i}", 50.0, {disk: 1.0}), 5)
    engine.run()
    assert [read.duration() for read in reads] == [5.0] * 5
    assert engine.sharing_update_count == 5
    assert len(solves) == 1


def test_capacity_change_on_an_idle_resource_is_seen_by_the_next_lookup(solves):
    """No activity is registered when the capacity changes, so nothing tells
    the engine: the stored entry must notice by itself."""
    engine = SimulationEngine()
    disk = Resource("disk", 10.0)
    first, second = one_after_the_other(
        engine, lambda i: Activity(f"read{i}", 50.0, {disk: 1.0}), 2
    )
    engine.schedule(50.0, lambda: disk.set_capacity(25.0))
    engine.run()
    assert first.duration() == 5.0
    assert second.duration() == 2.0
    assert len(solves) == 2


def test_capacity_change_under_running_activities_is_seen(solves):
    engine = SimulationEngine()
    disk = Resource("disk", 10.0)
    (read,) = one_after_the_other(engine, lambda i: Activity("read", 50.0, {disk: 1.0}), 1)
    engine.schedule(1.0, lambda: disk.set_capacity(20.0))
    assert engine.run() == 3.0
    assert read.is_done
    assert len(solves) == 2


def test_zero_weight_usage_keys_differently(solves):
    """The key is everything the solver is handed, not what it ends up using
    of it: an entry with a zero weight on ``other`` is another entry."""
    engine = SimulationEngine()
    disk, other = Resource("disk", 10.0), Resource("other", 10.0)
    usages = [{disk: 1.0}, {disk: 1.0, other: 0.0}, {disk: 1.0}, {disk: 1.0, other: 0.0}]
    reads = one_after_the_other(engine, lambda i: Activity(f"read{i}", 50.0, usages[i]), 4)
    engine.run()
    assert reads[0]._share_key != reads[1]._share_key
    assert reads[0]._share_key == reads[2]._share_key
    assert [read.duration() for read in reads] == [5.0] * 4
    assert len(solves) == 2


def test_rate_cap_is_part_of_the_key(solves):
    engine = SimulationEngine()
    disk = Resource("disk", 10.0)
    caps = [None, 5.0, None, 5.0]
    reads = one_after_the_other(
        engine, lambda i: Activity(f"read{i}", 50.0, {disk: 1.0}, rate_cap=caps[i]), 4
    )
    engine.run()
    assert [read.duration() for read in reads] == [5.0, 10.0, 5.0, 10.0]
    assert len(solves) == 2


def test_engines_do_not_share_entries(solves):
    """Two engines over the same resources (a platform re-parameterised in
    place between two runs) each solve for themselves."""
    disk = Resource("disk", 10.0)
    durations = []
    engines = [SimulationEngine(), SimulationEngine()]
    for engine, capacity in zip(engines, (10.0, 20.0), strict=True):
        disk.set_capacity(capacity)
        assert not engine._solved
        (read,) = one_after_the_other(engine, lambda i: Activity("read", 50.0, {disk: 1.0}), 1)
        engine.run()
        durations.append(read.duration())
        assert len(engine._solved) == 1
    assert durations == [5.0, 2.5]
    assert len(solves) == 2
    assert engines[0]._solved is not engines[1]._solved


def test_hit_rate_of_a_case_study_evaluation_does_not_rot(solves):
    """One calib FCSN evaluation at the HUMAN calibration updates rates 1,153
    times and, when this was written, called the solver 97 times: a run meets
    few distinct components.  The bound has ~50 % headroom."""
    problem = CaseStudyProblem.create(Scenario.calib("FCSN"))
    trace = problem.objective.simulate(problem.human_values().to_dict())
    updates = sum(trace.stats(icd)["sharing_updates"] for icd in problem.objective.icd_values)
    assert updates > 1000
    assert 0 < len(solves) <= 150
