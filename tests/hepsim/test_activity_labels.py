"""The names the case-study simulator gives its activities.

The simulator hands each activity the parts of its name and the activity
formats them only when something reads :attr:`Activity.name` (a tracer, an
error message).  What is read must be exactly the string the simulator
used to format eagerly: the digests below were recorded from that version.
"""

import hashlib

import pytest

import repro.hepsim.simulator as simulator_module
from repro.hepsim.groundtruth import ReferenceSystemConfig
from repro.hepsim.scenario import Scenario
from repro.simgrid import SimulationEngine
from repro.simgrid.activity import Activity
from repro.simgrid.errors import InvalidStateError
from repro.simgrid.resources import Resource
from repro.simgrid.tracing import ActivityTracer

#: platform -> (activities traced at ICD 0.5, sha256 of their names in trace order)
EXPECTED = {
    "FCSN": (80, "45234e3f62452147675ad347bbb9cea327e6de5855729619b7453fc758e31504"),
    "SCFN": (80, "f90f8cfc72fbf9d84e8386834add4f6938e4ef7190d125cf4f45ebbe10b0800d"),
}


def traced_names(monkeypatch, platform):
    tracer = ActivityTracer(keep_zero_work=True)
    build_platform = simulator_module.build_platform

    def build_and_trace(*args, **kwargs):
        built = build_platform(*args, **kwargs)
        built.platform.engine.add_observer(tracer)
        return built

    monkeypatch.setattr(simulator_module, "build_platform", build_and_trace)
    scenario = Scenario.tiny(platform)
    simulator = simulator_module.HEPSimulator(scenario)
    simulator.simulate(ReferenceSystemConfig().true_values(scenario.config), 0.5)
    return [record.name for record in tracer.records]


@pytest.mark.parametrize("platform", sorted(EXPECTED))
def test_traced_names_are_the_eagerly_formatted_ones(monkeypatch, platform):
    names = traced_names(monkeypatch, platform)
    assert all(type(name) is str for name in names)
    count, digest = EXPECTED[platform]
    assert len(names) == count
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == digest
    cache = "pc" if platform.startswith("FC") else "hdd"
    for name in (
        f"job001:f0:b0:{cache}-read",
        "job001:f0:b0:compute",
        "job001:f2:b0:c0:remote-read",
        "job001:f2:b0:c1:wan",
        f"job002:f2:b0:c1:{cache}-ingest",
        "job000:output",
        "job003:output:write",
    ):
        assert name in names


def test_a_name_is_formatted_once_and_kept():
    activity = Activity(("{}:f{}:b{}:c{}:wan", "job7", 3, 0, 1), 1.0, {})
    assert activity.name == "job7:f3:b0:c1:wan"
    assert activity.name is activity.name
    assert Activity("plain", 1.0, {}).name == "plain"


def test_errors_carry_the_formatted_name():
    engine = SimulationEngine()
    disk = Resource("disk", 10.0)
    activity = Activity(("{}:f{}:b{}:compute", "job7", 3, 0), 5.0, {disk: 1.0})
    engine.start_activity(activity)
    with pytest.raises(InvalidStateError, match=r"activity 'job7:f3:b0:compute' already started"):
        engine.start_activity(activity)
    with pytest.raises(InvalidStateError, match=r"activity 'job7:f3:b0:wan' has negative amount"):
        Activity(("{}:f{}:b{}:wan", "job7", 3, 0), -1.0, {})
