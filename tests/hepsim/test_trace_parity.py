"""Bit-exact parity of the simulator with the committed reference traces.

``data/trace_parity.json`` was captured (by ``data/generate_trace_parity.py``)
on the last commit whose engine re-solved every running activity on every
rate change.  Equality here is ``float.hex`` equality of every job's start
and end time: an optimisation of the engine or the sharing solver may not
move a single bit of a simulated result, nor the ``events`` /
``sharing_updates`` counts the benchmark's golden file pins.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.hepsim.platforms import PLATFORM_CONFIGS, CalibrationValues
from repro.hepsim.scenario import Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.simgrid.activity import Activity

DATA = Path(__file__).parent / "data"
# The generator's own record builder: fixture and test cannot drift apart.
_spec = importlib.util.spec_from_file_location(
    "generate_trace_parity", DATA / "generate_trace_parity.py"
)
generate_trace_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_trace_parity)

LABELS = ["human", "random0", "random1", "random2", "extreme"]


@pytest.fixture(scope="module")
def reference():
    scenarios = json.loads((DATA / "trace_parity.json").read_text())["scenarios"]
    return {(s["scale"], s["platform"]): s["points"] for s in scenarios}


def resimulate(scale, platform, point):
    values = CalibrationValues.from_dict(
        {name: float.fromhex(value) for name, value in point["values"].items()}
    )
    simulator = HEPSimulator(getattr(Scenario, scale)(platform))
    return generate_trace_parity.simulate_point(simulator, values)


@pytest.mark.parametrize("platform", sorted(PLATFORM_CONFIGS))
@pytest.mark.parametrize("scale", ["tiny", "calib"])
def test_simulation_is_bit_identical_to_reference(reference, scale, platform):
    points = reference[scale, platform]
    assert [point["label"] for point in points] == LABELS
    for point in points:
        assert resimulate(scale, platform, point) == point["runs"], point["label"]


def test_results_do_not_depend_on_the_activity_uid_offset(reference):
    """``Activity.uid`` is a process-global counter, so the uids of one
    simulation depend on what ran before it.  Shifting them must not move a
    bit: no float operation may be ordered by hashing or by absolute uid."""
    for _ in range(10_007):
        Activity("throwaway", 0.0, {})
    point = reference["calib", "FCSN"][LABELS.index("extreme")]
    assert resimulate("calib", "FCSN", point) == point["runs"]
