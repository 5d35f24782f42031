"""Capture bit-exact simulator outputs for the trace-parity fixture.

Run from the repository root (PYTHONPATH=src) to regenerate
``trace_parity.json``.  The checked-in fixture was captured at commit
aa9d105, the last one whose engine re-solved every running activity on
every rate change, so the parity test in
``tests/hepsim/test_trace_parity.py`` proves that solving only the resource
component an event touches reproduces those simulations bit for bit
(``float.hex``).  Do not regenerate it from a later tree unless a change of
simulated results is intentional.

Per scenario (4 platforms x tiny/calib, the scenario's own ICD grid) it
simulates the HUMAN calibration, three seeded random points of the
calibration space and one extreme-disparity point (a multi-GB/s page cache
next to a ~6 MB/s WAN, the case the engine's clock-resolution clause
exists for), and records every job's start and end time plus the engine's
``events`` and ``sharing_updates`` counts.
"""

import json
import os

import numpy as np

from repro.hepsim import GroundTruthGenerator, Scenario
from repro.hepsim.calibration import CaseStudyProblem, build_parameter_space
from repro.hepsim.platforms import PLATFORM_CONFIGS, CalibrationValues
from repro.hepsim.simulator import HEPSimulator

SEED = 13
RANDOM_POINTS = 3
EXTREME = CalibrationValues(
    core_speed=1.9e9,
    disk_bandwidth=4.0e7,
    lan_bandwidth=1.25e9,
    wan_bandwidth=6.0e6,
    page_cache_bandwidth=1.7e10,
)


def points_for(scenario, generator, rng):
    """The named calibration points simulated for one scenario."""
    problem = CaseStudyProblem.create(scenario, generator=generator)
    space = build_parameter_space()
    points = {"human": problem.human_values()}
    for index in range(RANDOM_POINTS):
        points[f"random{index}"] = CalibrationValues.from_dict(space.sample(rng))
    points["extreme"] = EXTREME
    return points


def simulate_point(simulator, values):
    """One record per ICD value: hex job times and the engine's counters."""
    runs = []
    for icd in simulator.scenario.icd_values:
        results, stats = simulator.simulate(values, icd)
        runs.append(
            {
                "icd": icd,
                "events": int(stats["events"]),
                "sharing_updates": int(stats["sharing_updates"]),
                "jobs": [
                    [r.name, r.node_name, r.start_time.hex(), r.end_time.hex()] for r in results
                ],
            }
        )
    return runs


def main():
    generator = GroundTruthGenerator()
    rng = np.random.default_rng(SEED)
    out = {"seed": SEED, "scenarios": []}
    for scale in ("tiny", "calib"):
        for platform_name in sorted(PLATFORM_CONFIGS):
            scenario = getattr(Scenario, scale)(platform_name)
            simulator = HEPSimulator(scenario)
            points = []
            for label, values in points_for(scenario, generator, rng).items():
                points.append(
                    {
                        "label": label,
                        "values": {k: v.hex() for k, v in values.to_dict().items()},
                        "runs": simulate_point(simulator, values),
                    }
                )
            out["scenarios"].append({"scale": scale, "platform": platform_name, "points": points})
            print(f"{scale:5s} {platform_name} {len(points)} points")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_parity.json")
    with open(path, "w") as handle:
        json.dump(out, handle, separators=(",", ":"))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
