#!/usr/bin/env python3
"""Reproduce the paper's headline result (Table III) end to end.

For each of the four Table II platform configurations, this example:

* evaluates the HUMAN (manual, incremental) calibration,
* runs the three automated calibration algorithms of the paper
  (RANDOM, GRID, GDFIX) under the same budget,
* prints the resulting MRE table next to the paper's reported values.

The budget is configurable with ``--evals`` (simulator invocations per
calibration); larger budgets sharpen the automated results.

Run it with:  python examples/hep_case_study.py [--evals 400] [--scale calib]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.experiments import table3_simulation_accuracy
from repro.analysis.tables import render_table
from repro.hepsim.groundtruth import GroundTruthGenerator

#: The values reported in Table III of the paper, for side-by-side reading.
PAPER_TABLE3 = {
    "HUMAN": {"SCFN": 23.21, "FCFN": 274.20, "SCSN": 18.48, "FCSN": 196.24},
    "RANDOM": {"SCFN": 22.07, "FCFN": 1.02, "SCSN": 14.69, "FCSN": 4.20},
    "GRID": {"SCFN": 24.10, "FCFN": 3.08, "SCSN": 16.72, "FCSN": 8.48},
    "GDFIX": {"SCFN": 22.90, "FCFN": 1.50, "SCSN": 15.83, "FCSN": 6.59},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--evals", type=int, default=300,
                        help="simulator invocations per automated calibration")
    parser.add_argument("--scale", default="calib", choices=("calib", "bench"),
                        help="scenario scale (see docs/architecture.md)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    generator = GroundTruthGenerator()
    result = table3_simulation_accuracy(
        budget_evaluations=args.evals,
        seed=args.seed,
        generator=generator,
        scale=args.scale,
    )
    print(result.to_text())

    print("\nPaper's Table III (for comparison — absolute numbers differ because the")
    print("ground truth here is a synthetic reference system, see docs/architecture.md):")
    headers = ["Method", "SCFN", "FCFN", "SCSN", "FCSN"]
    rows = [
        [method] + [f"{PAPER_TABLE3[method][p]:.2f}%" for p in ("SCFN", "FCFN", "SCSN", "FCSN")]
        for method in ("HUMAN", "RANDOM", "GRID", "GDFIX")
    ]
    print(render_table(headers, rows))

    print("\nShape check: the automated methods should be on par with HUMAN on the")
    print("SC platforms and dramatically better on the FC platforms, with GRID the")
    print("weakest automated method — as in the paper.")


if __name__ == "__main__":
    main()
