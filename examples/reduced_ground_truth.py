#!/usr/bin/env python3
"""Calibrate with less ground-truth data (Table V).

Collecting ground-truth executions of a production system is expensive, so
the paper asks: can a good calibration be computed from a *subset* of the
ICD values?  This example calibrates GDFIX on every 1-, 2- and 3-element
subset of {0.0, 0.3, 0.5, 0.7, 1.0}, always evaluating the result against
the full ICD grid, and reports the best / median / worst MRE per subset
size — reproducing the paper's observation that two or three *diverse* ICD
values are as good as (sometimes better than) the full grid.

Every calibration gets the same budget in simulated events: ``--evaluations``
evaluations with all five ICD values, so a smaller subset affords more of
its cheaper evaluations.

Run it with:  python examples/reduced_ground_truth.py [--evaluations 250]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.experiments import table5_icd_subsets
from repro.hepsim.groundtruth import GroundTruthGenerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--evaluations", type=int, default=250,
                        help="budget per calibration, in evaluations with all five ICD values")
    parser.add_argument("--platform", default="FCSN",
                        choices=("SCFN", "FCFN", "SCSN", "FCSN"))
    parser.add_argument("--algorithm", default="gdfix")
    args = parser.parse_args()

    generator = GroundTruthGenerator()
    result = table5_icd_subsets(
        platform=args.platform,
        algorithm=args.algorithm,
        budget_evaluations=args.evaluations,
        generator=generator,
    )
    print(result.to_text())

    print("\nPer-subset detail (ICD subset -> MRE when evaluated on the full grid):")
    for size, scores in result.extra["detail"].items():
        print(f"  subsets of size {size}:")
        for subset, mre, evaluations in scores:
            print(f"    {tuple(round(i, 1) for i in subset)}: {mre:.2f}% "
                  f"({evaluations} evaluations)")


if __name__ == "__main__":
    main()
