#!/usr/bin/env python3
"""Explore the simulation speed / accuracy trade-off (Table VI).

The case-study simulator's block size ``B`` and buffer size ``b`` control
how many discrete events are simulated per job (``O(s/B + s/b)`` for ``s``
input bytes).  Small values make the simulation slower but more
fine-grained; large values make it fast but coarse.  The paper's finding
is that — under a fixed calibration budget in simulated events — the
*coarsest* granularity gives the best accuracy, because the calibration can
explore the parameter space much more thoroughly.

Run it with:  python examples/speed_accuracy_tradeoff.py [--evaluations 250]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.experiments import table6_speed_accuracy
from repro.hepsim.groundtruth import GroundTruthGenerator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--evaluations", type=int, default=250,
                        help="budget per calibration, in evaluations at the preset granularity")
    parser.add_argument("--platform", default="FCSN",
                        choices=("SCFN", "FCFN", "SCSN", "FCSN"))
    args = parser.parse_args()

    generator = GroundTruthGenerator()
    result = table6_speed_accuracy(
        platform=args.platform,
        budget_evaluations=args.evaluations,
        generator=generator,
    )
    print(result.to_text())

    detail = result.extra["detail"]
    print("\nEvaluations that fit in the simulated-event budget at each granularity:")
    for key, cell in detail.items():
        per_algo = ", ".join(
            f"{name}={int(cell[f'{name}_evaluations'])}"
            for name in ("gdfix", "grid", "random")
            if f"{name}_evaluations" in cell
        )
        print(f"  B/b = {key}: {per_algo}")


if __name__ == "__main__":
    main()
