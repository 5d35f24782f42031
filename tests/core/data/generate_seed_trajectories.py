"""Capture reference trajectories for the serial-parity fixture.

Run from the repository root with ``PYTHONPATH=src``::

    python tests/core/data/generate_seed_trajectories.py              # every entry
    python tests/core/data/generate_seed_trajectories.py --only cmaes # one entry

The parity test in ``tests/core/test_ask_tell.py`` compares every
algorithm's serial trajectory with ``seed_trajectories.json`` byte for
byte.  Thirteen entries date from the pre-ask/tell seed implementation
(commit c0f3f5b), so they prove the ask/tell base class reproduces the
original blocking-loop trajectories.  The ``cmaes`` entry was re-captured
when CMA-ES's step-size update moved from ``np.exp`` to ``math.exp``:
numpy's AVX-512 ``exp`` rounds differently from libm on some inputs, so
the old entry held only on AVX-512 CPUs.  The current fixture holds on
every x86 SIMD level, which ``tests/core/test_parity_portability.py``
checks.

Do not regenerate an entry unless its trajectory change is intentional.
``--only NAME`` re-captures that one entry and writes nothing, exiting
non-zero, if any other entry would change.
"""

import argparse
import json
import os
import sys

import numpy as np

from repro.core import ALGORITHMS, Calibrator, EvaluationBudget, Parameter, ParameterSpace

SEED = 7
EVALUATIONS = 300
DIMENSION = 3
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seed_trajectories.json")


def make_space():
    return ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(DIMENSION)])


def objective_for(space):
    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0 + float(
            np.sum(1.0 - np.cos(5.0 * np.pi * (unit - 0.37)))
        )

    return objective


def capture(name):
    space = make_space()
    result = Calibrator(
        space,
        objective_for(space),
        algorithm=name,
        budget=EvaluationBudget(EVALUATIONS),
        seed=SEED,
    ).run()
    print(f"{name:12s} {len(result.history)} evaluations, best {result.best_value:.6f}")
    return [{"unit": list(e.unit), "value": e.value} for e in result.history]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", metavar="NAME", choices=sorted(ALGORITHMS),
        help="re-capture this entry only; fail if any other entry would change",
    )
    args = parser.parse_args(argv)
    out = {"seed": SEED, "evaluations": EVALUATIONS, "dimension": DIMENSION, "trajectories": {}}
    for name in sorted(ALGORITHMS):
        out["trajectories"][name] = capture(name)
    if args.only is not None:
        with open(PATH) as handle:
            committed = json.load(handle)
        changed = [
            name for name, trajectory in out["trajectories"].items()
            if name != args.only and committed["trajectories"].get(name) != trajectory
        ]
        if changed:
            print(f"not written: entries other than {args.only} would change: {changed}")
            return 1
        committed["trajectories"][args.only] = out["trajectories"][args.only]
        out = committed
    with open(PATH, "w") as handle:
        json.dump(out, handle)
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
