#!/usr/bin/env python3
"""Ask/tell calibration: hand-rolled driver loops, batching, resume.

Every calibration algorithm is a *proposal machine*: ``ask`` for
candidates, evaluate them however you like, ``tell`` the results back.
This example drives algorithms without any Calibrator at all:

1. a minimal serial loop (what ``Calibrator.run()`` does internally);
2. a batched loop evaluating a whole CMA-ES generation per round (what
   ``BatchCalibrator`` does with a process pool);
3. resume by replay: log the told (candidate, value) pairs, re-feed them
   to a fresh, identically seeded instance and finish the identical
   trajectory — no search state is ever serialised.

Run it with:  python examples/ask_tell_calibration.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import Parameter, ParameterSpace, get_algorithm


def make_problem():
    """A 3-parameter toy problem (unit-space quadratic bowl at 0.37)."""
    space = ParameterSpace([Parameter(f"p{i}", 2.0**10, 2.0**30) for i in range(3)])

    def objective(values):
        unit = space.to_unit_array(values)
        return float(np.sum((unit - 0.37) ** 2)) * 100.0

    return space, objective


def evaluate(space, objective, candidate):
    """Unit-cube candidate -> objective value (what a driver does per candidate)."""
    return objective(space.from_unit_array(space.clip_unit(candidate)))


def serial_loop() -> None:
    """The paper's blocking loop, spelled out in ask/tell verbs."""
    space, objective = make_problem()
    algorithm = get_algorithm("annealing")  # any registry name works
    algorithm.setup(space)
    rng = np.random.default_rng(0)

    best = float("inf")
    evaluations = 0
    while evaluations < 100 and not algorithm.done():
        for candidate in algorithm.ask(rng, 1):
            value = evaluate(space, objective, candidate)
            algorithm.tell([candidate], [value])
            evaluations += 1
            best = min(best, value)
    print(f"serial ask/tell : {evaluations} evaluations, best {best:.4f}")


def batched_loop() -> None:
    """Whole CMA-ES generations per round — the BatchCalibrator shape.

    ``ask(rng, n)`` treats ``n`` as capacity: asking for a big batch
    drains the whole pending generation, which a real driver hands to a
    process pool (``repro.core.parallel.BatchCalibrator``) or a cluster.
    """
    space, objective = make_problem()
    # get_algorithm forwards constructor kwargs — no manual import needed.
    algorithm = get_algorithm("cmaes", population_size=8)
    algorithm.setup(space)
    rng = np.random.default_rng(0)

    best = float("inf")
    evaluations = 0
    while evaluations < 96:
        generation = algorithm.ask(rng, 64)  # the full pending generation
        values = [evaluate(space, objective, c) for c in generation]  # parallel here
        algorithm.tell(generation, values)
        evaluations += len(generation)
        best = min(best, min(values))
        print(f"  generation of {len(generation):2d} -> best so far {best:.5f}")
    print(f"batched ask/tell: {evaluations} evaluations, best {best:.5f}")


def checkpoint_and_resume() -> None:
    """Stop after 40 evaluations, replay them into a fresh instance, finish
    identically.

    An algorithm is a deterministic function of its seeded rng and the
    results it is told, so the told pairs are the whole checkpoint: a
    fresh instance asked with a fresh rng of the same seed proposes the
    same candidates again, and telling it the logged values (instead of
    re-running the objective) brings it to the interrupted state.
    """
    space, objective = make_problem()

    def drive(algorithm, rng, n, log=None):
        trace = []
        while len(trace) < n and not algorithm.done():
            for candidate in algorithm.ask(rng, 1):
                value = evaluate(space, objective, candidate)
                if log is not None:
                    log.append((candidate.tolist(), value))
                algorithm.tell([candidate], [value])
                trace.append(value)
                if len(trace) == n:
                    break
        return trace

    # Uninterrupted reference run.
    reference = get_algorithm("gdfix")
    reference.setup(space)
    full_trace = drive(reference, np.random.default_rng(7), 100)

    # Interrupted run: log every told pair of the first 40 evaluations.
    first = get_algorithm("gdfix")
    first.setup(space)
    told = []
    head = drive(first, np.random.default_rng(7), 40, log=told)
    tell_log = json.dumps(told)  # JSON lines of this are what the service spools

    # A fresh process would start here: replay the log, then continue.
    resumed = get_algorithm("gdfix")
    resumed.setup(space)
    rng = np.random.default_rng(7)
    for unit, value in json.loads(tell_log):
        (candidate,) = resumed.ask(rng, 1)
        if candidate.tolist() != unit:
            raise ValueError("the tell log belongs to another run")
        resumed.tell([candidate], [value])  # no objective call
    tail = drive(resumed, rng, 60)

    identical = head + tail == full_trace
    print(f"resume by replay: 40 + 60 evaluations, trajectory identical: {identical}")
    assert identical


def main() -> None:
    serial_loop()
    batched_loop()
    checkpoint_and_resume()


if __name__ == "__main__":
    main()
