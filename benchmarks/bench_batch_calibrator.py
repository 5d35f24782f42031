#!/usr/bin/env python3
"""Benchmark — BatchCalibrator wall-clock vs the serial ask/tell driver.

The ask/tell redesign lets :class:`~repro.core.parallel.BatchCalibrator`
drive *any* algorithm through a persistent process pool with k-wide asks.
This benchmark runs the hepsim case-study objective under an equal
evaluation budget twice — serial :class:`~repro.core.calibrator.Calibrator`
vs batched with ``--workers`` processes — and checks that

* both drivers visit exactly the same points in the same order for a
  generation-batched algorithm (the protocol guarantees it), and
* the batched run completes in at most half the serial wall-clock
  (the paper's one-simulation-per-core protocol actually paying off).

Run the full benchmark (acceptance numbers)::

    PYTHONPATH=src python benchmarks/bench_batch_calibrator.py

or the CI smoke variant (small budget, no timing assertion — machines in
CI are too noisy to gate on speedups, correctness is still asserted)::

    PYTHONPATH=src python benchmarks/bench_batch_calibrator.py --smoke
"""

import argparse
import os
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import BatchCalibrator, Calibrator, EvaluationBudget  # noqa: E402
from repro.hepsim import Scenario  # noqa: E402
from repro.hepsim.calibration import CaseStudyProblem  # noqa: E402
from repro.hepsim.groundtruth import GroundTruthGenerator  # noqa: E402
from repro.hepsim.scenario import REDUCED_ICD_VALUES  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget, correctness checks only (for CI)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--evaluations", type=int, default=None)
    parser.add_argument("--platform", default="FCSN")
    parser.add_argument("--scale", default=None, choices=[None, "tiny", "calib", "bench"])
    parser.add_argument("--algorithm", default="lhs")
    parser.add_argument("--mode", default=None, choices=[None, "process", "thread", "serial"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--simulated-latency", type=float, default=0.0, metavar="MS",
                        help="add MS milliseconds of sleep to every simulator "
                             "invocation, modelling the external (subprocess / "
                             "I/O-bound) simulators of the paper; combined with "
                             "--mode thread this demonstrates the driver's "
                             "concurrency even on a single-core machine")
    return parser.parse_args(argv)


class LatencyWrappedObjective:
    """A picklable objective that sleeps before delegating — a stand-in for
    the paper's minutes-scale external simulators, whose wall-clock is spent
    outside the Python interpreter."""

    def __init__(self, inner, latency_seconds: float) -> None:
        self.inner = inner
        self.latency_seconds = float(latency_seconds)

    def __call__(self, values):
        time.sleep(self.latency_seconds)
        return self.inner(values)


def main(argv=None) -> int:
    args = parse_args(argv)
    evaluations = args.evaluations or (16 if args.smoke else 128)
    scale = args.scale or ("tiny" if args.smoke else "calib")
    workers = 2 if args.smoke and args.workers > 2 else args.workers
    mode = args.mode or "process"

    scenario = getattr(Scenario, scale)(args.platform).with_icds(tuple(REDUCED_ICD_VALUES))
    problem = CaseStudyProblem.create(scenario, generator=GroundTruthGenerator())
    objective = problem.objective
    if args.simulated_latency > 0:
        objective = LatencyWrappedObjective(objective, args.simulated_latency / 1000.0)
        if args.mode is None:
            mode = "thread"  # sleeps release the GIL; threads overlap them
    budget = lambda: EvaluationBudget(evaluations)  # noqa: E731

    t0 = time.perf_counter()
    serial = Calibrator(
        problem.space, objective, algorithm=args.algorithm,
        budget=budget(), seed=args.seed,
    ).run()
    serial_elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = BatchCalibrator(
        problem.space, objective, algorithm=args.algorithm,
        budget=budget(), seed=args.seed, workers=workers, mode=mode,
    ).run()
    batched_elapsed = time.perf_counter() - t0

    speedup = serial_elapsed / batched_elapsed if batched_elapsed else float("inf")
    print(f"BatchCalibrator vs serial driver — {args.algorithm} on "
          f"{args.platform}/{scale}, N = {evaluations}")
    print(f"  serial   : {serial.evaluations:4d} evaluations  "
          f"{serial_elapsed:7.2f} s   best {serial.best_value:.3f}")
    print(f"  batched  : {batched.evaluations:4d} evaluations  "
          f"{batched_elapsed:7.2f} s   best {batched.best_value:.3f}  "
          f"({workers} workers, {mode})")
    print(f"  speedup  : {speedup:.2f}x")

    failures = []
    if serial.evaluations != evaluations or batched.evaluations != evaluations:
        failures.append("budget mismatch: both drivers must perform the exact budget")
    serial_points = [(e.unit, e.value) for e in serial.history]
    batched_points = [(e.unit, e.value) for e in batched.history]
    if serial_points != batched_points:
        failures.append("trajectory mismatch: batched driver diverged from serial points")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    can_time = args.simulated_latency > 0 or (cores or 1) >= 2
    if not args.smoke and not can_time:
        print(f"  NOTE: only {cores} usable core(s) — CPU-bound speedup is not "
              "measurable here; rerun with --simulated-latency 100 (or on a "
              "multicore machine) for the timing gate")
    if not args.smoke and can_time and batched_elapsed > 0.5 * serial_elapsed:
        failures.append(
            f"speedup too low: batched {batched_elapsed:.2f}s > 0.5 * serial "
            f"{serial_elapsed:.2f}s"
        )
    for failure in failures:
        print(f"  FAIL: {failure}")
    if not failures:
        print("  OK" + (" (smoke)" if args.smoke else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
