#!/usr/bin/env python3
"""Benchmark — AsyncCalibrator vs BatchCalibrator vs the serial driver.

The batch driver runs lock-step: every ``workers``-wide batch waits for
its slowest evaluation.  Real simulator invocations have heavy-tailed
wall-clock (the paper's own speed/accuracy numbers vary by orders of
magnitude across the parameter space), so the pool idles most of the
time.  The asynchronous driver asks speculatively whenever a worker
frees up and tells results out of order, which should recover that idle
time.  This benchmark runs the hepsim case-study objective under an
equal evaluation budget three ways — serial / batched / async — with a
deterministic heavy-tailed (Pareto) latency model on every simulator
invocation, and checks that

* all three drivers perform exactly the evaluation budget,
* the async driver visits exactly the serial point set (same points and
  values; completion order may differ for async-native samplers), and —
  run with ``--ordered`` — reproduces the serial trajectory byte for
  byte through ask-order tells,
* the async run beats the batched run by >= 1.3x wall-clock at 4 workers
  (skipped on machines with fewer than 2 usable cores unless latency is
  simulated, where sleeps overlap regardless of cores).

Run the full benchmark (acceptance numbers)::

    PYTHONPATH=src python benchmarks/bench_async_calibrator.py

or the CI smoke variant (small budget, no timing assertion — machines in
CI are too noisy to gate on speedups, correctness is still asserted)::

    PYTHONPATH=src python benchmarks/bench_async_calibrator.py --smoke
"""

import argparse
import os
import random
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import (  # noqa: E402
    AsyncCalibrator,
    BatchCalibrator,
    Calibrator,
    EvaluationBudget,
)
from repro.hepsim import Scenario  # noqa: E402
from repro.hepsim.calibration import CaseStudyProblem  # noqa: E402
from repro.hepsim.groundtruth import GroundTruthGenerator  # noqa: E402
from repro.hepsim.scenario import REDUCED_ICD_VALUES  # noqa: E402
from repro.telemetry import configure_logging, console, get_logger  # noqa: E402

log = get_logger("bench.async")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget, correctness checks only (for CI)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--evaluations", type=int, default=None)
    parser.add_argument("--platform", default="FCSN")
    parser.add_argument("--scale", default=None, choices=[None, "tiny", "calib", "bench"])
    parser.add_argument("--algorithm", default="random",
                        help="an async-native sampler (random/sobol/lhs/tpe) "
                             "shows the full win; ordered algorithms go through "
                             "ask-order tells")
    parser.add_argument("--ordered", action="store_true",
                        help="force ask-order tells and assert "
                             "the async history is byte-identical to serial")
    parser.add_argument("--mode", default=None, choices=[None, "process", "thread", "serial"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--latency", type=float, default=None, metavar="MS",
                        help="median of the heavy-tailed per-invocation latency "
                             "in milliseconds (default: 40 full / 0 smoke); the "
                             "latency is a deterministic function of the "
                             "candidate, so every driver pays the same cost for "
                             "the same point")
    parser.add_argument("--tail", type=float, default=1.4,
                        help="Pareto tail index of the latency model (smaller = "
                             "heavier tail; must be > 1)")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("-q", "--quiet", action="count", default=0)
    return parser.parse_args(argv)


class HeavyTailLatencyObjective:
    """A picklable objective with deterministic heavy-tailed latency.

    Models the paper's external simulators: most invocations are quick,
    a few are very slow (Pareto-distributed factor over the median).  The
    sleep is keyed on the candidate, so serial, batched and async runs of
    the same trajectory pay identical per-point costs and wall-clock
    differences are pure scheduling.
    """

    def __init__(self, inner, median_seconds: float, tail_index: float) -> None:
        if tail_index <= 1.0:
            raise ValueError("the Pareto tail index must be > 1")
        self.inner = inner
        self.median_seconds = float(median_seconds)
        self.tail_index = float(tail_index)

    def latency(self, values) -> float:
        rng = random.Random(repr(sorted((k, float(v)) for k, v in values.items())))
        u = rng.random()
        # Pareto quantile with median self.median_seconds, capped at 50x.
        factor = (1.0 - u) ** (-1.0 / self.tail_index) / 2.0 ** (1.0 / self.tail_index)
        return self.median_seconds * min(factor, 50.0)

    def __call__(self, values):
        if self.median_seconds > 0:
            time.sleep(self.latency(values))
        return self.inner(values)


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    evaluations = args.evaluations or (16 if args.smoke else 64)
    scale = args.scale or "tiny"
    workers = 2 if args.smoke and args.workers > 2 else args.workers
    latency_ms = args.latency if args.latency is not None else (0.0 if args.smoke else 40.0)

    scenario = getattr(Scenario, scale)(args.platform).with_icds(tuple(REDUCED_ICD_VALUES))
    problem = CaseStudyProblem.create(scenario, generator=GroundTruthGenerator())
    objective = HeavyTailLatencyObjective(
        problem.objective, latency_ms / 1000.0, args.tail
    )
    # Sleeps release the GIL, so threads overlap them even on one core —
    # the right model for external (subprocess / I/O bound) simulators.
    mode = args.mode or ("thread" if latency_ms > 0 else "process")
    budget = lambda: EvaluationBudget(evaluations)  # noqa: E731
    ordered = True if args.ordered else None

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

    t0 = time.perf_counter()
    asynchronous = AsyncCalibrator(
        problem.space, objective, algorithm=args.algorithm,
        budget=budget(), seed=args.seed, workers=workers, mode=mode,
        ordered_tells=ordered,
    ).run()
    async_elapsed = time.perf_counter() - t0

    speedup_serial = serial_elapsed / async_elapsed if async_elapsed else float("inf")
    speedup_batch = batched_elapsed / async_elapsed if async_elapsed else float("inf")
    console(f"AsyncCalibrator vs BatchCalibrator vs serial — {args.algorithm} on "
          f"{args.platform}/{scale}, N = {evaluations}, heavy-tailed latency "
          f"median {latency_ms:g} ms (tail index {args.tail:g})")
    console(f"  serial   : {serial.evaluations:4d} evaluations  "
          f"{serial_elapsed:7.2f} s   best {serial.best_value:.3f}")
    console(f"  batched  : {batched.evaluations:4d} evaluations  "
          f"{batched_elapsed:7.2f} s   best {batched.best_value:.3f}  "
          f"({workers} workers, {mode})")
    console(f"  async    : {asynchronous.evaluations:4d} evaluations  "
          f"{async_elapsed:7.2f} s   best {asynchronous.best_value:.3f}  "
          f"({workers} workers, {mode}"
          + (", ordered tells)" if args.ordered else ")"))
    console(f"  speedup  : {speedup_batch:.2f}x over batched, "
          f"{speedup_serial:.2f}x over serial")

    failures = []
    for name, result in (("serial", serial), ("batched", batched), ("async", asynchronous)):
        if result.evaluations != evaluations:
            failures.append(f"budget mismatch: {name} performed {result.evaluations} "
                            f"of {evaluations} evaluations")
    serial_points = [(e.unit, e.value) for e in serial.history]
    async_points = [(e.unit, e.value) for e in asynchronous.history]
    if args.ordered:
        if async_points != serial_points:
            failures.append("trajectory mismatch: ordered tells must replay "
                            "the serial history byte for byte")
    elif sorted(async_points) != sorted(serial_points):
        failures.append("point-set mismatch: the async driver visited different "
                        "points than the serial driver")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    can_time = latency_ms > 0 or (cores or 1) >= 2
    if not args.smoke and not can_time:
        log.warning("  NOTE: only %s usable core(s) and no simulated latency — "
                    "the timing gate is skipped; rerun with --latency 40 (or on "
                    "a multicore machine)", cores)
    if not args.smoke and can_time and async_elapsed > batched_elapsed / 1.3:
        failures.append(
            f"speedup too low: async {async_elapsed:.2f}s > batched "
            f"{batched_elapsed:.2f}s / 1.3"
        )
    for failure in failures:
        console(f"  FAIL: {failure}")
    if not failures:
        console("  OK" + (" (smoke)" if args.smoke else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
