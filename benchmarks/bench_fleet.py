#!/usr/bin/env python3
"""Benchmark — the distributed worker fleet vs the serial driver.

A fleet calibration routes every candidate through the task board, an
HTTP round-trip and the store's lease protocol before a worker computes
it.  That machinery buys process-level fault tolerance; this benchmark
measures what it costs and asserts what it must preserve:

* the fleet run performs exactly the evaluation budget, with **zero**
  duplicate simulator invocations across however many workers raced for
  the points (the lease protocol is the only arbiter, and it is enough),
* ordered tells make the fleet trajectory byte-identical to the serial
  run, whatever order the workers finish in,
* the per-evaluation dispatch overhead (board + HTTP + store) is
  reported; there is no hard timing gate — loopback HTTP against a
  microsecond objective is all overhead by construction, and the win
  this path exists for (many processes, slow simulators, crash
  tolerance) is exercised in ``tests/integration/test_fleet.py``.

Run the full benchmark::

    PYTHONPATH=src python benchmarks/bench_fleet.py

or the CI smoke variant (small budget, same correctness assertions)::

    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke
"""

import argparse
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import Calibrator, EvaluationBudget  # noqa: E402
from repro.hepsim import Scenario  # noqa: E402
from repro.hepsim.calibration import CaseStudyProblem  # noqa: E402
from repro.hepsim.groundtruth import GroundTruthGenerator  # noqa: E402
from repro.hepsim.scenario import REDUCED_ICD_VALUES  # noqa: E402
from repro.service import CalibrationRequest, InMemoryStore  # noqa: E402
from repro.service.fleet import (  # noqa: E402
    FleetClient,
    FleetFrontend,
    FleetServer,
    FleetWorker,
)
from repro.telemetry import configure_logging, console  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget, correctness checks only (for CI)")
    parser.add_argument("--workers", type=int, default=2,
                        help="fleet worker threads racing for the tasks")
    parser.add_argument("--evaluations", type=int, default=None)
    parser.add_argument("--platform", default="FCSN")
    parser.add_argument("--scale", default="tiny", choices=["tiny", "calib", "bench"])
    parser.add_argument("--algorithm", default="random")
    parser.add_argument("--max-pending", type=int, default=4,
                        help="candidates each job holds open on the board")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("-q", "--quiet", action="count", default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    evaluations = args.evaluations or (12 if args.smoke else 48)

    scenario = getattr(Scenario, args.scale)(args.platform).with_icds(
        tuple(REDUCED_ICD_VALUES)
    )
    problem = CaseStudyProblem.create(scenario, generator=GroundTruthGenerator())

    def request():
        return CalibrationRequest(
            space=problem.space,
            objective=problem.objective,  # never runs server-side in a fleet job
            fingerprint=f"bench-fleet-{args.platform}-{args.scale}",
            algorithm=args.algorithm,
            budget=EvaluationBudget(evaluations),
            seed=args.seed,
        )

    t0 = time.perf_counter()
    serial = Calibrator(
        problem.space, problem.objective, algorithm=args.algorithm,
        budget=EvaluationBudget(evaluations), seed=args.seed,
    ).run()
    serial_elapsed = time.perf_counter() - t0

    store = InMemoryStore()
    server = FleetServer(store=store, workers=1, max_pending=args.max_pending)
    frontend = FleetFrontend(server, port=0).start()
    client = FleetClient(frontend.url, timeout=30.0)
    workers = [
        # A worker's one-process pool pickles the objective it resolves.
        FleetWorker(client, store, resolver=lambda spec: problem.objective, poll=0.1)
        for _ in range(args.workers)
    ]
    threads = [
        threading.Thread(target=w.run, kwargs={"max_idle": 2.0}, daemon=True)
        for w in workers
    ]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    job = server.submit(request())
    job.wait(600)
    fleet_elapsed = time.perf_counter() - t0
    for thread in threads:
        thread.join(timeout=60)
    frontend.close()
    server.shutdown(wait=False)

    overhead_ms = (fleet_elapsed - serial_elapsed) / evaluations * 1000.0
    console(f"fleet vs serial — {args.algorithm} on {args.platform}/{args.scale}, "
            f"N = {evaluations}, {args.workers} worker(s), "
            f"max_pending {args.max_pending}")
    console(f"  serial   : {serial.evaluations:4d} evaluations  "
            f"{serial_elapsed:7.2f} s   best {serial.best_value:.3f}")
    console(f"  fleet    : {job.evaluations:4d} evaluations  "
            f"{fleet_elapsed:7.2f} s   best "
            f"{job.result.best_value if job.result else float('nan'):.3f}")
    console(f"  overhead : {overhead_ms:+.2f} ms per evaluation "
            f"(board + HTTP + lease round-trips)")

    failures = []
    if job.result is None:
        failures.append(f"the fleet job did not finish: {job.error}")
    else:
        if job.evaluations != evaluations:
            failures.append(f"budget mismatch: fleet performed {job.evaluations} "
                            f"of {evaluations} evaluations")
        # The simulator runs in the workers' pool processes, so duplicates
        # are counted from what the parent sees: the workers' evaluations
        # and the distinct points they stored.
        settled = sum(w.stats["evaluations"] for w in workers)
        if settled != evaluations:
            failures.append(f"duplicate evaluations: the workers ran the simulator "
                            f"{settled} times for {evaluations} points")
        if len(store) != evaluations:
            failures.append(f"store mismatch: {len(store)} stored points, "
                            f"expected {evaluations}")
        serial_points = [(e.unit, e.value) for e in serial.history]
        fleet_points = [(e.unit, e.value) for e in job.result.history]
        if fleet_points != serial_points:
            failures.append("trajectory mismatch: a fleet run must replay the "
                            "serial history byte for byte")
    for failure in failures:
        console(f"  FAIL: {failure}")
    if not failures:
        console("  OK" + (" (smoke)" if args.smoke else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
