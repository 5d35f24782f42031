"""The performance benchmark: five workloads over the real program.

    python benchmarks/perf/run.py                      # all workloads, untraced + traced
    python benchmarks/perf/run.py --workload sim-serial --seed 3 --seconds 10 --trace 0
    python benchmarks/perf/run.py --check              # smoke: tiny counts, no timing claims
    python benchmarks/perf/run.py --compare A.json B.json

Runs from a clean checkout: no PYTHONPATH, no install, no network, nothing
beyond numpy/scipy.  Every metric is printed by name with its unit; with
``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) holding the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``).  The exit
status is non-zero when a check failed.  See README.md next to this file.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if not (REPO / "src" / "repro").is_dir():
    raise SystemExit(f"{HERE} benchmarks the program under {REPO / 'src'}, which is missing")
for entry in (str(REPO / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy  # noqa: E402
from repro.telemetry.profiling import (  # noqa: E402
    disable_simulation_profiling,
    enable_simulation_profiling,
)

from perf_layers import layer_metrics, probe_layers  # noqa: E402
from perf_tracing import Recorder  # noqa: E402
from perf_workloads import (  # noqa: E402
    WORKLOADS,
    Env,
    attempted,
    best_error,
    check_golden,
    check_first,
    check_repetition,
    cycles_ms,
    failures,
    golden_record,
    mean_evals_to_target,
    run_repetition,
    settled,
    signature,
    yardstick,
)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
GOLDEN_PATH = HERE / "golden.json"
GROUND_TRUTH_DIR = REPO / "src" / "repro" / "hepsim" / "data"
DEFAULT_SEED = 1
#: every mode ends, one way or the other, before the contract's 180 s
WATCHDOG_SECONDS = 160.0
#: a run is at least this many repetitions, however slow the box (two are
#: the least that can disagree)
MIN_REPETITIONS = {"full": 3, "check": 2}
#: extra set-ups (fresh processes) behind the median ``setup_s``
SETUP_CHILDREN = 2
#: fixed points behind the direct store probes
PROBE_POINTS = {"full": 300, "check": 20}


@dataclasses.dataclass
class Measurement:
    workload: str
    end_to_end: dict[str, float]
    layers: dict[str, float]  #: this workload's own traced repetition; empty untraced
    problems: list[str]
    attempted: int
    failed: int
    recorder: Recorder | None


def peak_rss_mb() -> float:
    """``ru_maxrss`` of the harness plus its largest waited-for child
    (the pool workers; the set-up children run after this is read)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_repetition(env: Env, recorder: Recorder) -> list:
    """One repetition under the span recorder, with the simulator's public
    phase profiling on (the ``simgrid.*_ms_per_eval`` split)."""
    enable_simulation_profiling()
    try:
        return run_repetition(env, "traced", recorder)
    finally:
        disable_simulation_profiling()


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str, scratch: Path,
    started: float,
) -> Measurement:
    """Set up, repeat the job list for ``seconds``, check, and (traced) run
    one more repetition under the span recorder."""
    env = Env(workload, seed, size, scratch / workload)
    setup_s = (time.perf_counter() - started) / statistics.median(yardstick() for _ in range(3))

    # Only the first repetition's histories are kept: memory must not grow
    # with the number of repetitions a faster box fits into the run.
    first: list = []
    expected: list = []  # the first repetition's trajectory signatures
    names = [job.name for job in env.jobs]
    walls, raw_walls, slowdowns, p50s, p90s = ({name: [] for name in names} for _ in range(5))
    problems: list[str] = []
    repetitions = failed = 0
    begin = time.perf_counter()
    while repetitions < MIN_REPETITIONS[size] or time.perf_counter() - begin < seconds:
        outcomes = run_repetition(env, repetitions)
        env.discard(repetitions)
        if not first:
            first, expected = outcomes, [signature(o) for o in outcomes]
        problems += check_repetition(env, outcomes, repetitions, expected)
        failed += failures(outcomes)
        for outcome in outcomes:
            name = outcome.job.name
            walls[name].append(outcome.steady_wall)
            raw_walls[name].append(outcome.wall)
            slowdowns[name].append(outcome.slowdown)
            gaps = cycles_ms(outcome) or [math.nan]
            p50s[name].append(float(numpy.percentile(gaps, 50)) / outcome.slowdown)
            p90s[name].append(float(numpy.percentile(gaps, 90)) / outcome.slowdown)
        repetitions += 1
    rss = peak_rss_mb()

    # One run of an identical seeded job list is not a measurement on a
    # shared box.  Every job is timed on its own, at the undisturbed speed
    # (see perf_workloads.yardstick), and a repetition's wall-clock is the sum
    # of the jobs' medians over the repetitions.  Cycle percentiles are taken
    # per job and repetition, then the median over the repetitions (pooling a
    # job's repetitions put the p90 on the edge of the disturbed samples and
    # tripled its spread; pooling jobs puts the median on a boundary between
    # two populations), then the mean over the jobs, weighted by evaluations.
    wall_s = sum(statistics.median(samples) for samples in walls.values())
    per_repetition = sum(job.budget - 1 for job in env.jobs)

    def cycle_ms(percentiles: dict[str, list[float]]) -> float:
        return sum(
            statistics.median(percentiles[job.name]) * (job.budget - 1) for job in env.jobs
        ) / per_repetition

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "evals_per_s": settled(first) / wall_s,
        "cycle_ms_p50": cycle_ms(p50s),
        "cycle_ms_p90": cycle_ms(p90s),
        "peak_rss_mb": rss,
    }
    as_measured = {
        "bench.raw_wall_s": sum(statistics.median(samples) for samples in raw_walls.values()),
        "bench.slowdown": statistics.median(x for samples in slowdowns.values() for x in samples),
        "bench.cycle_samples": per_repetition * repetitions,
    }
    print(f"{workload}: {repetitions} repetitions of {settled(first)} evaluations; as measured "
          + ", ".join(f"{name} {value:.4g}" for name, value in as_measured.items()))

    layers: dict[str, float] = {}
    recorder = None
    if trace:
        recorder = Recorder()
        traced = traced_repetition(env, recorder)
        env.discard("traced")
        # the traced repetition must reproduce the untraced ones
        problems += check_repetition(env, traced, "traced", expected)
        layers = layer_metrics(recorder, traced)
        layers.update(as_measured)
        layers["bench.trace_overhead_share"] = (
            sum(o.steady_wall for o in traced) - wall_s
        ) / wall_s
        layers["bench.best_error"] = best_error(traced)
        layers["bench.evals_to_target"] = mean_evals_to_target(env, traced)

    problems += check_first(env, first)
    if size == "full" and seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_PATH.read_text())["workloads"].get(workload, {})
        problems += check_golden(env, first, golden)
    return Measurement(
        workload, end_to_end, layers, problems,
        attempted=attempted(env) * repetitions,
        failed=failed,
        recorder=recorder,
    )


def tour_layers(seed: int, scratch: Path, skip: str, trace_path: Path) -> dict[str, float]:
    """Layer metrics of one smoke-size traced repetition of every workload
    but ``skip``: the layers ``skip`` never calls are still measured, on a
    fixed small input, in every traced run."""
    layers: dict[str, float] = {}
    for workload in WORKLOADS:
        if workload == skip:
            continue
        env = Env(workload, seed, "check", scratch / "tour" / workload)
        recorder = Recorder()
        layers.update(layer_metrics(recorder, traced_repetition(env, recorder)))
        recorder.write_jsonl(trace_path, f"tour:{workload}")
    return layers


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def named(kind: str, values: dict[str, float], problems: list[str]) -> dict[str, dict]:
    """``values`` as the BENCHMARK.json metrics of ``kind``, with units; a
    metric that is missing or not a number is a failed check."""
    out = {}
    for spec in SPEC[kind]:
        value = values.get(spec["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {spec['name']} was not measured (got {value!r})")
            value = 0.0
        out[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return out


def print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, entry in metrics.items():
        print(f"{workload:<13} {name:<42} {entry['value']:>16.6g} {entry['unit']}")


def environment(seed: int) -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "seed": seed,
        "loadavg_at_start": os.getloadavg(),
    }


def new_ground_truth(before: set[str]) -> list[str]:
    """Only committed ground truth may be used: a run that generated a
    ``gt-*.json`` would leave ``git status`` dirty."""
    created = sorted({p.name for p in GROUND_TRUTH_DIR.glob("gt-*.json")} - before)
    return [f"the run generated ground truth {name} under {GROUND_TRUTH_DIR}" for name in created]


def start_watchdog() -> threading.Timer:
    """A hang becomes a failed run and a non-zero exit, never a stall."""

    def abort() -> None:
        print(f"watchdog: no result after {WATCHDOG_SECONDS:.0f} s, giving up", file=sys.stderr)
        for child in multiprocessing.active_children():
            child.kill()
        os._exit(3)

    timer = threading.Timer(WATCHDOG_SECONDS, abort)
    timer.daemon = True
    timer.start()
    return timer


# --------------------------------------------------------------------- #
# modes
# --------------------------------------------------------------------- #
def child_command(args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
            "--out", str(args.out), *extra]


def run_workload(args: argparse.Namespace) -> int:
    """One workload, as the benchmark contract runs it."""
    ground_truth = {p.name for p in GROUND_TRUTH_DIR.glob("gt-*.json")}
    trace_path = args.out / "trace.jsonl"
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=args.out) as scratch:
        scratch = Path(scratch)
        result = measure(
            args.workload, args.seed, args.seconds / 2 if args.trace else args.seconds,
            bool(args.trace), "full", scratch, PROCESS_START,
        )
        if args.trace:
            trace_path.unlink(missing_ok=True)
            layers = tour_layers(args.seed, scratch, args.workload, trace_path)
            layers.update(result.layers)
            layers.update(probe_layers(scratch, PROBE_POINTS["full"]))
            result.recorder.write_jsonl(trace_path, args.workload)
            metrics = named("per_layer", layers, result.problems)
        else:
            # set up again in fresh processes: one set-up is one sample
            setups = [result.end_to_end["setup_s"]]
            for _ in range(SETUP_CHILDREN):
                child = subprocess.run(
                    child_command(args, "--workload", args.workload, "--setup-only"),
                    capture_output=True, text=True, timeout=60, check=True,
                )
                setups.append(float(child.stdout.strip().splitlines()[-1]))
            result.end_to_end["setup_s"] = statistics.median(setups)
            metrics = named("end_to_end", result.end_to_end, result.problems)
    result.problems += new_ground_truth(ground_truth)

    print_metrics(args.workload, metrics)
    for problem in result.problems:
        print(f"FAILED CHECK {args.workload}: {problem}")
    summary = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed), "problems": result.problems, **summary,
    }
    (args.out / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(summary))
    return 0 if summary["correct"] and not result.failed else 1


def run_setup_only(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=args.out) as scratch:
        Env(args.workload, args.seed, "full", Path(scratch) / args.workload)
        print(time.perf_counter() - PROCESS_START)
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a process of its own
    (so set-up time and peak memory are that workload's alone)."""
    record = {"environment": environment(args.seed), "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = record["workloads"][workload] = {"correct": True}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            child = subprocess.run(
                child_command(args, "--workload", workload, "--seconds", str(args.seconds),
                              "--trace", str(trace)),
                stdout=subprocess.PIPE, text=True, timeout=WATCHDOG_SECONDS + 20,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0:
                status = 1
            try:
                summary = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"FAILED {workload} --trace {trace}: no result (exit {child.returncode})")
                entry["correct"] = False
                continue
            entry[kind] = summary["metrics"]
            entry["correct"] = entry["correct"] and summary["correct"]
            entry.setdefault("attempted", summary["attempted"])
            entry.setdefault("failed", summary["failed"])
    path = args.out / "results.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return status


def run_check(seed: int, out: Path) -> dict[str, dict]:
    """Smoke mode: all five workloads at tiny counts, traced, in this
    process.  Asserts nothing about time; returns, per workload, every
    metric of BENCHMARK.json plus the failed checks."""
    ground_truth = {p.name for p in GROUND_TRUTH_DIR.glob("gt-*.json")}
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=out) as scratch:
        scratch = Path(scratch)
        results = [
            measure(workload, seed, 0.0, True, "check", scratch, time.perf_counter())
            for workload in WORKLOADS
        ]
        probes = probe_layers(scratch, PROBE_POINTS["check"])
    tour: dict[str, float] = {}
    for result in results:
        tour.update(result.layers)
    report = {}
    for result in results:
        problems = result.problems + new_ground_truth(ground_truth)
        if result.failed:
            problems.append(f"{result.failed} of {result.attempted} evaluations failed")
        report[result.workload] = {
            "end_to_end": named("end_to_end", result.end_to_end, problems),
            "per_layer": named("per_layer", {**tour, **result.layers, **probes}, problems),
            "problems": problems,
        }
    return report


def run_check_cli(args: argparse.Namespace) -> int:
    report = run_check(args.seed, args.out)
    status = 0
    for workload, entry in report.items():
        print_metrics(workload, entry["end_to_end"])
        print_metrics(workload, entry["per_layer"])
        for problem in entry["problems"]:
            print(f"FAILED CHECK {workload}: {problem}")
            status = 1
    print("check failed" if status else f"check passed: {len(report)} workloads")
    return status


def write_golden(args: argparse.Namespace) -> int:
    """Re-pin golden.json at the default seed (after a deliberate behaviour change)."""
    pinned = {}
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=args.out) as scratch:
        for workload in WORKLOADS:
            env = Env(workload, DEFAULT_SEED, "full", Path(scratch) / workload)
            outcomes = run_repetition(env, 0)
            pinned[workload] = golden_record(env, outcomes)
    GOLDEN_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "workloads": pinned}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
    return 0


def compare(first: Path, second: Path) -> int:
    """Per workload and end-to-end metric: both values, by how much the
    second is worse than the first, the bound, and within / outside."""
    a, b = (json.loads(path.read_text())["workloads"] for path in (first, second))
    outside = 0
    print(f"{'workload':<13} {'metric':<14} {'first':>14} {'second':>14} {'worse by':>9} "
          f"{'bound':>6}")
    for workload in a:
        for spec in SPEC["end_to_end"]:
            try:
                before = a[workload]["end_to_end"][spec["name"]]["value"]
                after = b[workload]["end_to_end"][spec["name"]]["value"]
            except KeyError:
                print(f"{workload:<13} {spec['name']:<14} missing from one of the files   outside")
                outside += 1
                continue
            change = (after - before) / before
            worse = change if spec["better"] == "lower" else -change
            verdict = "within" if worse <= spec["bound"] else "outside"
            outside += verdict == "outside"
            print(f"{workload:<13} {spec['name']:<14} {before:>14.6g} {after:>14.6g} "
                  f"{worse:>+9.1%} {spec['bound']:>6.0%}  {verdict}")
    return 1 if outside else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long one run repeats its job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="where results, trace.jsonl and scratch stores go")
    parser.add_argument("--check", action="store_true", help="smoke mode, no timing claims")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"),
                        help="compare two results.json files against the bounds")
    parser.add_argument("--write-golden", action="store_true", help="re-pin golden.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is None and not (args.check or args.write_golden):
        return run_all(args)  # its children carry their own watchdogs
    watchdog = start_watchdog()
    try:
        if args.check:
            return run_check_cli(args)
        if args.write_golden:
            return write_golden(args)
        if args.setup_only:
            return run_setup_only(args)
        return run_workload(args)
    finally:
        watchdog.cancel()


if __name__ == "__main__":
    sys.exit(main())
