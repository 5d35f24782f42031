"""The five workloads: their job lists, the job runner and the checks.

A workload is a list of jobs generated from ``--seed``; the program only
ever sees the generated ``(algorithm, seed, budget, scenario)`` inputs.  One
*repetition* runs the list once, one job after the other (a closed loop with
one client; pools have at most ``WORKERS`` workers).  The same function runs
a job untraced and traced — tracing only swaps proxies in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import os
import random
import shutil
import time
import traceback
from pathlib import Path

from repro.core.algorithms import ALGORITHMS, get_algorithm
from repro.core.async_driver import AsyncCalibrator
from repro.core.budget import EvaluationBudget
from repro.core.calibrator import Calibrator
from repro.core.parallel import BatchCalibrator
from repro.core.result import CalibrationResult
from repro.hepsim.calibration import CaseStudyProblem, build_parameter_space
from repro.hepsim.scenario import Scenario
from repro.service.jobs import CalibrationRequest
from repro.service.server import CalibrationServer
from repro.service.store import open_store

from perf_tracing import (
    Recorder,
    TracedServer,
    TracedStore,
    sim_error,
    trace_algorithm,
    trace_sim_objective,
)

#: why each exists is recorded in BENCHMARK.json and README.md
WORKLOADS = ("sim-serial", "sim-pool", "driver-noop", "store-fill", "store-replay")

#: pool width; ``nproc`` is 2 on the box the sizes were chosen on
WORKERS = 2
#: a served job that takes longer than this is a failed job
JOB_TIMEOUT = 60.0

#: evaluations per job.  ``full`` keeps a job at or under about half a second
#: there (the box slows down in episodes of about a second, so a median over
#: many short jobs is steadier than one over few long ones) and a repetition
#: near one second, so a 15 s run holds ten or more; ``check`` is the smoke size.
SIZES = {
    "full": {
        "sim-serial": {"scale": "calib", "evals": 8},
        "sim-pool": {"evals": 40},
        "driver-noop": {"random": 600, "cmaes": 600, "gdfix": 600, "tpe": 150, "bayesian": 30},
        "store": {"jsonl": 900, "sqlite": 300},
    },
    "check": {
        "sim-serial": {"scale": "tiny", "evals": 4},
        "sim-pool": {"evals": 12},
        "driver-noop": {"random": 60, "cmaes": 60, "gdfix": 60, "tpe": 30, "bayesian": 12},
        "store": {"jsonl": 45, "sqlite": 15},
    },
}

#: the closed-form objective: squared log2-distance to this point
NOOP_CENTRE = (31.0, 27.0, 33.0, 30.0)
#: its evaluations-to-target threshold (random search needs a few hundred draws)
NOOP_TARGET = 5.0
NOOP_FINGERPRINT = "perf-noop"


@dataclasses.dataclass(frozen=True)
class Job:
    name: str  #: unique within the workload; the trace's job identifier
    driver: str  #: serial | batch | async | server
    algorithm: str
    seed: int
    budget: int
    objective: str  #: "<scale>:<platform>" or "noop"
    mode: str = "thread"  #: pool mode of the batch/async drivers
    store: str | None = None  #: jsonl | sqlite, for served jobs

    @property
    def async_native(self) -> bool:
        return ALGORITHMS[self.algorithm].supports_async_tell

    @property
    def seed_ordered(self) -> bool:
        """Whether the history *order* depends only on the seed: always,
        except for out-of-order tells of an async-native algorithm."""
        return self.driver != "async" or not self.async_native

    @property
    def seed_determined(self) -> bool:
        """Whether the evaluated points depend only on the seed (``random``
        draws them up front, so even out-of-order tells evaluate the same set)."""
        return self.seed_ordered or self.algorithm == "random"


@dataclasses.dataclass
class Outcome:
    job: Job
    result: CalibrationResult | None
    error: str | None = None
    calls: int | None = None  #: objective calls (closed-form objective only)
    store_stats: dict[str, int] | None = None
    wall: float = 0.0  #: seconds from the job's start to its result, as measured
    slowdown: float = 1.0  #: how much the box's slowness stretched the job, see :func:`yardstick`

    @property
    def steady_wall(self) -> float:
        """The wall-clock at the box's undisturbed speed."""
        return self.wall / self.slowdown


class NoopObjective:
    """Closed-form, microsecond-cost, picklable objective that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, values: dict[str, float]) -> float:
        self.calls += 1
        return sum(
            (math.log2(value) - centre) ** 2
            for value, centre in zip(values.values(), NOOP_CENTRE, strict=True)
        )


def make_jobs(workload: str, seed: int, size: str) -> list[Job]:
    """The workload's job list for ``--seed``.  Jobs that must walk the same
    trajectory under different drivers share an algorithm seed."""
    sizes = SIZES[size]
    # the two store workloads submit the same jobs: one fills, one replays
    rng = random.Random(f"{'store' if workload.startswith('store') else workload}:{seed}")

    def seeds(names):
        return {name: rng.randrange(2**31) for name in names}

    if workload == "sim-serial":
        scale, evals = sizes[workload]["scale"], sizes[workload]["evals"]
        return [
            Job(f"{platform}-random", "serial", "random", job_seed, evals, f"{scale}:{platform}")
            for platform, job_seed in seeds(("FCSN", "SCFN")).items()
        ]
    if workload == "sim-pool":
        by_algorithm = seeds(("random", "cmaes", "de"))
        return [
            Job(f"{driver}-{algorithm}", driver, algorithm, job_seed,
                sizes[workload]["evals"], "tiny:FCSN", mode="process")
            for driver in ("batch", "async")
            for algorithm, job_seed in by_algorithm.items()
        ]
    if workload == "driver-noop":
        by_algorithm = seeds(sizes[workload])
        return [
            Job(f"{driver}-{algorithm}", driver, algorithm, by_algorithm[algorithm], evals, "noop")
            for driver in ("serial", "batch", "async")
            for algorithm, evals in sizes[workload].items()
        ]
    if workload in ("store-fill", "store-replay"):
        by_backend = seeds(sizes["store"])
        return [
            Job(f"{backend}-random", "server", "random", by_backend[backend], evals, "noop",
                store=backend)
            for backend, evals in sizes["store"].items()
        ]
    raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")


def scenario_for(key: str) -> Scenario:
    scale, platform = key.split(":")
    # calib keeps the paper's full 11-ICD grid, tiny its own 0/0.5/1
    return {"calib": Scenario.calib, "tiny": Scenario.tiny}[scale](platform)


class Env:
    """What a workload's set-up leaves behind: the job list, the problems
    (committed ground truth only) and, for ``store-replay``, filled stores."""

    def __init__(self, workload: str, seed: int, size: str, root: Path) -> None:
        self.workload = workload
        self.size = size
        self.root = root
        self.jobs = make_jobs(workload, seed, size)
        self.space = build_parameter_space(include_page_cache=False)
        self.problems = {
            key: CaseStudyProblem.create(scenario_for(key))
            for key in sorted({job.objective for job in self.jobs} - {"noop"})
        }
        self._human: dict[str, dict[str, float]] = {}
        #: store-replay: the cold fill every repetition must reproduce
        self.cold: list[Outcome] = []
        if workload == "store-replay":
            self.cold = run_repetition(self, "cold")

    def store_path(self, job: Job, repetition: object) -> Path:
        tag = "cold" if self.workload == "store-replay" else f"rep-{repetition}"
        return self.root / tag / ("store.db" if job.store == "sqlite" else "store.jsonl")

    def discard(self, repetition: object) -> None:
        """Drop a repetition's fresh stores (outside the timed region)."""
        if self.workload == "store-fill":
            shutil.rmtree(self.root / f"rep-{repetition}", ignore_errors=True)

    def human(self, key: str) -> dict[str, float]:
        """MRE and simulated statistics of the scenario's HUMAN calibration."""
        if key not in self._human:
            problem = self.problems[key]
            objective = problem.objective
            trace = objective.simulate(problem.human_values().to_dict())
            stats = [trace.stats(icd) for icd in objective.icd_values]
            self._human[key] = {
                "mre": sim_error(objective, trace),
                "events": sum(s["events"] for s in stats),
                "sharing_updates": sum(s["sharing_updates"] for s in stats),
                "simulated_makespan": max(s["simulated_makespan"] for s in stats),
            }
        return self._human[key]

    def target(self, job: Job) -> float:
        return NOOP_TARGET if job.objective == "noop" else self.human(job.objective)["mre"]


# --------------------------------------------------------------------- #
# running
# --------------------------------------------------------------------- #
RUN_SPAN = {
    "serial": "core.calibrator.run",
    "server": "core.calibrator.run",
    "batch": "core.parallel.run",
    "async": "core.async_driver.run",
}


def _span(recorder: Recorder | None, name: str):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def run_job(env: Env, job: Job, repetition: object, recorder: Recorder | None) -> Outcome:
    if job.objective == "noop":
        space, objective = env.space, NoopObjective()
    else:
        problem = env.problems[job.objective]
        space, objective = problem.space, problem.objective
    function = objective
    algorithm = get_algorithm(job.algorithm)
    if recorder is not None:
        trace_algorithm(algorithm, recorder)
        # Pool drivers run the objective on other threads or in other
        # processes; there its busy time comes from Evaluation.duration.
        if job.driver in ("serial", "server"):
            if job.objective == "noop":
                function = recorder.wrap("bench.objective", objective)
            else:
                function = trace_sim_objective(objective, recorder)
    settings = {
        "algorithm": algorithm, "budget": EvaluationBudget(job.budget), "seed": job.seed,
    }
    if job.driver == "server":
        return _serve(env, job, repetition, recorder, space, function, objective, settings)
    if job.driver == "serial":
        driver = Calibrator(space, function, **settings)
    elif job.driver == "batch":
        driver = BatchCalibrator(space, function, workers=WORKERS, mode=job.mode, **settings)
    else:
        driver = AsyncCalibrator(space, function, workers=WORKERS, mode=job.mode, **settings)
    with _span(recorder, RUN_SPAN[job.driver]):
        result = driver.run()
    return Outcome(job, result, calls=getattr(objective, "calls", None))


def _serve(env, job, repetition, recorder, space, function, objective, settings) -> Outcome:
    """One job through ``CalibrationServer(workers=1)`` + ``StoreBackedCache``."""
    path = env.store_path(job, repetition)
    opener = open_store if recorder is None else recorder.wrap("service.store.open", open_store)
    with opener(path) as store:
        if recorder is None:
            server = CalibrationServer(store=store, workers=1)
        else:
            server = TracedServer(recorder, store=TracedStore(store, recorder), workers=1)
        with server, _span(recorder, "service.server.job"):
            handle = server.submit(
                CalibrationRequest(space, function, NOOP_FINGERPRINT, **settings)
            )
            finished = handle.wait(JOB_TIMEOUT)
        stats = store.stats()
    error = None
    if handle.result is None:
        error = handle.error or ("timed out" if not finished else "no result")
    return Outcome(job, handle.result, error=error, calls=objective.calls, store_stats=stats)


#: seconds :func:`yardstick` takes on the undisturbed box the sizes were chosen on
YARDSTICK_NOMINAL = 0.007


def yardstick() -> float:
    """How slow the box is right now: a fixed interpreter-bound loop, as a
    multiple of its undisturbed time.

    The box is shared.  Its speed changes by a quarter to a half in episodes
    of a second and drifts over minutes, and every workload here is
    interpreter-bound, so it slows down by the same factor as this loop
    (measured: dividing each job's wall-clock by the yardsticks taken right
    before and after it cut the spread between 15 s runs from 8-17 % to
    3-5 %).  Timing metrics are therefore reported at the undisturbed speed;
    the raw values and the slowdown are reported next to them.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - start) / YARDSTICK_NOMINAL


@contextlib.contextmanager
def one_cpu(job: Job):
    """Keep a job whose threads share the interpreter lock on one CPU.

    Such a job gains nothing from a second CPU, but where the kernel puts
    its threads decides whether every hand-over is a cross-CPU wake-up: for
    about a minute after a process-pool run, the thread-pool jobs measured
    2.3-2.6x slower unpinned and unchanged pinned.  Threads started while
    pinned inherit the mask.  Process-pool jobs keep every CPU.
    """
    if job.mode == "process" or not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_repetition(
    env: Env, repetition: object, recorder: Recorder | None = None
) -> list[Outcome]:
    """Run the job list once, timing each job and the yardstick around it."""
    outcomes = []
    before = yardstick()
    for job in env.jobs:
        root = recorder.job_root(job.name) if recorder is not None else contextlib.nullcontext()
        cpu = sum(os.times()[:4])  # this process and the pool children it has joined
        start = time.perf_counter()
        with root, one_cpu(job):
            try:
                outcome = run_job(env, job, repetition, recorder)
            except Exception:  # a job that raised is a failed job, not a crashed benchmark
                outcome = Outcome(job, None, error=traceback.format_exc())
        outcome.wall = time.perf_counter() - start
        cpu = min(sum(os.times()[:4]) - cpu, outcome.wall)
        after = yardstick()
        # Only the time a CPU worked for the job scales with the box's speed;
        # the rest (SQLite waiting on the disk) counts as measured.
        outcome.slowdown = outcome.wall / (cpu / ((before + after) / 2) + outcome.wall - cpu)
        before = after
        outcomes.append(outcome)
    return outcomes


# --------------------------------------------------------------------- #
# reading outcomes
# --------------------------------------------------------------------- #
def settled(outcomes: list[Outcome]) -> int:
    """Evaluations settled: dispatches plus recorded hits."""
    return sum(len(o.result.history) for o in outcomes if o.result is not None)


def attempted(env: Env) -> int:
    return sum(job.budget for job in env.jobs)


def failures(outcomes: list[Outcome]) -> int:
    """Evaluations recorded failed, plus evaluations missing against the
    budget (a job that raised or timed out misses its whole budget)."""
    count = 0
    for outcome in outcomes:
        if outcome.result is None:
            count += outcome.job.budget
            continue
        history = outcome.result.history
        count += sum(1 for e in history if e.failed) + abs(outcome.job.budget - len(history))
    return count


def cycles_ms(outcome: Outcome) -> list[float]:
    """Per-evaluation cycles of one job: the gaps between consecutive
    ``finished_at`` stamps — ask + claim + evaluate + put + tell under the
    serial driver, the inter-completion gap under a pool."""
    if outcome.result is None:
        return []
    stamps = [e.finished_at for e in outcome.result.history]
    return [(later - earlier) * 1e3 for earlier, later in zip(stamps, stamps[1:])]


def best_error(outcomes: list[Outcome]) -> float:
    values = [o.result.best_value for o in outcomes if o.result is not None]
    return sum(values) / len(values) if values else float("nan")


def evals_to_target(env: Env, outcome: Outcome) -> int:
    """1-based index of the first evaluation whose best-so-far meets the
    job's target; a miss is charged the whole budget."""
    target = env.target(outcome.job)
    for index, best in enumerate(outcome.result.history.best_so_far(), start=1):
        if best <= target:
            return index
    return outcome.job.budget


def mean_evals_to_target(env: Env, outcomes: list[Outcome]) -> float:
    counted = [
        evals_to_target(env, o) for o in outcomes if o.result is not None and o.job.seed_ordered
    ]
    return sum(counted) / len(counted) if counted else float("nan")


def signature(outcome: Outcome) -> str | None:
    """sha256 of a job's trajectory (unit points and values), when the seed
    determines it: in order, or as a sorted set for out-of-order ``random``.

    Numbers are hashed at ten significant digits, so a last-bit difference
    between two builds of libm does not read as a behaviour change.
    """
    if outcome.result is None or not outcome.job.seed_determined:
        return None
    rows = [
        " ".join(f"{x:.9e}" for x in (*evaluation.unit, evaluation.value))
        for evaluation in outcome.result.history
    ]
    if not outcome.job.seed_ordered:
        rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
def serial_reference(env: Env, job: Job) -> Outcome:
    """The same algorithm, seed, budget and objective under the serial driver."""
    return run_job(env, dataclasses.replace(job, driver="serial", mode="thread"), "ref", None)


def check_first(env: Env, first: list[Outcome]) -> list[str]:
    """Checks made once per run, on the first repetition.  Returns what failed."""
    problems = [f"{o.job.name}: {o.error}" for o in first if o.error is not None]
    # ordered algorithms under a pool replay the serial driver's history
    serial = {
        (o.job.algorithm, o.job.objective): o for o in first if o.job.driver == "serial"
    }
    for outcome in first:
        job = outcome.job
        if job.driver not in ("batch", "async") or job.async_native:
            continue
        key = (job.algorithm, job.objective)
        if key not in serial:
            serial[key] = serial_reference(env, job)
        if signature(outcome) != signature(serial[key]):
            problems.append(f"{job.name}: history differs from the serial driver's")
    return problems


def check_repetition(
    env: Env, outcomes: list[Outcome], label: object, expected: list[str | None]
) -> list[str]:
    """Checks made on every repetition, for any seed: it walks the first
    one's trajectories (``expected``, their signatures), the store holds each
    point once, and the objective ran as often as it had to.  Returns what
    failed."""
    problems = []
    if [signature(o) for o in outcomes] != expected:
        problems.append(f"repetition {label} walked a different trajectory than the first")
    for outcome, cold in zip(outcomes, env.cold or outcomes, strict=True):
        if outcome.store_stats is None or outcome.result is None:
            continue
        job, history = outcome.job, outcome.result.history
        hits = sum(1 for e in history if e.cached)
        if outcome.store_stats["entries"] != job.budget:
            problems.append(
                f"{job.name}: store holds {outcome.store_stats['entries']} entries, "
                f"budget is {job.budget}"
            )
        if env.workload == "store-fill" and (outcome.calls != job.budget or hits):
            problems.append(
                f"{job.name}: {outcome.calls} objective calls and {hits} hits "
                f"for a cold budget of {job.budget}"
            )
        if env.workload == "store-replay":
            if outcome.calls or hits != job.budget:
                problems.append(
                    f"{job.name}: replay made {outcome.calls} objective calls, {hits} hits"
                )
            if outcome.result.best_value != cold.result.best_value:
                problems.append(f"{job.name}: replay best differs from the cold best")
    return problems


def golden_record(env: Env, outcomes: list[Outcome]) -> dict[str, object]:
    """What ``golden.json`` pins for one workload at the default seed.

    Only ``random`` jobs are pinned: their points depend on the seed alone
    and their values on plain float arithmetic, so the record survives a
    change of BLAS build (CMA-ES, Bayesian) that says nothing about this
    repository.  Those algorithms are held by the cross-driver check.
    """
    pinned = [o for o in outcomes if o.job.algorithm == "random" and o.result is not None]
    return {
        "best_error": {o.job.name: o.result.best_value for o in pinned},
        "evals_to_target": {
            o.job.name: evals_to_target(env, o) for o in pinned if o.job.seed_ordered
        },
        "trajectory_sha256": {o.job.name: signature(o) for o in pinned},
        "human": {key: env.human(key) for key in env.problems},
    }


def _same(a: object, b: object) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9)
    return a == b


def check_golden(env: Env, outcomes: list[Outcome], golden: dict[str, object]) -> list[str]:
    record = golden_record(env, outcomes)
    return [
        f"golden mismatch in {key}: measured {record[key]!r}, committed {golden.get(key)!r}"
        for key in record
        if not _same(record[key], golden.get(key))
    ]
