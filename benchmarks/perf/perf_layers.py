"""Per-layer metrics: read from a traced repetition, or probed directly.

``layer_metrics`` turns one traced repetition (spans, counters and the
returned histories) into the metrics of the layers that repetition used; it
returns nothing for a layer the repetition never called.  ``probe_layers``
times direct calls into public functions on fixed inputs, the same for every
workload.  Layer = module name.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from repro.hepsim.groundtruth import GroundTruthGenerator
from repro.hepsim.platforms import CALIB_NODES, PLATFORM_CONFIGS, CalibrationValues, build_platform
from repro.hepsim.scenario import Scenario
from repro.service.store import open_store
from repro.simgrid.activity import Activity
from repro.simgrid.resources import Resource
from repro.simgrid.sharing import solve_max_min

from perf_tracing import Recorder
from perf_workloads import RUN_SPAN, WORKERS, Outcome


def layer_metrics(recorder: Recorder, outcomes: list[Outcome]) -> dict[str, float]:
    total, self_time, count = recorder.totals()
    counters = recorder.counters
    done = [o for o in outcomes if o.result is not None]
    metrics: dict[str, float] = {}

    # simgrid / hepsim, through the split objective (driver-thread objectives only)
    evals, icds = counters["sim.evals"], counters["sim.icds"]
    if evals:
        metrics["simgrid.events_per_eval"] = counters["sim.events"] / evals
        metrics["simgrid.sharing_updates_per_eval"] = counters["sim.sharing_updates"] / evals
        metrics["simgrid.us_per_event"] = counters["sim.wall_time"] / counters["sim.events"] * 1e6
        for phase in ("sharing", "advance", "timers"):
            metrics[f"simgrid.{phase}_ms_per_eval"] = (
                counters[f"sim.phase_{phase}_seconds"] / evals * 1e3
            )
        metrics["hepsim.simulate_ms_per_icd"] = total["hepsim.simulate"] / icds * 1e3
        metrics["hepsim.metrics_ms_per_eval"] = total["hepsim.metrics"] / evals * 1e3
    simulated = [o for o in done if o.job.objective != "noop"]
    if simulated:
        metrics["hepsim.objective_busy_s"] = sum(
            e.duration for o in simulated for e in o.result.history if not e.cached
        )

    # core.algorithms: per ask()/tell() call
    for name in total:
        if name.startswith("core.algorithms."):
            _, _, verb, algorithm = name.split(".")
            metrics[f"core.algorithms.{verb}_us.{algorithm}"] = total[name] / count[name] * 1e6

    # core drivers
    serial = [o for o in done if RUN_SPAN[o.job.driver] == "core.calibrator.run"]
    if serial:
        # run() self time: its span minus objective, ask/tell and cache child spans
        metrics["core.calibrator.overhead_us_per_eval"] = (
            self_time["core.calibrator.run"] / sum(len(o.result.history) for o in serial) * 1e6
        )
    for driver, layer in (("batch", "core.parallel"), ("async", "core.async_driver")):
        pooled = [o for o in done if o.job.driver == driver]
        if not pooled:
            continue
        wall = total[f"{layer}.run"]
        busy = sum(e.duration for o in pooled for e in o.result.history)
        settled = sum(len(o.result.history) for o in pooled)
        # what run() costs per evaluation beyond a perfectly packed pool
        metrics[f"{layer}.overhead_us_per_eval"] = (wall - busy / WORKERS) / settled * 1e6
        metrics[f"{layer}.utilisation"] = busy / (WORKERS * wall)
        metrics[f"{layer}.idle_s"] = WORKERS * wall - busy
        if driver == "batch":
            metrics["core.parallel.first_result_ms"] = statistics.fmean(
                min(e.finished_at for e in o.result.history) for o in pooled
            ) * 1e3
    metrics["core.evaluation.dispatches"] = sum(
        1 for o in done for e in o.result.history if not e.cached
    )
    metrics["core.evaluation.cache_hits"] = sum(
        1 for o in done for e in o.result.history if e.cached
    )

    # service
    for verb in ("claim", "put"):
        name = f"service.cache.{verb}"
        if count[name]:
            # cache-proxy span minus the store-proxy span inside it
            metrics[f"{name}_us"] = self_time[name] / count[name] * 1e6
    served = [o for o in outcomes if o.store_stats is not None]
    if served:
        for key in ("hits", "misses", "puts", "lease_conflicts"):
            metrics[f"service.store.{key}"] = sum(o.store_stats[key] for o in served)
        job_span, run_span = (
            recorder.by_job("service.server.job"), recorder.by_job("core.calibrator.run")
        )
        # submit -> wait() return, minus the calibrator's run
        metrics["service.server.job_overhead_ms"] = statistics.fmean(
            job_span[o.job.name] - run_span[o.job.name] for o in served
        ) * 1e3
    return metrics


# --------------------------------------------------------------------- #
# direct probes
# --------------------------------------------------------------------- #
def _median_seconds(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _fixed_activities() -> list[Activity]:
    """A fixed contended activity set on the case-study platform shape:
    per node a CPU and a disk, one LAN and one WAN shared by all."""
    wan, lan = Resource("wan", 1.2e8), Resource("lan", 1.2e9)
    activities = []
    for node in range(3):
        cpu, disk = Resource(f"cpu{node}", 4 * 2.0e9), Resource(f"disk{node}", 1.5e8)
        for slot in range(4):
            activities.append(Activity(f"compute{node}.{slot}", 1e9, {cpu: 1.0}, rate_cap=2.0e9))
            activities.append(Activity(f"fetch{node}.{slot}", 1e8, {lan: 1.0, wan: 1.0, disk: 1.0}))
            activities.append(Activity(f"read{node}.{slot}", 1e8, {disk: 1.0}))
    return activities


def _probe_store(store, points: list[dict[str, float]]) -> dict[str, float]:
    """Mean microseconds of claim, put and warm get over fixed points."""
    timings = {}
    for verb, call in (
        ("claim", lambda p: store.claim("probe", p, "probe-owner")),
        ("put", lambda p: store.put("probe", p, 1.0)),
        ("get", lambda p: store.get("probe", p)),
    ):
        start = time.perf_counter()
        for point in points:
            call(point)
        timings[f"{verb}_us"] = (time.perf_counter() - start) / len(points) * 1e6
    return timings


def probe_layers(root: Path, points: int) -> dict[str, float]:
    metrics: dict[str, float] = {}
    activities = _fixed_activities()
    rates = solve_max_min(activities)
    if len(rates) != len(activities) or min(rates.values()) <= 0:
        raise AssertionError("solve_max_min left an activity of the fixed set without a rate")
    metrics["simgrid.solve_us"] = _median_seconds(lambda: solve_max_min(activities), 200) * 1e6

    values = CalibrationValues.from_dict({
        "core_speed": 2.0**31, "disk_bandwidth": 2.0**27, "lan_bandwidth": 2.0**33,
        "wan_bandwidth": 2.0**30, "page_cache_bandwidth": 2.0**34,
    })
    metrics["hepsim.build_platform_ms"] = _median_seconds(
        lambda: build_platform(PLATFORM_CONFIGS["FCSN"], values, nodes=CALIB_NODES), 50
    ) * 1e3
    scenario = Scenario.calib("FCSN")
    metrics["hepsim.gt_load_ms"] = _median_seconds(
        lambda: GroundTruthGenerator().get(scenario), 5
    ) * 1e3

    fixed = [
        {"core_speed": 2.0**20 + i, "disk_bandwidth": 2.0**21 + 3 * i,
         "lan_bandwidth": 2.0**22 + 5 * i, "wan_bandwidth": 2.0**23 + 7 * i}
        for i in range(points)
    ]
    for backend, path in (
        ("memory", None), ("jsonl", root / "probe.jsonl"), ("sqlite", root / "probe.db"),
    ):
        with open_store(path) as store:
            for verb, value in _probe_store(store, fixed).items():
                metrics[f"service.store.{backend}.{verb}"] = value
        if path is not None:
            metrics[f"service.store.{backend}.bytes_per_entry"] = path.stat().st_size / points

            def reopen(path=path):
                open_store(path).close()

            metrics[f"service.store.{backend}.open_ms"] = _median_seconds(reopen, 5) * 1e3
    return metrics
