"""``repro`` command-line entry point.

The CLI wraps the same public API the examples use, so every command here
is a one-liner away from being a library call; it exists so that the case
study can be exercised without writing any Python (the audience the paper
has in mind is domain scientists, not simulator developers).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from pathlib import Path
from collections.abc import Callable, Sequence

from repro.core import (
    ALGORITHMS,
    CacheBackend,
    FailurePolicy,
    RetryPolicy,
    RunConfig,
)
from repro.core.faults import DEFAULT_PENALTY
from repro.core.metrics import METRICS
from repro.hepsim import CaseStudyProblem, GroundTruthGenerator, Scenario
from repro.hepsim.scenario import PAPER_ICD_VALUES, REDUCED_ICD_VALUES
from repro.telemetry import configure_logging, console, get_logger

__all__ = ["build_parser", "main"]

_log = get_logger("cli")


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _parse_icds(text: str | None) -> list[float] | None:
    if not text:
        return None
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise SystemExit(f"invalid ICD list {text!r}; expected comma-separated numbers") from exc


# ---------------------------------------------------------------------- #
# sub-commands
# ---------------------------------------------------------------------- #
def cmd_list(args: argparse.Namespace) -> int:
    console("calibration algorithms:")
    for name in sorted(ALGORITHMS):
        console(f"  {name}")
    console("accuracy metrics:")
    for name in sorted(METRICS):
        console(f"  {name}")
    console("platforms: SCFN FCFN SCSN FCSN   (Table II)")
    console("scenario scales: paper bench calib tiny")
    return 0


def _run_config(args: argparse.Namespace) -> RunConfig:
    """Build the run configuration of ``calibrate`` or ``submit`` from its
    flags, rejecting (``ValueError``) a flag the configuration would
    silently ignore.  No fault flag gives ``RunConfig()``, which keeps
    every trajectory byte-identical to a fault-tolerance-unaware run;
    ``calibrate --store`` turns on cache-hit replay (a served job always
    replays)."""
    if getattr(args, "max_pending", None) is not None and not args.use_async:
        raise ValueError("--max-pending needs --async")
    if args.retries < 0:
        raise ValueError(f"--retries must be at least 0, not {args.retries}")
    failure_policy = None
    if args.on_failure is not None or args.max_failure_rate is not None:
        failure_policy = FailurePolicy(
            on_failure=args.on_failure or "penalty",
            penalty=DEFAULT_PENALTY if args.penalty is None else args.penalty,
            failure_rate_threshold=args.max_failure_rate,
        )
    if args.penalty is not None and (failure_policy is None or not failure_policy.penalize):
        raise ValueError("--penalty needs a penalty policy (--on-failure penalty)")
    return RunConfig(
        retry_policy=RetryPolicy(max_attempts=args.retries + 1) if args.retries > 0 else None,
        failure_policy=failure_policy,
        eval_timeout=args.eval_timeout,
        replay_cache_hits=getattr(args, "store", None) is not None,
    )


def cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.core.reporting import calibration_report
    from repro.core.serialization import save_result
    from repro.telemetry import (
        JsonlTraceSink,
        Tracer,
        disable_metrics,
        enable_metrics,
        registry,
        set_tracer,
    )

    from repro.service import spec_budget

    scenario = Scenario.preset(args.scale, args.platform, _parse_icds(args.icds))
    generator = GroundTruthGenerator()
    problem = CaseStudyProblem.create(scenario, generator=generator, metric=args.metric)

    enabled_here = False
    if args.metrics is not None and not registry().enabled:
        enable_metrics()
        enabled_here = True
    tracer = previous_tracer = None
    if args.trace:
        tracer = Tracer(JsonlTraceSink(args.trace))
        previous_tracer = set_tracer(tracer)
    if args.store:
        from repro.service import StoreBackedCache, open_store
    # The store is closed however the run ends.
    with open_store(args.store) if args.store else contextlib.nullcontext() as store:
        cache: bool | CacheBackend = True
        if store is not None:
            cache = StoreBackedCache(store, problem.fingerprint())
        try:
            result = problem.calibrate(
                algorithm=args.algorithm, budget=spec_budget(vars(args)), seed=args.seed,
                workers=args.workers, asynchronous=args.use_async,
                max_pending=args.max_pending, cache=cache, config=args.run_config,
            )
        finally:
            if tracer is not None:
                set_tracer(previous_tracer)
                tracer.close()
        entries = store.stats()["entries"] if store is not None else None
    values = problem.calibrated_values(result)

    if args.use_async:
        driver_note = f" (async, {args.workers} workers)"
    elif args.workers > 1:
        driver_note = f" (batched, {args.workers} workers)"
    else:
        driver_note = ""
    console(f"platform           : {args.platform} ({scenario.config.description})")
    console(f"algorithm          : {result.algorithm}{driver_note}")
    console(f"budget             : {result.budget_description}")
    console(f"evaluations        : {result.evaluations}")
    console(f"elapsed            : {result.elapsed:.1f} s")
    console(f"best {args.metric.upper():14s}: {result.best_value:.2f}")
    console("calibrated values  :")
    for name, value in values.to_dict().items():
        console(f"  {name:22s} {value:.4g}")
    if entries is not None:
        console(f"store              : {args.store} ({entries} evaluations, "
                f"{cache.hits} hits this run)")
    if args.compare:
        human = problem.evaluate(problem.human_values())
        true = problem.evaluate(problem.true_values())
        console(f"HUMAN {args.metric.upper():13s}: {human:.2f}")
        console(f"true-values {args.metric.upper():7s}: {true:.2f}")
    if args.report:
        console()
        console(calibration_report(result, problem.space, objective_name=args.metric.upper()))
    if args.save:
        path = save_result(result, args.save)
        console(f"result saved to    : {path}")
    if args.trace:
        console(f"trace written to   : {args.trace}")
    if args.metrics is not None:
        if args.metrics == "-":
            console()
            console(registry().render_text())
        else:
            path = registry().save_snapshot(args.metrics)
            console(f"metrics snapshot   : {path}")
    if enabled_here:
        # Leave the process-wide registry as we found it (matters when the
        # CLI runs in-process, e.g. under the test suite).
        disable_metrics().reset()
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = Scenario.preset(args.scale, args.platform, _parse_icds(args.icds))
    generator = GroundTruthGenerator()
    problem = CaseStudyProblem.create(scenario, generator=generator)
    if args.values == "human":
        values = problem.human_values()
    elif args.values == "true":
        values = problem.true_values()
    else:
        raise SystemExit(f"unknown calibration {args.values!r}; expected 'human' or 'true'")
    mre = problem.evaluate(values)
    trace = problem.objective.simulate(values.to_dict())
    console(f"platform  : {args.platform}")
    console(f"values    : {args.values}")
    console(f"MRE       : {mre:.2f}%")
    console("per-ICD average job times (simulated vs ground truth):")
    for icd in scenario.icd_values:
        for node in scenario.node_names:
            sim = trace.average_job_time(node, icd)
            ref = problem.ground_truth.average_job_time(node, icd)
            console(f"  ICD {icd:4.1f}  {node:8s}  sim {sim:9.1f} s   truth {ref:9.1f} s")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    spec = {
        "platform": args.platform,
        "scale": args.scale,
        "icds": _parse_icds(args.icds),
        "algorithm": args.algorithm,
        "metric": args.metric,
        "evaluations": args.evaluations,
        "seconds": args.seconds,
        "seed": args.seed,
        "config": args.run_config.to_dict(),
    }
    if args.url:
        from repro.service.fleet import FleetClient

        job_id = FleetClient(args.url).submit(spec)
        console(f"submitted {job_id} ({args.algorithm} on {args.platform}/{args.scale}) "
                f"to {args.url}")
        return 0
    from repro.service import JobSpool

    spool = JobSpool(args.serve_dir)
    job_id = spool.submit(spec)
    console(f"submitted {job_id} ({args.algorithm} on {args.platform}/{args.scale}) "
            f"to {spool.root}")
    _log.info("run the queue with: repro serve --serve-dir %s", spool.root)
    return 0


def _attach_tell_log(spool, job_id: str, request) -> None:
    """Log every tell of a queued job, and replay the log a killed run of
    it left behind."""
    request.checkpoint_every = 1
    request.checkpoint = spool.read_checkpoint(job_id)
    if request.checkpoint is not None:
        _log.info("[resumed  ] %s: replaying %d logged tells", job_id, len(request.checkpoint))


def _spool_events(spool) -> Callable:
    """A server's event callback for spooled jobs: checkpoints append to
    the job's tell log, every other event but submission is narrated."""

    def on_event(job, event):
        if event.kind == "checkpoint":
            spool.write_checkpoint(job.id, event.payload["entries"])
        elif event.kind != "submitted":
            _log.info("[%-9s] %s", event.kind, event.message)

    return on_event


def _serve_spool(spool, server, factory, args: argparse.Namespace) -> int:
    """Run the spool's jobs on ``server`` — scan, submit, wait, write each
    result back — once, or every ``--poll`` seconds.  Returns the number
    of jobs processed."""
    processed = 0
    first_scan = True
    while True:
        # The first scan also re-runs jobs a crashed server left behind
        # in "running"; later scans only pick up fresh submissions (the
        # running ones are ours).
        pending = spool.runnable() if first_scan else spool.pending()
        first_scan = False
        jobs = []
        for job_id in pending:
            spec = spool.load(job_id)
            try:
                request = factory.request(spec)
                _attach_tell_log(spool, job_id, request)
            except Exception as exc:
                spool.update(job_id, status="failed", error=f"{type(exc).__name__}: {exc}")
                _log.warning("[failed   ] %s: %s", job_id, exc)
                continue
            spool.update(job_id, status="running")
            jobs.append(server.submit(request, job_id=job_id))
        for job in jobs:
            job.wait()
            processed += 1
            record = job.to_dict()
            if job.result is not None:
                spool.write_result(job.id, job.result)
            spool.update(
                job.id,
                status=record["status"],
                best_value=record.get("best_value"),
                evaluations=record["evaluations"],
                cache_hits=record["cache_hits"],
                elapsed=record["elapsed"],
                error=record.get("error"),
            )
        if args.poll is None:
            return processed
        try:
            time.sleep(args.poll)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return processed


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CalibrationServer, CaseStudyRequestFactory, JobSpool, open_store

    spool = JobSpool(args.serve_dir)
    store_path = args.store if args.store is not None else str(spool.default_store_path)
    with open_store(store_path) as store:
        server = CalibrationServer(store=store, workers=args.workers, on_event=_spool_events(spool))
        try:
            with server:  # on Ctrl-C, leaves without waiting for the running jobs
                processed = _serve_spool(spool, server, CaseStudyRequestFactory(), args)
        except KeyboardInterrupt:
            # The abandoned workers may still fail against the closing
            # store; that is not their jobs' fate, so nothing narrates it.
            server.on_event = None
            left = [record["id"] for record in spool.statuses()
                    if record.get("status") == "running"]
            console(f"interrupted: {', '.join(left) or 'no job'} left running; "
                    "the next `repro serve` resumes from the tell log")
            return 130
        stats = store.stats()
    console(f"served {processed} job(s); store: {stats['entries']} evaluations, "
            f"{stats['hits']} hits / {stats['misses']} misses this run")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Serve the spool like ``repro serve``, but evaluate through the
    distributed worker fleet: jobs run asynchronous drivers that post
    candidates to a task board, and pull-based ``repro worker`` processes
    (any number, on any host that can reach the front-end URL and the
    shared store file) claim, evaluate and publish them."""
    from repro.service import CaseStudyRequestFactory, JobSpool, open_store
    from repro.service.fleet import FleetFrontend, FleetServer

    spool = JobSpool(args.serve_dir)
    # The fleet needs cross-process leases, which only the SQLite backend
    # provides — default to DIR/store.db rather than serve's store.jsonl.
    store_path = args.store if args.store is not None else str(Path(args.serve_dir) / "store.db")
    with open_store(store_path) as store:
        server = FleetServer(
            store=store, workers=args.workers, on_event=_spool_events(spool),
            max_pending=args.max_pending,
        )

        def status_view():
            live = {record["id"]: record for record in server.snapshot()}
            return [live.get(record.get("id"), record) for record in spool.statuses()]

        try:
            frontend = FleetFrontend(
                server,
                host=args.host,
                port=args.port,
                submit=lambda spec: spool.submit(dict(spec)),
                status_view=status_view,
            ).start()
        except BaseException:
            server.shutdown()  # no job has run: the workers exit at once
            raise
        try:
            console(f"fleet front-end listening on {frontend.url}")
            console(f"shared store: {store_path}")
            _log.info("start workers with: repro worker --url %s --store %s",
                      frontend.url, store_path)
            if args.url_file:
                # Written atomically-enough for the integration tests that poll
                # it to discover an ephemeral --port 0 binding.
                Path(args.url_file).write_text(frontend.url + "\n")
            processed = _serve_spool(spool, server, CaseStudyRequestFactory(), args)
        finally:
            frontend.close()
            # wait=False: a fleet job with no workers left can never finish —
            # front-end and threads are daemonic, exiting the process is safe.
            server.shutdown(wait=False)
    console(f"served {processed} fleet job(s)")
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """One pull-based fleet evaluation process (see ``repro fleet``)."""
    from repro.service import open_store
    from repro.service.fleet import FaultInjector, FleetClient, FleetWorker
    from repro.service.store import DEFAULT_LEASE_TTL

    lease_ttl = DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
    fault = FaultInjector(
        kill_after_claims=args.fault_kill_after_claims,
        drop_publish=args.fault_drop_publish,
        publish_delay=args.fault_publish_delay,
        raise_every_evals=args.fault_raise_every_evals,
        hang_on_eval=args.fault_hang_on_eval,
        hang_seconds=args.fault_hang_seconds,
    )
    with open_store(args.store) as store:
        worker = FleetWorker(
            FleetClient(args.url),
            store,
            owner=args.owner,
            lease_ttl=lease_ttl,
            poll=args.poll,
            fault=fault,
            stats_path=args.stats,
        )
        _log.info("worker %s pulling from %s (store %s)", worker.owner, args.url, args.store)
        try:
            settled = worker.run(max_tasks=args.max_tasks, max_idle=args.max_idle)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            settled = worker.stats["publishes"]
    console(f"worker {worker.owner} settled {settled} task(s) "
            f"({worker.stats['evaluations']} evaluations, "
            f"{worker.stats['store_hits']} store hits, "
            f"{worker.stats['lease_skips']} lease skips)")
    return 0


def _print_job_table(records: list[dict]) -> None:
    header = f"{'job':10s} {'status':8s} {'algorithm':12s} {'platform':8s} " \
             f"{'best':>10s} {'evals':>6s} {'hits':>6s} {'elapsed':>8s}"
    console(header)
    console("-" * len(header))
    for record in records:
        best = record.get("best_value")
        elapsed = record.get("elapsed")
        platform = record.get("platform", record.get("metadata", {}).get("platform", "?"))
        if record.get("status") != "done":
            # Before completion the spec's "evaluations" is the requested
            # budget, not work performed — don't show it as progress.
            record = {**record, "evaluations": "-", "cache_hits": "-"}
        console(
            f"{record.get('id', '?'):10s} "
            f"{record.get('status', '?'):8s} "
            f"{record.get('algorithm', '?'):12s} "
            f"{platform:8s} "
            f"{(f'{best:.4g}' if best is not None else '-'):>10s} "
            f"{record.get('evaluations', '-')!s:>6s} "
            f"{record.get('cache_hits', '-')!s:>6s} "
            f"{(f'{elapsed:.1f}s' if elapsed is not None else '-'):>8s}"
        )
        if record.get("error"):
            console(f"  error: {record['error']}")


def cmd_status(args: argparse.Namespace) -> int:
    if args.url:
        # Lease-aware remote status: the job table comes from the fleet
        # front-end; --store additionally summarises the shared store
        # (and its live leases) from the local file.
        from repro.service.fleet import FleetClient

        client = FleetClient(args.url)
        records = client.jobs()
        if args.job:
            records = [r for r in records if r.get("id") == args.job]
            if not records:
                raise SystemExit(f"unknown job {args.job!r} at {args.url}")
        if not records:
            console(f"no jobs at {args.url}")
        else:
            _print_job_table(records)
        health = client.health()
        console(f"fleet: {health.get('open_tasks', 0)} open evaluation task(s), "
                f"{health.get('store_entries', 0)} stored evaluation(s)")
        if args.store:
            _print_store_summary(None, args.store)
        return 0
    from repro.service import JobSpool

    spool = JobSpool(args.serve_dir)
    records = spool.statuses()
    if args.job:
        records = [r for r in records if r.get("id") == args.job]
        if not records:
            raise SystemExit(f"unknown job {args.job!r} in {spool.root}")
    if not records:
        console(f"no jobs in {spool.root}")
        return 0
    _print_job_table(records)
    _print_store_summary(spool, args.store)
    return 0


def _print_store_summary(spool, store_arg: str | None) -> None:
    """Append the shared store's size and in-flight leases to a status view.

    Lease state is only observable across processes for SQLite stores (the
    JSONL/in-memory backends keep leases in the owning process), so a
    quiet output here does not mean no work is in flight — it means the
    store backend cannot see it from this process.
    """
    from pathlib import Path

    from repro.service import open_store

    if store_arg is None and spool is None:
        return
    store_path = store_arg if store_arg is not None else str(spool.default_store_path)
    if not Path(store_path).exists():
        return
    with open_store(store_path) as store:
        entries = len(store)
        leases = store.active_leases()
    console(f"store: {entries} stored evaluations in {store_path}")
    if leases:
        now = time.time()
        console(f"active leases ({len(leases)} evaluations being computed now):")
        for lease in leases:
            console(
                f"  {lease['key'][:16]}…  owner {str(lease['owner'])[:12]}  "
                f"expires in {max(lease['expires_at'] - now, 0.0):.0f}s"
            )


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import collect_results, render_report, write_report

    if args.output:
        path = write_report(args.results_dir, args.output)
        console(f"report written to {path}")
    else:
        console(render_report(collect_results(args.results_dir)))
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    # Imported lazily: the experiment module pulls in the whole case study.
    from repro.analysis import (
        ablation_accuracy_metrics,
        ablation_reference_noise,
        figure2_convergence,
        generalization_experiment,
        parallel_scaling_experiment,
        service_throughput_experiment,
        table1_survey,
        table2_platforms,
        table3_simulation_accuracy,
        table4_calibrated_parameters,
        table5_icd_subsets,
        table6_speed_accuracy,
    )

    budgeted = {
        "table3": table3_simulation_accuracy,
        "table4": table4_calibrated_parameters,
        "table5": table5_icd_subsets,
        "table6": table6_speed_accuracy,
        "figure2": figure2_convergence,
        "generalization": generalization_experiment,
        "metrics": ablation_accuracy_metrics,
        "noise": ablation_reference_noise,
        "parallel": parallel_scaling_experiment,
        "service": service_throughput_experiment,
    }
    registry: dict[str, Callable[[], object]] = {"table1": table1_survey, "table2": table2_platforms}
    for name, experiment in budgeted.items():
        registry[name] = functools.partial(
            experiment, budget_evaluations=args.evaluations, scale=args.scale, seed=args.seed
        )
    names = list(registry) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise SystemExit(f"unknown experiment(s) {unknown}; available: {sorted(registry)} or 'all'")
    for name in names:
        result = registry[name]()
        console(result.to_text())
        console()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """A (optionally repeating) live view over a service spool: job counts
    by status, the running jobs, and the shared store's size and leases."""
    from repro.service import JobSpool

    spool = JobSpool(args.serve_dir)
    iteration = 0
    while True:
        iteration += 1
        records = spool.statuses()
        counts: dict[str, int] = {}
        for record in records:
            status = str(record.get("status", "?"))
            counts[status] = counts.get(status, 0) + 1
        summary = "  ".join(f"{status}:{n}" for status, n in sorted(counts.items()))
        console(f"-- repro top @ {time.strftime('%H:%M:%S')}  "
                f"({len(records)} jobs)  {summary}")
        for record in records:
            if record.get("status") == "running":
                console(f"  running  {record.get('id', '?'):10s} "
                        f"{record.get('algorithm', '?'):12s} "
                        f"{record.get('platform', '?')}")
        _print_store_summary(spool, args.store)
        if args.iterations is not None and iteration >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint (the repo's contract checkers) over the given paths."""
    from repro.devtools.runner import main as lint_main

    argv: list[str] = [str(path) for path in args.paths]
    if args.select:
        argv += ["--select", args.select]
    if args.format != "text":
        argv += ["--format", args.format]
    if args.list_rules:
        argv += ["--list-rules"]
    return lint_main(argv)


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
SERVICE_EPILOG = """\
calibration service:
  The service subsystem (repro.service) runs calibrations as jobs over a
  shared, persistent evaluation store, so repeated or concurrent jobs on
  the same scenario reuse each other's simulations instead of re-paying
  for them.  Workflow:

    repro submit --serve-dir runs/ --platform FCSN --scale calib \\
                 --algorithm lhs --evaluations 200 --seed 1
    repro serve  --serve-dir runs/            # drain the queue and exit
    repro status --serve-dir runs/            # job table incl. cache hits

  `serve` keeps the shared store in <serve-dir>/store.jsonl by default
  (--store PATH selects another file; a .db/.sqlite suffix selects the
  SQLite backend, ':memory:' disables persistence).  A re-submitted job
  with an --evaluations budget reproduces the cold run's result exactly
  on a warm store while answering its evaluations from it (see `repro
  status`'s hits column); jobs with a --seconds budget reuse stored
  points too, but explore further instead of replaying exactly.  --poll
  SECONDS turns `serve` into a long-lived daemon.
  Each job's result lands in <serve-dir>/results/<job>.json and its
  per-evaluation history in its tell log,
  <serve-dir>/checkpoints/<job>.log.jsonl: one JSON line per tell,
  written as the job runs and kept once it is done.

  All algorithms speak a batched ask/tell protocol, which `serve` uses
  for crash recovery: a job killed mid-run is resumed by the next `serve`
  (or `fleet`), which replays its tell log into a fresh, identically
  seeded algorithm — no simulator call repeated — and finishes with the
  same best point as an uninterrupted run.  The same protocol powers
  `repro calibrate --workers K`,
  which evaluates each algorithm's candidate batches over K processes
  (one simulation per core, the paper's parallel protocol); adding
  `--async` switches to the asynchronous driver, which asks speculatively
  whenever a worker frees up and tells results out of order as they
  complete — under skewed simulation times the pool never idles waiting
  for a batch's slowest member (`--max-pending N` bounds in-flight work).
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated calibration of PDC simulators — IPDPS 2024 case-study reproduction",
        epilog=SERVICE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -v/-q ride along on every sub-command (argparse only sees options
    # after the sub-command name, so they must live on the subparsers).
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument("-v", "--verbose", action="count", default=0,
                           help="more progress output (repeat for debug)")
    verbosity.add_argument("-q", "--quiet", action="count", default=0,
                           help="less progress output (repeat to silence warnings)")

    p_list = sub.add_parser("list", parents=[verbosity],
                            help="list algorithms, metrics and platforms")
    p_list.set_defaults(func=cmd_list)

    common = argparse.ArgumentParser(add_help=False, parents=[verbosity])
    common.add_argument("--platform", default="FCSN", choices=["SCFN", "FCFN", "SCSN", "FCSN"])
    common.add_argument("--scale", default="calib", choices=["paper", "bench", "calib", "tiny"])
    common.add_argument("--icds", default=None, help="comma-separated ICD values (default: scenario grid)")
    common.add_argument("--seed", type=int, default=1)

    # The run configuration's fault flags: a served job carries them too.
    faults = argparse.ArgumentParser(add_help=False)
    faults.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry each failed evaluation up to N times with "
                             "seeded exponential backoff before giving up "
                             "(default: 0, no fault-tolerance layer)")
    faults.add_argument("--eval-timeout", type=float, default=None, metavar="SECONDS",
                        help="kill any single evaluation exceeding this "
                             "wall-clock bound and treat it as a failure")
    faults.add_argument("--on-failure", default=None, choices=["raise", "penalty"],
                        help="what a failed evaluation becomes: 'penalty' "
                             "records a large penalty value and continues, "
                             "'raise' quarantines the point and aborts "
                             "(default: no failure policy — errors propagate)")
    faults.add_argument("--penalty", type=float, default=None, metavar="X",
                        help="objective value recorded for failed evaluations "
                             "under --on-failure penalty (default: 1e6)")
    faults.add_argument("--max-failure-rate", type=float, default=None, metavar="R",
                        help="abort the run early (circuit breaker) once the "
                             "failure rate exceeds R in [0, 1]")

    p_cal = sub.add_parser("calibrate", parents=[common, faults],
                           help="calibrate the case-study simulator")
    p_cal.add_argument("--algorithm", default="random")
    p_cal.add_argument("--metric", default="mre", choices=sorted(METRICS))
    p_cal.add_argument("--evaluations", type=int, default=200, help="evaluation budget")
    p_cal.add_argument("--seconds", type=float, default=None, help="time budget (overrides --evaluations)")
    p_cal.add_argument("--workers", type=int, default=1,
                       help="evaluate the algorithm's ask batches over this many "
                            "processes (1 = the paper's serial loop)")
    p_cal.add_argument("--async", dest="use_async", action="store_true",
                       help="asynchronous out-of-order driving: ask speculatively "
                            "whenever a worker frees up and tell results as they "
                            "complete, instead of waiting for each batch's slowest "
                            "simulation (random/sobol/lhs/tpe consume results "
                            "natively; other algorithms are buffered back into "
                            "ask order and reproduce the serial trajectory)")
    p_cal.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="with --async, bound on in-flight simulations "
                            "(default: --workers)")
    p_cal.add_argument("--compare", action="store_true", help="also score the HUMAN and true calibrations")
    p_cal.add_argument("--report", action="store_true", help="print a convergence report")
    p_cal.add_argument("--save", default=None, metavar="PATH", help="write the result (with history) to a JSON file")
    p_cal.add_argument("--metrics", nargs="?", const="-", default=None, metavar="PATH",
                       help="enable the telemetry metrics registry for the run and "
                            "export it: with PATH, write a JSON snapshot there; "
                            "without, print the Prometheus text exposition")
    p_cal.add_argument("--trace", default=None, metavar="PATH",
                       help="write per-evaluation spans (JSON Lines) to PATH — one "
                            "record per ask/dispatch/simulate/tell step, with "
                            "parent/child span ids")
    p_cal.add_argument("--store", default=None, metavar="PATH",
                       help="back the run's cache with a persistent evaluation "
                            "store (.jsonl or .db/.sqlite), reusing simulations "
                            "across runs like the service does")
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", parents=[common], help="run the simulator with a known calibration")
    p_sim.add_argument("--values", default="human", choices=["human", "true"])
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", parents=[common], help="reproduce a table/figure or extension study")
    p_exp.add_argument("name", help="table1..table6, figure2, generalization, metrics, noise, "
                                    "parallel, service, or 'all'")
    p_exp.add_argument("--evaluations", type=int, default=None,
                       help="calibration budget; tables V/VI and figure 2 charge it in "
                            "simulated events (default: $REPRO_BENCH_EVALS or 250)")
    p_exp.set_defaults(func=cmd_experiment)

    p_sub = sub.add_parser("submit", parents=[common, faults],
                           help="queue a calibration job for the service")
    p_sub.add_argument("--serve-dir", default="service", metavar="DIR",
                       help="service spool directory (created if missing)")
    p_sub.add_argument("--algorithm", default="random")
    p_sub.add_argument("--metric", default="mre", choices=sorted(METRICS))
    p_sub.add_argument("--evaluations", type=int, default=100, help="evaluation budget")
    p_sub.add_argument("--seconds", type=float, default=None,
                       help="time budget (overrides --evaluations)")
    p_sub.add_argument("--url", default=None, metavar="URL",
                       help="post the job to a running fleet front-end "
                            "instead of the local spool")
    p_sub.set_defaults(func=cmd_submit)

    p_srv = sub.add_parser("serve", parents=[verbosity],
                           help="run queued calibration jobs over the shared store")
    p_srv.add_argument("--serve-dir", default="service", metavar="DIR",
                       help="service spool directory")
    p_srv.add_argument("--store", default=None, metavar="PATH",
                       help="evaluation store file (.jsonl or .db/.sqlite; default "
                            "DIR/store.jsonl); ':memory:', as for every --store, "
                            "keeps it in this process with no file")
    p_srv.add_argument("--workers", type=int, default=2, help="concurrent jobs")
    p_srv.add_argument("--poll", type=float, default=None, metavar="SECONDS",
                       help="keep serving, re-scanning the queue every SECONDS "
                            "(default: drain once and exit)")
    p_srv.set_defaults(func=cmd_serve)

    p_flt = sub.add_parser("fleet", parents=[verbosity],
                           help="serve queued jobs through the distributed worker fleet")
    p_flt.add_argument("--serve-dir", default="service", metavar="DIR",
                       help="service spool directory")
    p_flt.add_argument("--store", default=None, metavar="PATH",
                       help="shared evaluation store; workers must open the same "
                            "file, so use a SQLite path (default DIR/store.db)")
    p_flt.add_argument("--host", default="127.0.0.1", help="front-end bind address")
    p_flt.add_argument("--port", type=int, default=8765,
                       help="front-end port (0 picks an ephemeral port)")
    p_flt.add_argument("--url-file", default=None, metavar="PATH",
                       help="write the front-end URL here once it is listening "
                            "(how scripts discover an ephemeral --port 0)")
    p_flt.add_argument("--workers", type=int, default=2, help="concurrent jobs")
    p_flt.add_argument("--max-pending", type=int, default=4, metavar="N",
                       help="in-flight evaluations per job (default: 4)")
    p_flt.add_argument("--poll", type=float, default=None, metavar="SECONDS",
                       help="keep serving, re-scanning the queue every SECONDS "
                            "(default: drain once and exit)")
    p_flt.set_defaults(func=cmd_fleet)

    p_wrk = sub.add_parser("worker", parents=[verbosity],
                           help="run one pull-based fleet evaluation worker")
    p_wrk.add_argument("--url", required=True, metavar="URL",
                       help="fleet front-end, e.g. http://127.0.0.1:8765")
    p_wrk.add_argument("--store", required=True, metavar="PATH",
                       help="the fleet's shared evaluation store "
                            "(the same SQLite file the server opened)")
    p_wrk.add_argument("--owner", default=None,
                       help="lease-owner identity (default: worker-<pid>-<random>)")
    p_wrk.add_argument("--lease-ttl", type=float, default=None, metavar="SECONDS",
                       help="how long an unpublished claim blocks other workers "
                            "(default: 300s; lower it for fail-over tests); a "
                            "job whose hard deadline is not below it is refused")
    p_wrk.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                       help="task long-poll duration (default: 0.5s)")
    p_wrk.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="exit after settling N tasks")
    p_wrk.add_argument("--max-idle", type=float, default=None, metavar="SECONDS",
                       help="exit after this long without any open task")
    p_wrk.add_argument("--stats", default=None, metavar="PATH",
                       help="rewrite worker counters to this JSON file after "
                            "every step (survives an abrupt death)")
    p_wrk.add_argument("--fault-kill-after-claims", type=int, default=0, metavar="N",
                       help="fault injection: die (exit 43) on the Nth claim, "
                            "before evaluating")
    p_wrk.add_argument("--fault-drop-publish", type=int, default=0, metavar="N",
                       help="fault injection: die (exit 44) on the Nth publish, "
                            "after evaluating but before the result lands")
    p_wrk.add_argument("--fault-publish-delay", type=float, default=0.0,
                       metavar="SECONDS", help="fault injection: delay each publish")
    p_wrk.add_argument("--fault-raise-every-evals", type=int, default=0, metavar="N",
                       help="fault injection: raise a transient error on "
                            "every Nth evaluation")
    p_wrk.add_argument("--fault-hang-on-eval", type=int, default=0, metavar="N",
                       help="fault injection: hang the Nth evaluation for "
                            "--fault-hang-seconds")
    p_wrk.add_argument("--fault-hang-seconds", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="how long a --fault-hang-on-eval evaluation blocks "
                            "(default: 3600)")
    p_wrk.set_defaults(func=cmd_worker)

    p_sta = sub.add_parser("status", parents=[verbosity],
                           help="show the status of service jobs")
    p_sta.add_argument("--serve-dir", default="service", metavar="DIR",
                       help="service spool directory")
    p_sta.add_argument("--job", default=None, metavar="ID", help="show one job only")
    p_sta.add_argument("--store", default=None, metavar="PATH",
                       help="evaluation store to summarise (default DIR/store.jsonl)")
    p_sta.add_argument("--url", default=None, metavar="URL",
                       help="query a running fleet front-end instead of the spool")
    p_sta.set_defaults(func=cmd_status)

    p_top = sub.add_parser("top", parents=[verbosity],
                           help="live view of service jobs and in-flight evaluations")
    p_top.add_argument("--serve-dir", default="service", metavar="DIR",
                       help="service spool directory")
    p_top.add_argument("--store", default=None, metavar="PATH",
                       help="evaluation store to summarise (default DIR/store.jsonl)")
    p_top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                       help="refresh interval (default: 2s)")
    p_top.add_argument("--iterations", type=int, default=None, metavar="N",
                       help="stop after N refreshes (default: run until Ctrl-C)")
    p_top.set_defaults(func=cmd_top)

    p_rep = sub.add_parser("report", parents=[verbosity],
                           help="aggregate benchmarks/results/ into one Markdown report")
    p_rep.add_argument("--results-dir", default="benchmarks/results",
                       help="directory holding the per-experiment .txt outputs")
    p_rep.add_argument("--output", default=None, metavar="PATH",
                       help="write the report to a file instead of stdout")
    p_rep.set_defaults(func=cmd_report)

    p_lint = sub.add_parser("lint", parents=[verbosity],
                            help="run reprolint, the repo's invariant checkers")
    p_lint.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint (default: src/)")
    p_lint.add_argument("--select", metavar="RULES", default=None,
                        help="comma-separated rule ids to run (default: all)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func in (cmd_calibrate, cmd_submit):
        try:
            args.run_config = _run_config(args)
        except ValueError as exc:
            parser.error(f"{args.command}: {exc}")
    configure_logging(getattr(args, "verbose", 0) - getattr(args, "quiet", 0))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
