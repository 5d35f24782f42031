"""The pull-based fleet worker: claim, evaluate, publish.

A worker process owns no job state.  It long-polls the front-end for
open tasks, races other workers for each one through the *store's* lease
protocol (the only cross-process arbiter), evaluates the claimed points
with a locally reconstructed objective, writes results to the shared
store and publishes them back over HTTP:

.. code-block:: text

    fetch tasks ──> store.claim(point, owner, ttl)
                       │
           ┌───────────┼───────────────┐
           hit         claimed         leased (another worker owns it)
           │           │               │
           publish     evaluate        skip — repoll; if its lease
           stored      store.put       expires unpublished, a later
           value       publish         claim takes the point over

A worker that dies mid-claim simply stops renewing its lease: after the
TTL any other worker's ``claim`` returns ``claimed`` and the point is
recomputed.  No heartbeats, no membership protocol — the lease table is
the entire failure model for *worker* death.

*Evaluation* failure is settled by the job's own
:class:`~repro.core.async_driver.RunConfig`, carried in every task: the
worker evaluates through a one-process
:class:`~repro.core.parallel.ParallelEvaluator` built from it, so
retries and timeouts run in place and the hard deadline kills a hung
evaluation, not the worker.  A failure is then quarantined in the store
(a quarantining failure policy) or its lease released — the rule of
:meth:`~repro.core.async_driver._Run._count` — and the task
fails with it, for the job's driver to settle by its policy.  A task
whose hard deadline is not below the worker's lease TTL is refused.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.core.async_driver import RunConfig
from repro.core.faults import EvaluationFailed, EvaluationFailure, RetryPolicy
from repro.core.parallel import ParallelEvaluator
from repro.service.cache import _to_core_failure
from repro.service.fleet.client import FleetClient, FleetClientError
from repro.service.fleet.faults import FaultInjector
from repro.service.spool import write_json
from repro.service.store import DEFAULT_LEASE_TTL, EvaluationStore, StoreClaim
from repro.telemetry.metrics import registry as _metrics_registry

_REGISTRY = _metrics_registry()

__all__ = ["CASE_STUDY_FIELDS", "FleetWorker", "case_study_resolver"]

ObjectiveFunction = Callable[[dict[str, float]], float]
ObjectiveResolver = Callable[[dict[str, Any]], ObjectiveFunction]

#: the job-specification fields :func:`case_study_resolver` reads
CASE_STUDY_FIELDS = ("platform", "scale", "icds", "metric")


def case_study_resolver() -> ObjectiveResolver:
    """The default resolver: rebuild a case-study objective from a task's
    job specification (platform / scale / icds / metric), caching the
    ground truth per scenario exactly like the server side does."""
    from repro.service.case_study import CaseStudyRequestFactory

    factory = CaseStudyRequestFactory()

    def resolve(spec: dict[str, Any]) -> ObjectiveFunction:
        if "platform" not in spec:
            raise ValueError(
                "task carries no case-study specification; this worker "
                "cannot reconstruct its objective"
            )
        return factory.request(spec).objective

    return resolve


class FleetWorker:
    """One pull-based evaluation process.

    Parameters
    ----------
    client:
        The front-end connection (tasks / publish / fail).
    store:
        The shared evaluation store — must be the same backend the server
        reads (for separate processes: the same SQLite file).
    resolver:
        Maps a task's job specification to an objective callable, which
        must pickle (it runs in the worker's pool process); defaults to
        the case-study resolver.  It reads only :data:`CASE_STUDY_FIELDS`:
        tasks that agree on those and on ``config`` share the worker's
        pool, whatever else (budget, seed, algorithm) their jobs differ in.
    owner:
        Lease-owner identity; defaults to ``worker-<pid>-<random>``.
    lease_ttl:
        Seconds a claim may stay unpublished before other workers may
        take the point over.  A task whose run configuration's
        :meth:`~repro.core.async_driver.RunConfig.hard_deadline` is not
        below it is refused.
    poll:
        Long-poll duration for the task fetch (also the retry pause when
        the front-end is unreachable).
    fault:
        Optional :class:`~repro.service.fleet.faults.FaultInjector`.
    stats_path:
        When set, worker counters are rewritten (atomically) to this
        JSON file after every step — the fault-injection tests read the
        file back to prove zero-duplicate accounting even though the
        process dies without warning.  ``retries`` counts the attempts
        the run configuration's retry policy repeated in place.
    """

    def __init__(
        self,
        client: FleetClient,
        store: EvaluationStore,
        resolver: ObjectiveResolver | None = None,
        owner: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = 0.5,
        fault: FaultInjector | None = None,
        stats_path: str | Path | None = None,
    ) -> None:
        self.client = client
        self.store = store
        self.resolver = resolver if resolver is not None else case_study_resolver()
        self.owner = owner or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_ttl = float(lease_ttl)
        self.poll = float(poll)
        self.fault = fault if fault is not None else FaultInjector()
        self.stats_path = Path(stats_path) if stats_path is not None else None
        self.stats: dict[str, int] = {
            "claims": 0,
            "evaluations": 0,
            "publishes": 0,
            "store_hits": 0,
            "lease_skips": 0,
            "failures": 0,
            "retries": 0,
            "quarantine_skips": 0,
            "refusals": 0,
        }
        #: the one live pool, and the objective fields and run
        #: configuration it was built for
        self._pool: ParallelEvaluator | None = None
        self._pool_key: tuple[str, RunConfig] | None = None

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def _bump(self, counter: str) -> None:
        self.stats[counter] += 1
        reg = _REGISTRY if _REGISTRY.enabled else None
        if reg is not None and counter in ("claims", "evaluations", "publishes"):
            name = f"repro_fleet_worker_{counter}_total"
            reg.counter(name, _WORKER_METRIC_HELP[name], owner=self.owner).inc()
        self._write_stats()

    def _write_stats(self) -> None:
        if self.stats_path is not None:
            write_json(self.stats_path, {"owner": self.owner, **self.stats})

    def _pool_for(self, spec: dict[str, Any], config: RunConfig) -> ParallelEvaluator:
        """The one-process pool that evaluates ``spec``'s points under
        ``config``, made guarded so that every failure arrives as
        :class:`~repro.core.faults.EvaluationFailed` with its kind."""
        fields = {name: spec.get(name) for name in CASE_STUDY_FIELDS}
        key = (json.dumps(fields, sort_keys=True), config)
        if self._pool is None or key != self._pool_key:
            self.close()
            if not config.guarded:
                config = dataclasses.replace(config, retry_policy=RetryPolicy(max_attempts=1))
            objective = self.fault.wrap(self.resolver(spec))
            self._pool = ParallelEvaluator(objective, workers=1, config=config)
            self._pool_key = key
        return self._pool

    def close(self) -> None:
        """Shut the pool down (``run`` does so on its way out)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def handle_task(self, task: dict[str, Any]) -> bool:
        """Race for one task; returns True when this worker settled it
        (published a value, reported a failure, relayed a quarantine or
        refused it), False when it was leased to someone else (or
        already resolved)."""
        fingerprint = str(task["fingerprint"])
        values = {str(k): float(v) for k, v in task["values"].items()}
        spec = dict(task.get("spec") or {})
        config = RunConfig.from_dict(spec.get("config") or {})
        deadline = config.hard_deadline()
        if deadline is not None and deadline >= self.lease_ttl:
            # Our lease would expire while a live evaluation still runs,
            # and another worker would take the point over.
            self._bump("refusals")
            self._fail(task, EvaluationFailure(
                f"refused: the job's hard deadline ({deadline:g}s) is not below "
                f"this worker's lease TTL ({self.lease_ttl:g}s)"
            ))
            return True
        claim = self.store.claim(fingerprint, values, owner=self.owner, ttl=self.lease_ttl)
        if claim.status == StoreClaim.LEASED:
            # Another worker is computing this point right now.  If it
            # dies, its lease expires after the TTL and a later claim
            # here returns "claimed" — the takeover needs no extra code.
            self._bump("lease_skips")
            return False
        if claim.status == StoreClaim.HIT:
            # Stored already (e.g. published between the fetch and now):
            # just relay the value so the task resolves promptly.
            self._bump("store_hits")
            self._publish(str(task["id"]), float(claim.value or 0.0), 0.0)
            return True
        if claim.status == StoreClaim.QUARANTINED and claim.failure is not None:
            # Some worker already proved this point bad: relay the stored
            # diagnosis instead of burning an evaluation re-proving it.
            self._bump("quarantine_skips")
            self._fail(task, _to_core_failure(claim.failure))
            return True
        self._bump("claims")
        self.fault.on_claim()  # may never return
        try:
            pool = self._pool_for(spec, config)
            retried = pool.retries_total
            value, duration = pool.submit(values).result()
        except EvaluationFailed as error:
            failure = error.failure
            self.stats["retries"] += failure.attempts - 1
        except Exception as error:  # no objective for the spec, or its pool process died
            failure = EvaluationFailure(f"{type(error).__name__}: {error}")
        else:
            self.stats["retries"] += pool.retries_total - retried
            self._bump("evaluations")
            self.fault.on_publish()  # may sleep, may never return
            self.store.put(fingerprint, values, value)  # also drops our lease
            if self._publish(str(task["id"]), value, duration):
                self._bump("publishes")
            return True
        # The rule every driver applies: quarantine under a quarantining
        # failure policy (record_failure drops our lease too), else release.
        policy = config.failure_policy
        if policy is not None and policy.quarantine:
            self.store.record_failure(
                fingerprint, values, failure.error, kind=failure.kind, attempts=failure.attempts
            )
        else:
            self.store.release(fingerprint, values, owner=self.owner)
        self._bump("failures")
        self._fail(task, failure)
        return True

    def _fail(self, task: dict[str, Any], failure: EvaluationFailure) -> None:
        """Fail the task with ``failure``, tolerating a dead front-end: a
        quarantine persists in the store for any worker to relay, and a
        released point is claimed and evaluated again."""
        try:
            self.client.fail(str(task["id"]), failure)
        except FleetClientError:
            pass

    def _publish(self, task_id: str, value: float, duration: float) -> bool:
        """Publish over HTTP, tolerating a dead front-end: the value is
        already in the store at this point, so a restarted front-end's
        store poller (or the next worker's hit-relay) resolves the task
        — losing the round-trip must not kill this worker."""
        try:
            return self.client.publish(task_id, value, duration)
        except FleetClientError:
            return False

    def run(self, max_tasks: int | None = None, max_idle: float | None = None) -> int:
        """Pull and evaluate until told to stop; returns tasks settled.

        ``max_tasks`` bounds settled tasks; ``max_idle`` exits after that
        many consecutive seconds without any open task (how test and
        batch workers terminate once the fleet goes quiet).
        """
        settled = 0
        self._write_stats()
        last_activity = time.monotonic()
        try:
            while True:
                try:
                    tasks = self.client.tasks(wait=self.poll)
                except FleetClientError:
                    # Front-end briefly unreachable (restart, not yet up):
                    # retry after a pause rather than dying — the worker's
                    # only state is its leases, which survive regardless.
                    tasks = []
                    time.sleep(self.poll)
                progressed = False
                for task in tasks:
                    if self.handle_task(task):
                        settled += 1
                        progressed = True
                    if max_tasks is not None and settled >= max_tasks:
                        return settled
                if tasks:
                    # Open tasks count as activity even when every one is
                    # leased elsewhere: a worker waiting out a dead peer's
                    # lease TTL must not give up as "idle" first.
                    last_activity = time.monotonic()
                    if not progressed:
                        # Pause one poll interval so the skip loop cannot
                        # spin hot while waiting on other workers' leases.
                        time.sleep(self.poll)
                elif max_idle is not None and time.monotonic() - last_activity >= max_idle:
                    return settled
        finally:
            self.close()


_WORKER_METRIC_HELP = {
    "repro_fleet_worker_claims_total": "Store claims won by fleet workers.",
    "repro_fleet_worker_evaluations_total": "Objective evaluations run by fleet workers.",
    "repro_fleet_worker_publishes_total": "Results published by fleet workers.",
}
