"""The calibration service: jobs, a shared evaluation store, a server.

The paper's protocol runs one calibration at a time and every
evaluation cache dies with its calibrator;
this subpackage turns the library into a long-lived service that absorbs
calibration traffic:

* :mod:`repro.service.store` — a persistent, content-addressed
  :class:`EvaluationStore` keyed by (scenario fingerprint, canonicalized
  parameter vector), with in-memory, JSON Lines and SQLite backends;
* :mod:`repro.service.cache` — :class:`StoreBackedCache`, the adapter
  that plugs the store into any calibrator, with single-flight
  deduplication of identical in-flight evaluations through the store's
  non-blocking claim/lease protocol (a driver defers a leased point
  and re-claims it until the leader publishes, fails or expires);
* :mod:`repro.service.jobs` / :mod:`repro.service.server` — submitted
  :class:`CalibrationRequest` objects scheduled over a bounded worker
  pool, streaming progress events;
* :mod:`repro.service.case_study` — builds requests for the HEP case
  study from plain job specifications;
* :mod:`repro.service.spool` — the directory layout behind the ``repro
  submit`` / ``repro serve`` / ``repro status`` CLI subcommands;
* :mod:`repro.service.fleet` — the distributed worker fleet: an HTTP
  front-end plus pull-based ``repro worker`` processes claiming
  evaluations through the store's lease protocol (``repro fleet``).

Quick start (in-process):

.. code-block:: python

    from repro.service import CalibrationServer, CalibrationRequest, open_store

    store = open_store("evals.jsonl")          # shared, persistent
    with CalibrationServer(store=store, workers=2) as server:
        job = server.submit(CalibrationRequest(space, objective_fn,
                                               fingerprint="my-scenario",
                                               algorithm="lhs",
                                               budget=EvaluationBudget(200)))
        job.wait()
        print(job.result.summary(), job.cache_hits)
"""

from repro.service.cache import JobCache, StoreBackedCache
from repro.service.case_study import CaseStudyRequestFactory, spec_budget
from repro.service.jobs import (
    CalibrationJob,
    CalibrationRequest,
    JobEvent,
    JobQueue,
    JobStatus,
)
from repro.service.server import CalibrationServer
from repro.service.spool import JobSpool
from repro.service.store import (
    EvaluationStore,
    InMemoryStore,
    JsonlStore,
    SqliteStore,
    StoreClaim,
    StoredEvaluation,
    StoredFailure,
    canonical_params,
    evaluation_key,
    open_store,
)

__all__ = [
    "CalibrationJob",
    "CalibrationRequest",
    "CalibrationServer",
    "CaseStudyRequestFactory",
    "EvaluationStore",
    "InMemoryStore",
    "JobCache",
    "JobEvent",
    "JobQueue",
    "JobSpool",
    "JobStatus",
    "JsonlStore",
    "SqliteStore",
    "StoreBackedCache",
    "StoreClaim",
    "StoredEvaluation",
    "StoredFailure",
    "canonical_params",
    "evaluation_key",
    "open_store",
    "spec_budget",
]
