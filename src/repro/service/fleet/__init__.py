"""The distributed worker fleet: dispatch over HTTP, evaluate anywhere.

Every in-process driver owns its worker pool; the fleet splits dispatch
from evaluation so N hosts can share one evaluation store (endpoints,
worker life-cycle and failure modes: ``docs/distributed.md``).  The pieces,
bottom up:

* :class:`~repro.service.fleet.board.TaskBoard` — the thread-safe registry
  of open evaluation tasks a fleet server wants computed;
* :class:`~repro.service.fleet.evaluator.FleetEvaluator` — the
  :class:`~repro.core.parallel.ParallelEvaluator` drop-in that posts
  candidates to the board instead of a local pool (plus
  :class:`~repro.service.fleet.evaluator.StoreReadCache`, the job cache
  that never takes leases — leases belong to the workers);
* :class:`~repro.service.fleet.server.FleetServer` — a
  :class:`~repro.service.server.CalibrationServer` whose jobs run an
  :class:`~repro.core.async_driver.AsyncCalibrator` over the board;
* :class:`~repro.service.fleet.frontend.FleetFrontend` — the stdlib-only
  HTTP face (submit / status / results / task stream, JSON over
  ``http.server``);
* :class:`~repro.service.fleet.client.FleetClient` — the thin
  ``urllib`` client the CLI and the workers speak through;
* :class:`~repro.service.fleet.worker.FleetWorker` — the pull-based
  ``repro worker`` process: fetch open tasks, claim them through the
  store's lease protocol (cross-process single-flight), evaluate,
  publish;
* :class:`~repro.service.fleet.faults.FaultInjector` — the test hook that
  makes worker failure a first-class, deterministic event.
"""

from repro.service.fleet.board import FleetTask, TaskBoard
from repro.service.fleet.client import FleetClient, FleetClientError
from repro.service.fleet.evaluator import FleetEvaluator, StoreReadCache
from repro.service.fleet.faults import FaultInjector, FaultyObjective
from repro.service.fleet.frontend import FleetFrontend
from repro.service.fleet.server import FleetServer
from repro.service.fleet.worker import FleetWorker

__all__ = [
    "FleetTask",
    "TaskBoard",
    "FleetClient",
    "FleetClientError",
    "FleetEvaluator",
    "StoreReadCache",
    "FaultInjector",
    "FaultyObjective",
    "FleetFrontend",
    "FleetServer",
    "FleetWorker",
]
