"""Repository-level pytest configuration.

Ensures the ``src`` layout is importable even when the package has not been
installed in the current environment (e.g. running ``pytest`` straight from
a fresh checkout on an offline machine).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402


@pytest.fixture
def scripted():
    """Factory for an algorithm proposing a fixed list of points in order.

    ``scripted(space, points)`` takes parameter-value mappings (or raw
    unit-cube arrays, which the driver clips) and proposes one per ask
    until the list runs out; every value the driver tells back lands in
    ``.told``, in ask order — a test's handle on what each candidate
    evaluated to.
    """
    import numpy as np

    from repro.core.algorithms import CalibrationAlgorithm

    class Scripted(CalibrationAlgorithm):
        name = "scripted"

        def __init__(self, space, points):
            super().__init__()
            self.units = [
                space.to_unit_array(p) if isinstance(p, dict) else np.asarray(p, float)
                for p in points
            ]
            self.told = []

        def _setup(self):
            self._next = 0

        def _generate(self, rng, n):
            if self._next == len(self.units):
                return None
            self._next += 1
            return [self.units[self._next - 1]]

        def _observe(self, candidates, values):
            self.told.extend(values)

    return Scripted


@pytest.fixture
def fleet_driver():
    """A fleet job's driver, as a class.

    ``fleet_driver(space, objective, config=..., **options)`` is an
    ``AsyncCalibrator`` two candidates wide with ordered tells, whose
    evaluator posts each candidate to a task board; its ``run`` starts
    one fleet worker on a thread that evaluates the tasks with
    ``objective`` (picklable: the worker's pool process unpickles it)
    under the run's configuration.
    """
    import threading

    from repro.core import AsyncCalibrator
    from repro.service import InMemoryStore
    from repro.service.fleet import FleetEvaluator, FleetWorker, TaskBoard

    class BoardClient:
        """A fleet worker's front-end connection, straight onto a board."""

        def __init__(self, board):
            self.board = board

        def publish(self, task_id, value, duration=0.0):
            return self.board.resolve(task_id, value, duration)

        def fail(self, task_id, failure):
            return self.board.fail(task_id, failure)

    class FleetDriver(AsyncCalibrator):
        def __init__(self, space, objective, config, **options):
            self.board = TaskBoard()
            self.objective = objective
            evaluator = FleetEvaluator(self.board, "job", "fp", spec={"config": config.to_dict()})
            super().__init__(space, objective, max_pending=2, ordered_tells=True,
                             evaluator=evaluator, config=config, **options)

        def run(self, **options):
            worker = FleetWorker(BoardClient(self.board), InMemoryStore(),
                                 resolver=lambda spec: self.objective)
            done = threading.Event()

            def serve():
                while not done.is_set():
                    for task in self.board.wait_for_tasks(0.05):
                        worker.handle_task(task.to_dict())
                worker.close()

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            try:
                return super().run(**options)
            finally:
                self.evaluator.close()
                done.set()
                thread.join(timeout=30)

    return FleetDriver
