"""The calibrator: the paper's serial ask/tell loop, resumable by replay.

A :class:`Calibrator` owns one calibration run: it instantiates the
algorithm and drives it through the ask/tell protocol of
:class:`~repro.core.algorithms.CalibrationAlgorithm` one candidate at a
time, evaluating each inline — which reproduces the paper's blocking
loops exactly.  It is the one evaluation loop of
:class:`~repro.core.async_driver.AsyncCalibrator` with a single inline
candidate in flight; the parallel counterparts are
:class:`~repro.core.parallel.BatchCalibrator` and
:class:`~repro.core.async_driver.AsyncCalibrator` itself.

Typical use (this is what :mod:`repro.hepsim.calibration` does for the
case study):

.. code-block:: python

    space = ParameterSpace([...])
    objective_fn = lambda values: simulate_and_compute_mre(values)
    calibrator = Calibrator(space, objective_fn,
                            algorithm="random",
                            budget=EvaluationBudget(500),
                            seed=0)
    result = calibrator.run()
    result.best_values   # the calibrated parameter values

A run is resumable without any serialised search state: every algorithm
is a pure function of the seeded rng and the results it is told, so the
run's *tell log* — one record per tell, ``result.log`` — is its
checkpoint, handed to a sink as JSON entries while the run goes on:

.. code-block:: python

    log = []
    calibrator.run(checkpoint_every=50, on_checkpoint=log.extend)
    # ... the process dies; later, in a fresh process:
    resumed = Calibrator(space, objective_fn, algorithm="random",
                         budget=EvaluationBudget(500), seed=0)
    result = resumed.run(resume=log)   # finishes the trajectory
    result.log   # every tell, the replayed ones too; result.history ⊆ it

Resuming replays the log (see
:meth:`~repro.core.async_driver.AsyncCalibrator.run`): a fresh algorithm
is asked and told exactly as the interrupted run was, each replayed
candidate is checked against the logged point, and the logged values
re-enter the history, the cache and the budget accounting without a
single simulator call.  The calibration service appends the log to a
file next to its job spool, so a crashed server finishes jobs instead of
re-running them.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.algorithms import CalibrationAlgorithm
from repro.core.async_driver import AsyncCalibrator, RunConfig
from repro.core.budget import Budget
from repro.core.evaluation import CacheBackend
from repro.core.parameters import ParameterSpace

__all__ = ["Calibrator"]


class Calibrator(AsyncCalibrator):
    """Runs one calibration: an algorithm exploring a parameter space under
    a budget, minimising a simulator-accuracy objective, one inline
    evaluation at a time.

    ``algorithm`` is a registry name or a configured instance, so
    ``Calibrator(..., algorithm=get_algorithm("cmaes", population_size=8))``
    runs a non-default algorithm.  The remaining parameters are those of
    :class:`~repro.core.async_driver.AsyncCalibrator`; the default
    ``config`` (``RunConfig()``) keeps every code path byte-identical to a
    fault-tolerance-unaware run.
    """

    _driver = "serial"

    def __init__(
        self,
        space: ParameterSpace,
        objective_function: Callable[[dict[str, float]], float],
        algorithm: str | CalibrationAlgorithm = "random",
        budget: Budget | None = None,
        seed: int = 0,
        cache: bool | CacheBackend = True,
        config: RunConfig | None = None,
    ) -> None:
        super().__init__(
            space, objective_function, algorithm=algorithm, workers=1, mode="serial",
            max_pending=1, budget=budget, seed=seed, cache=cache, config=config,
        )
