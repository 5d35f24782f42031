"""The calibration framework (the paper's primary contribution).

Given a black-box simulator (any callable mapping parameter values to an
accuracy value), a :class:`~repro.core.parameters.ParameterSpace` with
user-specified ranges (searched in log2 representation by default, as in
Section III.A), an accuracy metric and a budget (wall-clock time bound
or maximum number of simulator invocations), a
:class:`~repro.core.calibrator.Calibrator` runs one of the calibration
algorithms of Section III.B — Grid search, Random search, Gradient descent
(fixed or dynamic step) — or one of the extensions the paper lists as
future work (Latin hypercube sampling, simulated annealing, coordinate
descent, Bayesian optimization) and returns the best calibration found
along with the full evaluation history.

Around that loop sit the pooled drivers
(:class:`~repro.core.parallel.BatchCalibrator`,
:class:`~repro.core.async_driver.AsyncCalibrator`), the
:class:`~repro.core.async_driver.RunConfig` every driver takes (failure
policies and cache-hit replay), checkpoint/result serialisation and text reports.
"""

from repro.core.algorithms import (
    ALGORITHMS,
    CMAES,
    BayesianOptimization,
    CalibrationAlgorithm,
    CoordinateDescent,
    DifferentialEvolution,
    GradientDescent,
    GridSearch,
    LatinHypercubeSearch,
    NelderMead,
    PatternSearch,
    RandomSearch,
    SimulatedAnnealing,
    SobolSearch,
    TPESearch,
    get_algorithm,
)
from repro.core.budget import (
    Budget,
    EvaluationBudget,
    TimeBudget,
    remaining_evaluations,
)
from repro.core.calibrator import Calibrator
from repro.core.evaluation import CacheBackend, DictCache, Evaluation
from repro.core.faults import (
    CircuitBreaker,
    CircuitOpen,
    EvaluationFailed,
    EvaluationFailure,
    EvaluationTimeout,
    FailurePolicy,
    RetryPolicy,
    TransientEvaluationError,
)
from repro.core.history import CalibrationHistory
from repro.core.metrics import (
    max_relative_error,
    mean_absolute_error,
    mean_relative_error,
    root_mean_squared_error,
)
from repro.core.async_driver import AsyncCalibrator, RunConfig
from repro.core.parallel import BatchCalibrator, ParallelEvaluator
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.reporting import calibration_report, convergence_sparkline
from repro.core.result import CalibrationResult
from repro.core.serialization import save_result

__all__ = [
    "ALGORITHMS",
    "AsyncCalibrator",
    "BatchCalibrator",
    "BayesianOptimization",
    "Budget",
    "CMAES",
    "CacheBackend",
    "CalibrationAlgorithm",
    "CalibrationHistory",
    "CalibrationResult",
    "Calibrator",
    "CircuitBreaker",
    "CircuitOpen",
    "CoordinateDescent",
    "DictCache",
    "DifferentialEvolution",
    "Evaluation",
    "EvaluationBudget",
    "EvaluationFailed",
    "EvaluationFailure",
    "EvaluationTimeout",
    "FailurePolicy",
    "GradientDescent",
    "GridSearch",
    "LatinHypercubeSearch",
    "NelderMead",
    "ParallelEvaluator",
    "Parameter",
    "ParameterSpace",
    "PatternSearch",
    "RandomSearch",
    "RetryPolicy",
    "RunConfig",
    "SimulatedAnnealing",
    "SobolSearch",
    "TPESearch",
    "TimeBudget",
    "TransientEvaluationError",
    "calibration_report",
    "convergence_sparkline",
    "get_algorithm",
    "max_relative_error",
    "mean_absolute_error",
    "mean_relative_error",
    "remaining_evaluations",
    "root_mean_squared_error",
    "save_result",
]
