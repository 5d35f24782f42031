"""Glue between the case study and the calibration framework.

This module turns a :class:`~repro.hepsim.scenario.Scenario` plus its
ground truth into a calibration problem for :mod:`repro.core`:

* :func:`build_parameter_space` — the paper's parameter space: every
  parameter gets the same ``2**20 .. 2**36`` range and the log2
  representation (Section IV.B, "Parameter Ranges");
* :func:`make_objective` — a callable mapping a parameter-value dictionary
  to the accuracy metric (MRE over the per-node / per-ICD average job
  execution times, by default);
* :class:`CaseStudyProblem` — a convenience bundle (scenario, ground
  truth, objective, HUMAN calibration, parameter space) with a one-call
  :meth:`~CaseStudyProblem.calibrate` method, which is what the examples
  and the benchmark harness use.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Callable, Mapping, Sequence

from repro.core.budget import Budget, EvaluationBudget
from repro.core.calibrator import Calibrator
from repro.core.faults import FailurePolicy, RetryPolicy
from repro.core.parallel import BatchCalibrator
from repro.core.metrics import MetricFunction, get_metric
from repro.core.parameters import Parameter, ParameterSpace
from repro.core.result import CalibrationResult
from repro.hepsim.groundtruth import GroundTruthGenerator
from repro.hepsim.human import human_calibration
from repro.hepsim.platforms import CalibrationValues
from repro.hepsim.scenario import Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.hepsim.trace import ExecutionTrace

__all__ = [
    "PARAMETER_RANGE",
    "CaseStudyObjective",
    "CaseStudyProblem",
    "build_parameter_space",
    "make_objective",
    "scenario_fingerprint",
]

#: The paper gives every calibration parameter the same 2**20 .. 2**36 range.
PARAMETER_RANGE = (2.0**20, 2.0**36)


def build_parameter_space(
    low: float = PARAMETER_RANGE[0],
    high: float = PARAMETER_RANGE[1],
    scale: str = "log2",
    include_page_cache: bool = True,
) -> ParameterSpace:
    """The case-study parameter space.

    ``scale`` can be set to ``"linear"`` to reproduce the sampling-ablation
    benchmark; ``include_page_cache=False`` restricts the space to the four
    parameters the paper's headline count mentions (useful on the SC
    platforms, where the page cache is disabled anyway).
    """
    parameters = [
        Parameter("core_speed", low, high, scale=scale, unit="flop/s"),
        Parameter("disk_bandwidth", low, high, scale=scale, unit="B/s"),
        Parameter("lan_bandwidth", low, high, scale=scale, unit="B/s"),
        Parameter("wan_bandwidth", low, high, scale=scale, unit="B/s"),
    ]
    if include_page_cache:
        parameters.append(Parameter("page_cache_bandwidth", low, high, scale=scale, unit="B/s"))
    return ParameterSpace(parameters)


def scenario_fingerprint(
    scenario: Scenario,
    metric: str = "mre",
    icd_values: Sequence[float] | None = None,
) -> str:
    """A stable content address for one calibration objective.

    Two case-study objectives produce the same fingerprint iff they would
    return the same value for every parameter vector: the fingerprint
    hashes everything the objective depends on — the scenario (platform,
    workload dimensions, site scale), the simulation granularity (block and
    buffer sizes), the ICD grid the metrics are computed over, and the
    accuracy metric itself.  The ground truth is derived deterministically
    from the scenario, so it needs no separate contribution.

    The service keys its shared :class:`~repro.service.store.EvaluationStore`
    on this fingerprint, which is what lets independent jobs (and future
    server processes) reuse each other's simulations safely.
    """
    icds = list(icd_values) if icd_values is not None else list(scenario.icd_values)
    payload = "|".join(
        [
            scenario.cache_key(),
            f"B{scenario.block_size:g}",
            f"b{scenario.buffer_size:g}",
            "icds" + ",".join(f"{icd:g}" for icd in icds),
            f"metric:{metric}",
        ]
    )
    return "hepsim-" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _values_from_mapping(values: Mapping[str, float]) -> CalibrationValues:
    """Build :class:`CalibrationValues` from a possibly partial mapping.

    Parameters missing from the mapping (e.g. the page-cache bandwidth when
    calibrating only four parameters) fall back to neutral defaults that do
    not throttle anything.
    """
    defaults = {
        "core_speed": 2.0**31,
        "disk_bandwidth": 2.0**27,
        "lan_bandwidth": 2.0**33,
        "wan_bandwidth": 2.0**30,
        "page_cache_bandwidth": 2.0**34,
    }
    merged = dict(defaults)
    merged.update({k: float(v) for k, v in values.items()})
    return CalibrationValues.from_dict(merged)


class CaseStudyObjective:
    """The accuracy objective for one scenario, as a picklable callable.

    Maps a parameter-value dictionary to the chosen accuracy metric
    computed over the (node, ICD) average-job-time metrics — the paper's
    33-metric MRE when the scenario uses the full ICD grid.  Being a plain
    class (rather than a closure) it can be shipped to worker processes by
    :class:`repro.core.parallel.BatchCalibrator`, matching the paper's
    one-simulation-per-core protocol.
    """

    def __init__(
        self,
        scenario: Scenario,
        ground_truth: ExecutionTrace,
        metric: str | MetricFunction = "mre",
        icd_values: Sequence[float] | None = None,
    ) -> None:
        self.scenario = scenario
        self.metric_name = metric if isinstance(metric, str) else getattr(metric, "__name__", "custom")
        self._metric_fn = get_metric(metric) if isinstance(metric, str) else metric
        self.icd_values = list(icd_values) if icd_values is not None else list(scenario.icd_values)
        self.reference_metrics = ground_truth.metrics(
            nodes=scenario.node_names, icds=self.icd_values
        )
        self._simulator = HEPSimulator(scenario)

    def simulate(self, values: Mapping[str, float]) -> ExecutionTrace:
        """Run the calibratable simulator once and return its trace."""
        calibration = _values_from_mapping(values)
        return self._simulator.run_trace(calibration, icd_values=self.icd_values)

    def __call__(self, values: dict[str, float]) -> float:
        trace = self.simulate(values)
        candidate_metrics = trace.metrics(nodes=self.scenario.node_names, icds=self.icd_values)
        return self._metric_fn(self.reference_metrics, candidate_metrics)


def make_objective(
    scenario: Scenario,
    ground_truth: ExecutionTrace,
    metric: str | MetricFunction = "mre",
    icd_values: Sequence[float] | None = None,
) -> CaseStudyObjective:
    """Build the accuracy objective for one scenario.

    The returned callable maps a parameter-value dictionary to the chosen
    accuracy metric computed over the (node, ICD) average-job-time metrics,
    i.e. the paper's 33-metric MRE when the scenario uses the full ICD grid.
    """
    return CaseStudyObjective(scenario, ground_truth, metric=metric, icd_values=icd_values)


@dataclasses.dataclass
class CaseStudyProblem:
    """A ready-to-calibrate case study: scenario + ground truth + objective."""

    scenario: Scenario
    ground_truth: ExecutionTrace
    space: ParameterSpace
    objective: Callable[[dict[str, float]], float]
    generator: GroundTruthGenerator
    metric_name: str = "mre"

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def create(
        scenario: Scenario,
        generator: GroundTruthGenerator | None = None,
        metric: str = "mre",
        parameter_space: ParameterSpace | None = None,
    ) -> CaseStudyProblem:
        generator = generator if generator is not None else GroundTruthGenerator()
        ground_truth = generator.get(scenario)
        if parameter_space is not None:
            space = parameter_space
        else:
            # The paper calibrates four parameters; the page-cache bandwidth
            # only needs to be part of the search on the platforms where the
            # page cache is enabled (see docs/architecture.md, "Reproduction
            # deviations").
            space = build_parameter_space(
                include_page_cache=scenario.config.page_cache_enabled
            )
        objective = make_objective(scenario, ground_truth, metric=metric)
        return CaseStudyProblem(
            scenario=scenario,
            ground_truth=ground_truth,
            space=space,
            objective=objective,
            generator=generator,
            metric_name=metric,
        )

    # ------------------------------------------------------------------ #
    # evaluation helpers
    # ------------------------------------------------------------------ #
    def evaluate(self, values: CalibrationValues | Mapping[str, float]) -> float:
        """Accuracy of an arbitrary calibration (e.g. HUMAN or the truth)."""
        mapping = values.to_dict() if isinstance(values, CalibrationValues) else dict(values)
        return float(self.objective(mapping))

    def human_values(self) -> CalibrationValues:
        """The HUMAN calibration for this scenario's platform."""
        return human_calibration(self.generator, self.scenario, self.scenario.platform_name)

    def true_values(self) -> CalibrationValues:
        """The reference system's hidden true parameter values (for tests and
        sanity checks only — the calibration never sees them)."""
        return self.generator.true_values(self.scenario)

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    def calibrate(
        self,
        algorithm: str = "random",
        budget: Budget | None = None,
        seed: int = 0,
        workers: int = 1,
        mode: str = "process",
        algorithm_options: dict[str, object] | None = None,
        asynchronous: bool = False,
        max_pending: int | None = None,
        cache: object | None = None,
        retry_policy: RetryPolicy | None = None,
        failure_policy: FailurePolicy | None = None,
        eval_timeout: float | None = None,
    ) -> CalibrationResult:
        """Run one automated calibration and return its result.

        With ``workers > 1`` the run goes through
        :class:`~repro.core.parallel.BatchCalibrator`: the algorithm's
        ask batches are evaluated concurrently (one simulation per core,
        as in the paper's protocol — the objective is picklable, so the
        default process pool works).  With ``asynchronous=True`` it goes
        through :class:`~repro.core.async_driver.AsyncCalibrator`
        instead: results are told out of order as simulations complete,
        so the pool never waits for a batch's slowest member
        (``max_pending`` bounds the in-flight work; default ``workers``).
        ``algorithm_options`` are forwarded to the algorithm's
        constructor.

        ``cache`` accepts an external
        :class:`~repro.core.evaluation.CacheBackend` — typically a
        :class:`~repro.service.cache.StoreBackedCache` over a persistent
        store keyed by :meth:`fingerprint`, which is how ``repro
        calibrate --store`` reuses simulations across runs.  External
        caches record first-seen hits in the history and charge them
        against the budget (as the service does), so a warm
        evaluation-budget run replays the cold run's trajectory.

        ``retry_policy``, ``failure_policy`` and ``eval_timeout`` forward
        to whichever driver runs the calibration (see
        :mod:`repro.core.faults` and ``docs/robustness.md``); all three
        default to ``None``, leaving every trajectory byte-identical to a
        fault-tolerance-unaware run.
        """
        budget = budget if budget is not None else EvaluationBudget(100)
        cache_kwargs: dict[str, object] = {}
        if cache is not None:
            cache_kwargs = {
                "cache": cache,
                "record_cache_hits": True,
                "count_cache_hits": True,
            }
        fault_kwargs: dict[str, object] = {}
        if retry_policy is not None:
            fault_kwargs["retry_policy"] = retry_policy
        if failure_policy is not None:
            fault_kwargs["failure_policy"] = failure_policy
        if eval_timeout is not None:
            fault_kwargs["eval_timeout"] = eval_timeout
        if asynchronous:
            from repro.core.async_driver import AsyncCalibrator

            return AsyncCalibrator(
                self.space,
                self.objective,
                algorithm=algorithm,
                budget=budget,
                seed=seed,
                workers=workers,
                mode=mode,
                max_pending=max_pending,
                algorithm_options=algorithm_options,
                **cache_kwargs,
                **fault_kwargs,
            ).run()
        if workers > 1:
            return BatchCalibrator(
                self.space,
                self.objective,
                algorithm=algorithm,
                budget=budget,
                seed=seed,
                workers=workers,
                mode=mode,
                algorithm_options=algorithm_options,
                **cache_kwargs,
                **fault_kwargs,
            ).run()
        calibrator = Calibrator(
            self.space,
            self.objective,
            algorithm=algorithm,
            budget=budget,
            seed=seed,
            algorithm_options=algorithm_options,
            **cache_kwargs,
            **fault_kwargs,
        )
        return calibrator.run()

    def calibrated_values(self, result: CalibrationResult) -> CalibrationValues:
        """Convert a calibration result into :class:`CalibrationValues`."""
        return _values_from_mapping(result.best_values)

    def fingerprint(self) -> str:
        """The scenario fingerprint of this problem's objective (the shared
        evaluation-store key; see :func:`scenario_fingerprint`)."""
        icds = getattr(self.objective, "icd_values", None)
        return scenario_fingerprint(self.scenario, metric=self.metric_name, icd_values=icds)
