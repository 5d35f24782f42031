"""Generalisability of calibrations across compute-to-data ratios.

Section IV.C.2 of the paper makes a sharp observation: because the
ground-truth workload stresses a single bottleneck resource, "the
calibrated simulator is valid only to simulate the execution of workloads
that would experience the same performance bottleneck", i.e. workloads
"with the same ratio of compute to data volumes as the ground-truth
workload".  The paper leaves quantifying that limitation to future work;
this module provides the machinery to do it in the reproduction:

* :func:`with_compute_data_ratio` derives a scenario whose per-byte
  compute volume is scaled by a factor (everything else unchanged), which
  moves the workload's bottleneck between the CPU, the WAN and the HDD;
* :func:`generalization_study` calibrates on the base ratio and evaluates
  the resulting parameter values against ground truth generated for the
  other ratios, alongside the HUMAN calibration and the hidden true
  values — making the accuracy cliff (or its absence) measurable.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.core.budget import Budget, EvaluationBudget
from repro.core.result import CalibrationResult
from repro.hepsim.calibration import CaseStudyProblem
from repro.hepsim.groundtruth import GroundTruthGenerator
from repro.hepsim.platforms import CalibrationValues
from repro.hepsim.scenario import Scenario
from repro.hepsim.workload import constant

__all__ = [
    "with_compute_data_ratio",
    "RatioEvaluation",
    "GeneralizationStudy",
    "generalization_study",
]


def with_compute_data_ratio(scenario: Scenario, factor: float) -> Scenario:
    """A scenario whose compute-to-data ratio is scaled by ``factor``.

    ``factor > 1`` makes jobs more compute-heavy (CPU-bound for large
    factors); ``factor < 1`` makes them more data-heavy (network- or
    disk-bound).  The base workload's structure (job count, file count and
    sizes) is untouched so that only the bottleneck moves.
    """
    if factor <= 0:
        raise ValueError(f"the ratio factor must be positive, got {factor}")
    base = scenario.workload
    workload = dataclasses.replace(
        base, flops_per_byte=constant(base.flops_per_byte.value * factor)
    )
    return dataclasses.replace(scenario, workload=workload)


@dataclasses.dataclass(frozen=True)
class RatioEvaluation:
    """Accuracy of several calibrations at one compute-to-data ratio."""

    factor: float
    calibrated_mre: float
    human_mre: float
    true_values_mre: float

    @property
    def degradation(self) -> float:
        """How much worse the automated calibration is at this ratio than
        the (hidden) true parameter values."""
        return self.calibrated_mre - self.true_values_mre


@dataclasses.dataclass
class GeneralizationStudy:
    """Outcome of :func:`generalization_study`."""

    platform: str
    base_factor: float
    calibration: CalibrationResult
    calibrated_values: CalibrationValues
    evaluations: dict[float, RatioEvaluation]

    def worst_factor(self) -> float:
        """The ratio factor where the automated calibration degrades most."""
        return max(self.evaluations.values(), key=lambda e: e.degradation).factor

    def summary_rows(self) -> list:
        """Rows of (factor, calibrated, human, true) MREs, sorted by factor."""
        return [
            [e.factor, e.calibrated_mre, e.human_mre, e.true_values_mre]
            for e in sorted(self.evaluations.values(), key=lambda e: e.factor)
        ]


def generalization_study(
    platform: str = "FCSN",
    factors: Sequence[float] = (0.25, 1.0, 4.0),
    base_factor: float = 1.0,
    algorithm: str = "random",
    budget: Budget | None = None,
    icd_values: Sequence[float] | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> GeneralizationStudy:
    """Calibrate at ``base_factor`` and evaluate across ``factors``.

    For every factor the ground truth is generated by the reference system
    for a workload with that compute-to-data ratio; the parameter values
    calibrated at the base ratio, the HUMAN values and the hidden true
    values are then scored against it.  The paper's prediction is that the
    automated calibration degrades away from the base ratio (because
    non-bottleneck parameters were never constrained) while the true
    values stay accurate everywhere.
    """
    generator = generator or GroundTruthGenerator()
    budget = budget or EvaluationBudget(150)
    base_scenario = with_compute_data_ratio(
        Scenario.preset(scale, platform, icd_values), base_factor
    )
    base_problem = CaseStudyProblem.create(base_scenario, generator=generator)
    calibration = base_problem.calibrate(algorithm=algorithm, budget=budget, seed=seed)
    calibrated_values = base_problem.calibrated_values(calibration)
    human_values = base_problem.human_values()
    true_values = base_problem.true_values()

    evaluations: dict[float, RatioEvaluation] = {}
    for factor in factors:
        scenario = with_compute_data_ratio(Scenario.preset(scale, platform, icd_values), factor)
        problem = CaseStudyProblem.create(scenario, generator=generator)
        evaluations[factor] = RatioEvaluation(
            factor=factor,
            calibrated_mre=problem.evaluate(calibrated_values),
            human_mre=problem.evaluate(human_values),
            true_values_mre=problem.evaluate(true_values),
        )

    return GeneralizationStudy(
        platform=platform,
        base_factor=base_factor,
        calibration=calibration,
        calibrated_values=calibrated_values,
        evaluations=evaluations,
    )
