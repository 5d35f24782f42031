"""Bridging the HEP case study into the calibration service.

The service core (:mod:`repro.service.server`) is simulator-agnostic; this
module knows how to turn a *job specification* — the plain JSON-compatible
dictionary the CLI writes into a spool — into a
:class:`~repro.service.jobs.CalibrationRequest` for the case-study
simulator.

One :class:`~repro.hepsim.groundtruth.GroundTruthGenerator` is shared
across every request built by the same factory, so a server process pays
for each scenario's ground truth at most once.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.core.async_driver import RunConfig
from repro.core.budget import Budget, EvaluationBudget, TimeBudget
from repro.hepsim.calibration import CaseStudyProblem
from repro.hepsim.groundtruth import GroundTruthGenerator
from repro.hepsim.scenario import Scenario
from repro.service.jobs import CalibrationRequest

__all__ = ["CaseStudyRequestFactory", "spec_budget"]

def spec_budget(spec: dict[str, Any]) -> Budget:
    """The budget described by a job specification.

    ``seconds`` (wall-clock, the paper's bound T) wins over
    ``evaluations`` when both are present; the default is 100 evaluations.
    """
    seconds = spec.get("seconds")
    if seconds:
        return TimeBudget(float(seconds))
    return EvaluationBudget(int(spec.get("evaluations") or 100))


class CaseStudyRequestFactory:
    """Builds :class:`CalibrationRequest` objects from job specifications.

    A specification is a dictionary with the keys ``platform``, ``scale``,
    ``icds`` (optional list), ``algorithm``, ``metric``, ``evaluations`` /
    ``seconds``, ``seed`` and ``config`` (a ``RunConfig.to_dict()``) —
    exactly what ``repro submit`` persists.
    """

    def __init__(self, generator: GroundTruthGenerator | None = None) -> None:
        self.generator = generator if generator is not None else GroundTruthGenerator()
        self._problems: dict[str, CaseStudyProblem] = {}

    def problem(
        self,
        platform: str,
        scale: str = "calib",
        icds: Sequence[float] | None = None,
        metric: str = "mre",
    ) -> CaseStudyProblem:
        """The (cached) case-study problem for one scenario specification."""
        scenario = Scenario.preset(scale, platform, icds)
        # cache_key() only encodes the ICD *count*; the actual grid values
        # must participate or two jobs with different same-length grids
        # would silently share one problem (and poison the store).
        icd_part = ",".join(f"{icd:g}" for icd in scenario.icd_values)
        problem_key = f"{scenario.cache_key()}|icds[{icd_part}]|{metric}"
        if problem_key not in self._problems:
            self._problems[problem_key] = CaseStudyProblem.create(
                scenario, generator=self.generator, metric=metric
            )
        return self._problems[problem_key]

    def request(self, spec: dict[str, Any]) -> CalibrationRequest:
        """Build the calibration request for one job specification."""
        problem = self.problem(
            platform=spec.get("platform", "FCSN"),
            scale=spec.get("scale", "calib"),
            icds=spec.get("icds"),
            metric=spec.get("metric", "mre"),
        )
        return CalibrationRequest(
            space=problem.space,
            objective=problem.objective,
            fingerprint=problem.fingerprint(),
            algorithm=spec.get("algorithm", "random"),
            budget=spec_budget(spec),
            seed=int(spec.get("seed", 0)),
            label=spec.get("label", ""),
            config=RunConfig.from_dict(spec.get("config") or {}),
            metadata={
                k: spec[k]
                for k in ("platform", "scale", "icds", "metric", "evaluations", "seconds")
                if spec.get(k) is not None
            },
        )
