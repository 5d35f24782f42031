"""Extension experiments beyond the paper's tables and figures.

The paper's conclusion and discussion sections sketch several follow-up
studies; this module implements them so that the benchmark harness can run
them alongside the paper's own tables:

* :func:`generalization_experiment` — quantify Section IV.C.2's warning
  that a calibration computed from a single-bottleneck workload does not
  generalise to workloads with other compute-to-data ratios;
* :func:`ablation_accuracy_metrics` — Section IV.C.2 also argues that a
  richer accuracy metric would constrain more parameters; this ablation
  calibrates against several metrics and scores every result on the
  paper's MRE;
* :func:`ablation_reference_noise` — how robust the automated calibration
  is to the stochastic noise of the ground-truth system (real systems are
  noisy; the simulator is deterministic);
* :func:`parallel_scaling_experiment` — the paper evaluates candidates on
  a 40-core node; this experiment measures how the number of parallel
  workers changes the number of evaluations (and the accuracy) affordable
  within a fixed wall-clock budget;
* :func:`service_throughput_experiment` — the calibration service keeps a
  shared evaluation store across jobs (:mod:`repro.service`); this
  experiment submits the same calibration twice and measures how much of
  the second job's wall-clock the warm store saves, verifying that both
  jobs reproduce a plain :class:`~repro.core.calibrator.Calibrator` run
  exactly.

Every function returns an :class:`~repro.analysis.tables.ExperimentResult`
and accepts the same ``scale`` / budget overrides as the table
reproductions in :mod:`repro.analysis.experiments`.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence

from repro.analysis.experiments import (
    default_evaluation_budget,
    default_time_budget,
    _make_problem,
)
from repro.analysis.tables import ExperimentResult
from repro.core.budget import EvaluationBudget, TimeBudget
from repro.core.parallel import BatchCalibrator
from repro.hepsim.calibration import CaseStudyProblem
from repro.hepsim.generalization import generalization_study
from repro.hepsim.groundtruth import GroundTruthGenerator, ReferenceSystemConfig
from repro.hepsim.scenario import REDUCED_ICD_VALUES, Scenario

__all__ = [
    "generalization_experiment",
    "ablation_accuracy_metrics",
    "ablation_reference_noise",
    "parallel_scaling_experiment",
    "service_throughput_experiment",
]


_SCENARIO_FACTORIES = {
    "paper": Scenario.paper,
    "bench": Scenario.bench,
    "calib": Scenario.calib,
    "tiny": Scenario.tiny,
}


# ---------------------------------------------------------------------- #
# generalisation across compute-to-data ratios (Section IV.C.2)
# ---------------------------------------------------------------------- #
def generalization_experiment(
    platform: str = "FCSN",
    factors: Sequence[float] = (0.25, 1.0, 4.0),
    algorithm: str = "random",
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Calibrate at the base ratio, evaluate across ratios.

    Expected shape: the automated calibration is excellent at factor 1.0
    (the ratio it was calibrated on) and degrades at the other factors,
    while the hidden true parameter values stay accurate everywhere —
    exactly the generalisability limitation Section IV.C.2 describes.
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    study = generalization_study(
        platform=platform,
        factors=factors,
        algorithm=algorithm,
        budget=EvaluationBudget(budget_evaluations),
        icd_values=icd_values,
        seed=seed,
        generator=generator,
        scale=scale,
    )
    rows = []
    for factor, calibrated, human, true in study.summary_rows():
        rows.append(
            [
                f"x{factor:g}",
                f"{calibrated:.2f}%",
                f"{human:.2f}%",
                f"{true:.2f}%",
            ]
        )
    return ExperimentResult(
        name="generalization",
        title=f"Generalisation across compute-to-data ratios ({algorithm.upper()}, {platform})",
        headers=["Compute/data ratio", "Calibrated at x1", "HUMAN", "True values"],
        rows=rows,
        notes=(
            "The calibration was computed at ratio x1 only; per Section IV.C.2 it should "
            "degrade at the other ratios while the hidden true values stay accurate."
        ),
        extra={"rows": study.summary_rows(), "worst_factor": study.worst_factor()},
    )


# ---------------------------------------------------------------------- #
# accuracy-metric ablation (Section IV.C.2, second solution)
# ---------------------------------------------------------------------- #
def ablation_accuracy_metrics(
    platform: str = "FCSN",
    algorithm: str = "random",
    metrics: Sequence[str] = ("mre", "mae", "rmse", "max_re"),
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Calibrate against several accuracy metrics; report every result's MRE.

    All calibrations are scored on the paper's MRE so that they are
    directly comparable; the calibration objective itself varies.
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    scenario = _SCENARIO_FACTORIES[scale](platform, icd_values=tuple(icd_values))

    # The MRE problem is the common yardstick.
    yardstick = CaseStudyProblem.create(scenario, generator=generator, metric="mre")

    rows = []
    detail: dict[str, float] = {}
    for metric in metrics:
        problem = CaseStudyProblem.create(scenario, generator=generator, metric=metric)
        result = problem.calibrate(
            algorithm=algorithm, budget=EvaluationBudget(budget_evaluations), seed=seed
        )
        mre = yardstick.evaluate(problem.calibrated_values(result))
        rows.append([metric.upper(), f"{result.best_value:.2f}", f"{mre:.2f}%", result.evaluations])
        detail[metric] = mre
    return ExperimentResult(
        name="ablation_metrics",
        title=f"Calibration objective ablation ({algorithm.upper()}, {platform})",
        headers=["Objective metric", "Best objective value", "Resulting MRE", "Evaluations"],
        rows=rows,
        notes=(
            "Each calibration minimises a different accuracy metric with the same budget of "
            f"{budget_evaluations} evaluations; the third column scores every result on the "
            "paper's MRE."
        ),
        extra=detail,
    )


# ---------------------------------------------------------------------- #
# ground-truth noise ablation
# ---------------------------------------------------------------------- #
def ablation_reference_noise(
    platform: str = "FCSN",
    algorithm: str = "random",
    noise_levels: Sequence[float] = (0.0, 0.02, 0.1),
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    scale: str = "calib",
) -> ExperimentResult:
    """Calibrate against ground truth generated with increasing noise.

    The reference system's per-job compute noise and per-operation I/O
    noise are scaled together.  The calibration cannot do better than the
    noise floor, so the best achievable MRE should grow with the noise
    level while remaining far below the HUMAN calibration.
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    rows = []
    detail: dict[str, tuple[float, float]] = {}
    for sigma in noise_levels:
        config = dataclasses.replace(
            ReferenceSystemConfig(), compute_noise_sigma=sigma, io_noise_sigma=sigma
        )
        generator = GroundTruthGenerator(config=config, use_disk_cache=False)
        problem = _make_problem(platform, icd_values, generator, scale)
        result = problem.calibrate(
            algorithm=algorithm, budget=EvaluationBudget(budget_evaluations), seed=seed
        )
        human = problem.evaluate(problem.human_values())
        rows.append([f"{sigma:g}", f"{result.best_value:.2f}%", f"{human:.2f}%"])
        detail[str(sigma)] = (result.best_value, human)
    return ExperimentResult(
        name="ablation_noise",
        title=f"Calibration accuracy vs ground-truth noise ({algorithm.upper()}, {platform})",
        headers=["Noise sigma", "Calibrated MRE", "HUMAN MRE"],
        rows=rows,
        notes=(
            "The reference system's stochastic noise is scaled; the calibrated MRE should track "
            "the noise floor and stay below HUMAN at every level."
        ),
        extra=detail,
    )


# ---------------------------------------------------------------------- #
# parallel evaluation scaling (the paper's 40-core protocol)
# ---------------------------------------------------------------------- #
#: accepted ``sampler`` names -> the registered algorithm that draws them
_SAMPLER_ALGORITHMS = {"uniform": "random", "lhs": "lhs", "sobol": "sobol"}


def parallel_scaling_experiment(
    platform: str = "FCSN",
    worker_counts: Sequence[int] = (1, 2, 4),
    sampler: str = "lhs",
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_seconds: float | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
    mode: str | None = None,
) -> ExperimentResult:
    """Fixed wall-clock budget, varying number of parallel workers.

    More workers evaluate more candidates within the same time bound ``T``,
    which is the mechanism by which the paper's protocol benefits from its
    40-core node.  ``mode`` defaults to ``"process"`` (one simulator per
    worker process) and can be forced to ``"serial"`` via the
    ``REPRO_BENCH_SERIAL`` environment variable for constrained CI runs.
    ``sampler`` names the space-filling design (``"uniform"``, ``"lhs"`` or
    ``"sobol"``) the batch driver draws its candidates from.
    """
    algorithm = _SAMPLER_ALGORITHMS.get(sampler.lower())
    if algorithm is None:
        raise ValueError(
            f"unknown sampler {sampler!r}; valid choices: {sorted(_SAMPLER_ALGORITHMS)}"
        )
    budget_seconds = budget_seconds or default_time_budget()
    generator = generator or GroundTruthGenerator()
    if mode is None:
        mode = "serial" if os.environ.get("REPRO_BENCH_SERIAL") else "process"
    problem = _make_problem(platform, icd_values, generator, scale)

    rows = []
    detail: dict[str, dict[str, float]] = {}
    for workers in worker_counts:
        calibrator = BatchCalibrator(
            problem.space,
            problem.objective,
            algorithm=algorithm,
            workers=workers,
            mode=mode if workers > 1 else "serial",
            budget=TimeBudget(budget_seconds),
            seed=seed,
        )
        result = calibrator.run()
        rows.append(
            [
                workers,
                result.evaluations,
                f"{result.best_value:.2f}%",
                f"{result.elapsed:.1f} s",
            ]
        )
        detail[str(workers)] = {
            "evaluations": float(result.evaluations),
            "best": result.best_value,
        }
    return ExperimentResult(
        name="parallel_scaling",
        title=f"Parallel candidate evaluation under a fixed time budget ({platform})",
        headers=["Workers", "Evaluations", "Best MRE", "Elapsed"],
        rows=rows,
        notes=(
            f"Every run gets the same wall-clock budget of {budget_seconds:g} s; more workers "
            "should complete more evaluations and therefore reach a lower (or equal) MRE."
        ),
        extra=detail,
    )


# ---------------------------------------------------------------------- #
# calibration-service throughput (shared evaluation store)
# ---------------------------------------------------------------------- #
def service_throughput_experiment(
    platform: str = "FCSN",
    algorithm: str = "random",
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Submit the same calibration twice through the service.

    The first (cold) job pays for every simulator invocation and fills the
    shared :class:`~repro.service.store.EvaluationStore`; the second (warm)
    job answers every evaluation from the store.  Both must reproduce a
    plain :class:`~repro.core.calibrator.Calibrator` run with the same seed
    exactly, and the warm job should complete in a small fraction of the
    cold job's wall-clock (the ``speedup`` entry of ``extra``).
    """
    from repro.core.calibrator import Calibrator
    from repro.service import CalibrationRequest, CalibrationServer, InMemoryStore

    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    problem = _make_problem(platform, icd_values, generator, scale)

    plain = Calibrator(
        problem.space,
        problem.objective,
        algorithm=algorithm,
        budget=EvaluationBudget(budget_evaluations),
        seed=seed,
    ).run()

    def request() -> CalibrationRequest:
        return CalibrationRequest(
            space=problem.space,
            objective=problem.objective,
            fingerprint=problem.fingerprint(),
            algorithm=algorithm,
            budget=EvaluationBudget(budget_evaluations),
            seed=seed,
        )

    with CalibrationServer(store=InMemoryStore(), workers=1) as server:
        cold = server.submit(request())
        cold.wait()
        warm = server.submit(request())
        warm.wait()

    rows = []
    detail: dict[str, dict[str, float]] = {}
    for label, evaluations, cache_hits, best, elapsed in [
        ("plain", plain.evaluations, 0, plain.best_value, plain.elapsed),
        ("cold job", cold.evaluations, cold.cache_hits, cold.result.best_value, cold.elapsed),
        ("warm job", warm.evaluations, warm.cache_hits, warm.result.best_value, warm.elapsed),
    ]:
        rows.append([label, evaluations, cache_hits, f"{best:.2f}%", f"{elapsed:.2f} s"])
        detail[label.split()[0]] = {
            "evaluations": float(evaluations),
            "cache_hits": float(cache_hits),
            "best": float(best),
            "elapsed": float(elapsed),
            "best_values": {k: float(v) for k, v in (
                plain.best_values if label == "plain" else
                (cold if label == "cold job" else warm).result.best_values
            ).items()},
        }
    detail["speedup"] = {
        "warm_vs_cold": (cold.elapsed / warm.elapsed) if warm.elapsed > 0 else float("inf")
    }
    return ExperimentResult(
        name="service_throughput",
        title=f"Calibration service: warm shared store vs cold ({platform}, {algorithm})",
        headers=["Run", "Simulations", "Cache hits", "Best MRE", "Elapsed"],
        rows=rows,
        notes=(
            f"Identical jobs (seed {seed}, N = {budget_evaluations}); the warm job re-pays "
            "for nothing and must match the plain calibrator byte for byte."
        ),
        extra=detail,
    )
