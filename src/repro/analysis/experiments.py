"""One callable per table / figure of the paper's evaluation section.

Every function returns an :class:`~repro.analysis.tables.ExperimentResult`
whose rows mirror the corresponding table of the paper (or, for Figure 2,
whose ``extra`` payload carries the per-algorithm convergence series).

All experiments are parameterised by an evaluation or time budget so that
the benchmark harness can run them at CI-friendly sizes while the examples
can run them at larger sizes; the defaults can be overridden with the
``REPRO_BENCH_EVALS`` and ``REPRO_BENCH_SECONDS`` environment variables.
The budgets are necessarily much smaller than the paper's 6 hours on 40
cores; docs/architecture.md ("Reproduction deviations") documents the
scaling and which qualitative conclusions survive it.
"""

from __future__ import annotations

import itertools
import os
import statistics
from collections.abc import Sequence

from repro.analysis.figures import render_series
from repro.analysis.survey import build_survey_dataset, summarize_survey
from repro.analysis.tables import ExperimentResult
from repro.core.budget import Budget, EvaluationBudget, TimeBudget
from repro.core.metrics import mean_absolute_error, mean_relative_error
from repro.hepsim.calibration import CaseStudyProblem, build_parameter_space
from repro.hepsim.groundtruth import GroundTruthGenerator
from repro.hepsim.platforms import PLATFORM_CONFIGS, CalibrationValues, platform_ascii_art
from repro.hepsim.scenario import PAPER_ICD_VALUES, REDUCED_ICD_VALUES, Scenario
from repro.hepsim.simulator import HEPSimulator
from repro.hepsim.units import (
    format_bandwidth,
    format_disk_bandwidth,
    format_duration,
    format_speed,
)

__all__ = [
    "default_evaluation_budget",
    "default_time_budget",
    "table1_survey",
    "table2_platforms",
    "table3_simulation_accuracy",
    "table4_calibrated_parameters",
    "table5_icd_subsets",
    "table6_speed_accuracy",
    "figure2_convergence",
    "ablation_sampling_scale",
    "ablation_extension_algorithms",
]

#: Order of the platforms in the paper's tables.
PLATFORM_ORDER = ("SCFN", "FCFN", "SCSN", "FCSN")

#: Order of the calibration methods in Table III.
METHOD_ORDER = ("human", "random", "grid", "gdfix")


def default_evaluation_budget() -> int:
    """Number of simulator invocations per calibration (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_EVALS", "250"))


def default_time_budget() -> float:
    """Wall-clock calibration budget in seconds (env-overridable)."""
    return float(os.environ.get("REPRO_BENCH_SECONDS", "8"))


def _make_problem(
    platform: str,
    icd_values: Sequence[float],
    generator: GroundTruthGenerator | None,
    scale: str = "calib",
) -> CaseStudyProblem:
    factory = {
        "paper": Scenario.paper,
        "bench": Scenario.bench,
        "calib": Scenario.calib,
        "tiny": Scenario.tiny,
    }[scale]
    scenario = factory(platform, icd_values=tuple(icd_values))
    return CaseStudyProblem.create(scenario, generator=generator)


# ---------------------------------------------------------------------- #
# Table I — literature survey
# ---------------------------------------------------------------------- #
def table1_survey() -> ExperimentResult:
    """Table I: calibration practice in 114 SimGrid publications."""
    summary = summarize_survey(build_survey_dataset())
    rows = [
        ["# Publications that only include simulation results", summary.simulation_only],
        ["# Publications that include both simulation and real-world results", summary.with_real_world],
        ["    No comparison thereof", summary.no_comparison],
        ["    Calibration perhaps performed or at best mentioned", summary.calibration_mentioned_at_best],
        ["    Calibration performed and documented", summary.calibration_documented],
        ["Total publications examined", summary.total],
    ]
    return ExperimentResult(
        name="table1",
        title="Examination of 114 SimGrid publications (2017-2022)",
        headers=["Category", "Count"],
        rows=rows,
        notes="Computed from the encoded survey dataset (repro.analysis.survey).",
    )


# ---------------------------------------------------------------------- #
# Table II / Figure 1 — platform configurations
# ---------------------------------------------------------------------- #
def table2_platforms() -> ExperimentResult:
    """Table II: the four hardware platform configurations."""
    rows = []
    for name in PLATFORM_ORDER:
        config = PLATFORM_CONFIGS[name]
        rows.append(
            [
                name,
                "enabled" if config.page_cache_enabled else "disabled",
                format_bandwidth(config.wan_nominal_bandwidth),
            ]
        )
    return ExperimentResult(
        name="table2",
        title="Hardware platform configuration specifications",
        headers=["Platform", "RAM page cache", "WAN interface"],
        rows=rows,
        notes="Execution platform (Figure 1):\n" + platform_ascii_art(),
    )


# ---------------------------------------------------------------------- #
# Table III — MRE of every calibration method on every platform
# ---------------------------------------------------------------------- #
def table3_simulation_accuracy(
    platforms: Sequence[str] = PLATFORM_ORDER,
    methods: Sequence[str] = METHOD_ORDER,
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Table III: MRE (%) for the calibration methods and platforms.

    ``"human"`` evaluates the manual calibration; the other method names
    are calibration-algorithm names (``random``, ``grid``, ``gdfix``, ...).
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    mre: dict[tuple[str, str], float] = {}
    calibrated: dict[tuple[str, str], dict[str, float]] = {}
    for platform in platforms:
        problem = _make_problem(platform, icd_values, generator, scale)
        for method in methods:
            if method == "human":
                values = problem.human_values()
                mre[(method, platform)] = problem.evaluate(values)
                calibrated[(method, platform)] = values.to_dict()
            else:
                result = problem.calibrate(
                    algorithm=method, budget=EvaluationBudget(budget_evaluations), seed=seed
                )
                mre[(method, platform)] = result.best_value
                calibrated[(method, platform)] = dict(result.best_values)

    rows = []
    for method in methods:
        label = method.upper() if method != "gdfix" else "GDFIX"
        rows.append([label] + [f"{mre[(method, p)]:.2f}%" for p in platforms])
    return ExperimentResult(
        name="table3",
        title="MRE for calibration methods and platforms",
        headers=["Method"] + list(platforms),
        rows=rows,
        notes=(
            f"Automated methods calibrated with {budget_evaluations} simulator invocations "
            f"each (seed {seed}), ICD values {list(icd_values)}, scale {scale!r}."
        ),
        extra={"mre": mre, "calibrated": calibrated},
    )


# ---------------------------------------------------------------------- #
# Table IV — calibrated parameter values (bottleneck agreement)
# ---------------------------------------------------------------------- #
def table4_calibrated_parameters(
    platform: str = "SCSN",
    methods: Sequence[str] = METHOD_ORDER,
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Table IV: calibrated parameter values for one platform (SCSN).

    The paper's observation: every method agrees on the bottleneck-resource
    parameter (the HDD bandwidth on SCSN) while non-bottleneck parameters
    scatter over orders of magnitude.
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    problem = _make_problem(platform, icd_values, generator, scale)

    rows = []
    raw: dict[str, dict[str, float]] = {}
    for method in methods:
        if method == "human":
            values = problem.human_values()
        else:
            result = problem.calibrate(
                algorithm=method, budget=EvaluationBudget(budget_evaluations), seed=seed
            )
            values = problem.calibrated_values(result)
        raw[method] = values.to_dict()
        label = method.upper() if method != "gdfix" else "GDFIX"
        rows.append(
            [
                label,
                format_speed(values.core_speed),
                format_disk_bandwidth(values.disk_bandwidth),
                format_bandwidth(values.lan_bandwidth),
                format_bandwidth(values.wan_bandwidth),
            ]
        )
    return ExperimentResult(
        name="table4",
        title=f"Calibrated parameter values for platform {platform}",
        headers=["Method", "Core speed", "Disk bandwidth", "LAN bandwidth", "WAN bandwidth"],
        rows=rows,
        notes=(
            "Expected shape: all methods agree on the disk bandwidth (the bottleneck on "
            f"{platform}); the other parameters scatter."
        ),
        extra={"values": raw},
    )


# ---------------------------------------------------------------------- #
# Table V — calibrating with subsets of the ICD values
# ---------------------------------------------------------------------- #
def table5_icd_subsets(
    platform: str = "FCSN",
    algorithm: str = "gdfix",
    subset_universe: Sequence[float] = REDUCED_ICD_VALUES,
    subset_sizes: Sequence[int] = (1, 2, 3),
    evaluation_icds: Sequence[float] = PAPER_ICD_VALUES,
    budget_seconds: float | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Table V: best / median / worst MRE when calibrating from ICD subsets.

    For every subset of the 5-element ICD universe with the given sizes the
    calibration uses *only* that subset's ground truth (and the same time
    budget, so smaller subsets afford more simulator invocations); the
    resulting calibration is then evaluated against the full ICD grid.
    """
    budget_seconds = budget_seconds or default_time_budget()
    generator = generator or GroundTruthGenerator()

    # The full-grid problem is used to *evaluate* every calibration.
    evaluation_problem = _make_problem(platform, evaluation_icds, generator, scale)

    def calibrate_on(icds: Sequence[float]) -> float:
        problem = _make_problem(platform, icds, generator, scale)
        result = problem.calibrate(
            algorithm=algorithm, budget=TimeBudget(budget_seconds), seed=seed
        )
        return evaluation_problem.evaluate(problem.calibrated_values(result))

    rows = []
    detail: dict[str, list[tuple[tuple[float, ...], float]]] = {}
    for size in subset_sizes:
        subsets = list(itertools.combinations(subset_universe, size))
        scores = []
        for subset in subsets:
            scores.append((subset, calibrate_on(subset)))
        values = [s for _, s in scores]
        rows.append(
            [
                size,
                len(subsets),
                f"{min(values):.2f}%",
                f"{statistics.median(values):.2f}%",
                f"{max(values):.2f}%",
            ]
        )
        detail[str(size)] = scores

    # Last row: calibrating with every ICD value of the evaluation grid.
    full_score = calibrate_on(tuple(evaluation_icds))
    rows.append(
        [
            len(evaluation_icds),
            1,
            f"{full_score:.2f}%",
            f"{full_score:.2f}%",
            f"{full_score:.2f}%",
        ]
    )
    detail["full"] = [(tuple(evaluation_icds), full_score)]

    return ExperimentResult(
        name="table5",
        title=f"Best, median and worst MRE when calibrating with ICD subsets ({algorithm.upper()}, {platform})",
        headers=["# ICD values", "# Subsets", "Best", "Median", "Worst"],
        rows=rows,
        notes=(
            f"Each calibration gets the same wall-clock budget of {budget_seconds:g} s; "
            "accuracy is always evaluated against the full ICD grid."
        ),
        extra={"detail": detail},
    )


# ---------------------------------------------------------------------- #
# Table VI — accuracy vs simulation-time (granularity) trade-off
# ---------------------------------------------------------------------- #
#: (block size B, buffer size b) pairs, coarse/fast to fine/slow.
DEFAULT_GRANULARITIES: tuple[tuple[float, float], ...] = (
    (1e10, 2e8),
    (5e8, 5e7),
    (2e8, 2e7),
    (1e8, 1e7),
)


def table6_speed_accuracy(
    platform: str = "FCSN",
    algorithms: Sequence[str] = ("gdfix", "grid", "random"),
    granularities: Sequence[tuple[float, float]] = DEFAULT_GRANULARITIES,
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_seconds: float | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Table VI: MRE vs average simulation time for different granularities.

    For each (block size, buffer size) pair the simulator is slower or
    faster (the number of simulated events per job is O(s/B + s/b)); every
    calibration gets the same wall-clock budget, so coarser granularities
    afford many more invocations — the paper's observation is that the
    coarsest/fastest granularity yields the *best* accuracy.
    """
    budget_seconds = budget_seconds or default_time_budget()
    generator = generator or GroundTruthGenerator()

    rows = []
    detail: dict[str, dict[str, float]] = {}
    for block_size, buffer_size in granularities:
        scenario = {
            "paper": Scenario.paper,
            "bench": Scenario.bench,
            "calib": Scenario.calib,
            "tiny": Scenario.tiny,
        }[scale](platform, icd_values=tuple(icd_values)).with_granularity(block_size, buffer_size)
        problem = CaseStudyProblem.create(scenario, generator=generator)

        # Measure the average wall-clock time of one simulator invocation
        # (one run per ICD value) at this granularity.
        simulator = HEPSimulator(scenario)
        probe_trace = simulator.run_trace(generator.true_values(scenario))
        avg_sim_time = probe_trace.total_simulation_wall_time()

        row: list[object] = [f"B={block_size:.0e}, b={buffer_size:.0e}", format_duration(avg_sim_time)]
        cell: dict[str, float] = {"avg_sim_time": avg_sim_time}
        for algorithm in algorithms:
            result = problem.calibrate(
                algorithm=algorithm, budget=TimeBudget(budget_seconds), seed=seed
            )
            row.append(f"{result.best_value:.2f}%")
            cell[algorithm] = result.best_value
            cell[f"{algorithm}_evaluations"] = result.evaluations
        rows.append(row)
        detail[f"{block_size:g}/{buffer_size:g}"] = cell

    return ExperimentResult(
        name="table6",
        title=f"MRE vs. average simulation time for platform {platform}",
        headers=["Granularity", "Sim. time"] + [a.upper() for a in algorithms],
        rows=rows,
        notes=(
            f"Every calibration gets the same wall-clock budget of {budget_seconds:g} s; "
            "'Sim. time' is the wall-clock cost of one full objective evaluation "
            "(all ICD values) at that granularity."
        ),
        extra={"detail": detail},
    )


# ---------------------------------------------------------------------- #
# Figure 2 — absolute error vs calibration time
# ---------------------------------------------------------------------- #
def figure2_convergence(
    platform: str = "FCSN",
    algorithms: Sequence[str] = ("grid", "gdfix", "random"),
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_seconds: float | None = None,
    seed: int = 1,
    samples: int = 10,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Figure 2: best-so-far mean absolute simulation error vs wall-clock time."""
    budget_seconds = budget_seconds or default_time_budget()
    generator = generator or GroundTruthGenerator()

    series: dict[str, list[tuple[float, float]]] = {}
    for algorithm in algorithms:
        scenario = {
            "paper": Scenario.paper,
            "bench": Scenario.bench,
            "calib": Scenario.calib,
            "tiny": Scenario.tiny,
        }[scale](platform, icd_values=tuple(icd_values))
        problem = CaseStudyProblem.create(scenario, generator=generator, metric="mae")
        result = problem.calibrate(
            algorithm=algorithm, budget=TimeBudget(budget_seconds), seed=seed
        )
        series[algorithm] = result.history.best_over_time()

    # Tabulate the best-so-far error at evenly spaced times.
    times = [budget_seconds * (i + 1) / samples for i in range(samples)]
    rows = []
    for t in times:
        row: list[object] = [f"{t:.1f} s"]
        for algorithm in algorithms:
            best = None
            for when, value in series[algorithm]:
                if when <= t:
                    best = value
                else:
                    break
            row.append("-" if best is None else f"{best:.2f}")
        rows.append(row)

    return ExperimentResult(
        name="figure2",
        title=f"Mean absolute simulation error vs. calibration time ({platform})",
        headers=["Elapsed"] + [a.upper() for a in algorithms],
        rows=rows,
        notes=render_series(series),
        extra={"series": series},
    )


# ---------------------------------------------------------------------- #
# Ablations (not in the paper; see docs/architecture.md, "Reproduction deviations")
# ---------------------------------------------------------------------- #
def ablation_sampling_scale(
    platform: str = "FCSN",
    algorithm: str = "random",
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Ablation: log2 parameter representation vs linear representation.

    The paper argues (Section III.A) for sampling parameters
    logarithmically; this experiment quantifies the benefit by running the
    same algorithm with the same budget on both representations.
    """
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    scenario = {
        "paper": Scenario.paper,
        "bench": Scenario.bench,
        "calib": Scenario.calib,
        "tiny": Scenario.tiny,
    }[scale](platform, icd_values=tuple(icd_values))

    rows = []
    detail = {}
    for representation in ("log2", "linear"):
        space = build_parameter_space(
            scale=representation,
            include_page_cache=scenario.config.page_cache_enabled,
        )
        problem = CaseStudyProblem.create(scenario, generator=generator, parameter_space=space)
        result = problem.calibrate(
            algorithm=algorithm, budget=EvaluationBudget(budget_evaluations), seed=seed
        )
        rows.append([representation, f"{result.best_value:.2f}%", result.evaluations])
        detail[representation] = result.best_value
    return ExperimentResult(
        name="ablation_sampling",
        title=f"Log2 vs linear parameter representation ({algorithm.upper()}, {platform})",
        headers=["Representation", "Best MRE", "Evaluations"],
        rows=rows,
        notes="The paper's log2 representation should dominate on these wide parameter ranges.",
        extra=detail,
    )


def ablation_extension_algorithms(
    platform: str = "FCSN",
    algorithms: Sequence[str] = (
        "random", "gdfix", "gddyn", "grid",
        "lhs", "sobol", "coordinate", "pattern", "nelder-mead",
        "annealing", "de", "cmaes", "tpe", "bayesian",
    ),
    icd_values: Sequence[float] = REDUCED_ICD_VALUES,
    budget_evaluations: int | None = None,
    seed: int = 1,
    generator: GroundTruthGenerator | None = None,
    scale: str = "calib",
) -> ExperimentResult:
    """Extension study: the future-work algorithms vs the paper's simple ones."""
    budget_evaluations = budget_evaluations or default_evaluation_budget()
    generator = generator or GroundTruthGenerator()
    problem = _make_problem(platform, icd_values, generator, scale)

    rows = []
    detail = {}
    for algorithm in algorithms:
        result = problem.calibrate(
            algorithm=algorithm, budget=EvaluationBudget(budget_evaluations), seed=seed
        )
        rows.append([algorithm.upper(), f"{result.best_value:.2f}%", result.evaluations, f"{result.elapsed:.1f} s"])
        detail[algorithm] = result.best_value
    human = problem.evaluate(problem.human_values())
    rows.append(["HUMAN", f"{human:.2f}%", 0, "-"])
    detail["human"] = human
    return ExperimentResult(
        name="ablation_algorithms",
        title=f"Extension algorithms vs the paper's simple algorithms ({platform})",
        headers=["Algorithm", "Best MRE", "Evaluations", "Elapsed"],
        rows=rows,
        notes=f"Each automated method gets {budget_evaluations} simulator invocations (seed {seed}).",
        extra=detail,
    )
