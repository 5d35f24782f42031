"""Extension experiments (generalisation, metric/noise ablations, parallel scaling).

These run at the ``tiny`` scenario scale with very small budgets: the goal
is to exercise the experiment plumbing end to end, not to reproduce the
quantitative shapes (the benchmark harness does that at larger budgets).
"""

import pytest

from repro.analysis import (
    ablation_accuracy_metrics,
    ablation_reference_noise,
    generalization_experiment,
    parallel_scaling_experiment,
)
from repro.analysis.tables import ExperimentResult
from repro.hepsim import GroundTruthGenerator

ICDS = (0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def generator():
    return GroundTruthGenerator(use_disk_cache=False)


class TestGeneralizationExperiment:
    def test_one_row_per_factor(self, generator):
        result = generalization_experiment(
            platform="FCSN", factors=(0.5, 1.0, 2.0), algorithm="random",
            icd_values=ICDS, budget_evaluations=15, seed=1,
            generator=generator, scale="tiny",
        )
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 3
        assert [row[0] for row in result.rows] == ["x0.5", "x1", "x2"]
        assert result.extra["worst_factor"] in (0.5, 1.0, 2.0)
        # Every cell is a percentage string.
        for row in result.rows:
            assert all(cell.endswith("%") for cell in row[1:])


class TestAccuracyMetricAblation:
    def test_each_metric_gets_a_row_scored_on_mre(self, generator):
        result = ablation_accuracy_metrics(
            platform="SCSN", algorithm="random", metrics=("mre", "rmse"),
            icd_values=ICDS, budget_evaluations=12, seed=1,
            generator=generator, scale="tiny",
        )
        assert [row[0] for row in result.rows] == ["MRE", "RMSE"]
        assert set(result.extra) == {"mre", "rmse"}
        for value in result.extra.values():
            assert value >= 0.0


class TestReferenceNoiseAblation:
    def test_rows_follow_the_noise_levels(self):
        result = ablation_reference_noise(
            platform="FCSN", algorithm="random", noise_levels=(0.0, 0.05),
            icd_values=ICDS, budget_evaluations=12, seed=1, scale="tiny",
        )
        assert [row[0] for row in result.rows] == ["0", "0.05"]
        for calibrated, human in result.extra.values():
            assert calibrated >= 0.0 and human >= 0.0


class TestParallelScalingExperiment:
    def test_serial_mode_counts_evaluations(self, generator):
        result = parallel_scaling_experiment(
            platform="FCSN", worker_counts=(1, 2), sampler="lhs",
            icd_values=ICDS, budget_evaluations=12, seed=1,
            generator=generator, scale="tiny", mode="serial",
        )
        assert len(result.rows) == 2
        for key, cell in result.extra.items():
            assert cell["evaluations"] >= 1

    def test_sampler_without_an_algorithm_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="lhs.*sobol.*uniform"):
            parallel_scaling_experiment(sampler="halton")
