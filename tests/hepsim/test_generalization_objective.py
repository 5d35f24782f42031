"""The picklable case-study objective and the generalisation study."""

import pickle

import pytest

from repro.core import EvaluationBudget, get_algorithm
from repro.hepsim import (
    CaseStudyObjective,
    CaseStudyProblem,
    GroundTruthGenerator,
    Scenario,
    generalization_study,
    with_compute_data_ratio,
)


@pytest.fixture(scope="module")
def generator():
    return GroundTruthGenerator(use_disk_cache=False)


@pytest.fixture(scope="module")
def tiny_problem(generator):
    scenario = Scenario.tiny("FCSN", icd_values=(0.0, 0.5, 1.0))
    return CaseStudyProblem.create(scenario, generator=generator)


class TestCaseStudyObjective:
    def test_pickle_roundtrip_preserves_the_value(self, tiny_problem):
        values = tiny_problem.human_values().to_dict()
        direct = tiny_problem.objective(values)
        clone = pickle.loads(pickle.dumps(tiny_problem.objective))
        assert clone(values) == pytest.approx(direct, rel=1e-12)

    def test_true_values_score_low(self, tiny_problem):
        true_mre = tiny_problem.objective(tiny_problem.true_values().to_dict())
        human_mre = tiny_problem.objective(tiny_problem.human_values().to_dict())
        assert true_mre < human_mre

    def test_simulate_returns_a_trace_with_all_icds(self, tiny_problem):
        trace = tiny_problem.objective.simulate(tiny_problem.true_values().to_dict())
        assert set(trace.icd_values) == {0.0, 0.5, 1.0}

    def test_metric_name_is_recorded(self, generator):
        scenario = Scenario.tiny("SCSN", icd_values=(0.0, 1.0))
        ground_truth = generator.get(scenario)
        objective = CaseStudyObjective(scenario, ground_truth, metric="rmse")
        assert objective.metric_name == "rmse"


class TestCalibrate:
    def test_a_configured_instance_runs_under_every_driver(self, tiny_problem):
        """``calibrate`` takes the algorithm as an instance: the batch and
        async pools walk the serial trajectory of the configured one."""

        def units(algorithm, **driver):
            result = tiny_problem.calibrate(
                algorithm=algorithm, budget=EvaluationBudget(12), seed=3, **driver
            )
            return [e.unit for e in result.history]

        def configured():
            return get_algorithm("cmaes", population_size=4)

        serial = units(configured())
        assert serial != units("cmaes")
        assert units(configured(), workers=2) == serial
        assert units(configured(), workers=2, asynchronous=True) == serial


class TestWithComputeDataRatio:
    def test_scales_only_the_flops_per_byte(self):
        base = Scenario.tiny("FCSN")
        scaled = with_compute_data_ratio(base, 4.0)
        assert scaled.workload.flops_per_byte.value == pytest.approx(
            4.0 * base.workload.flops_per_byte.value
        )
        assert scaled.workload.n_jobs == base.workload.n_jobs
        assert scaled.workload.file_size.value == base.workload.file_size.value
        assert scaled.platform_name == base.platform_name

    def test_identity_factor_changes_nothing(self):
        base = Scenario.tiny("SCSN")
        assert with_compute_data_ratio(base, 1.0).workload == base.workload

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            with_compute_data_ratio(Scenario.tiny("FCSN"), 0.0)

    def test_changes_the_ground_truth_cache_key(self):
        base = Scenario.tiny("FCSN")
        assert with_compute_data_ratio(base, 2.0).cache_key() != base.cache_key()


class TestGeneralizationStudy:
    @pytest.fixture(scope="class")
    def study(self, generator):
        return generalization_study(
            platform="FCSN",
            factors=(0.5, 1.0, 2.0),
            algorithm="random",
            budget=EvaluationBudget(30),
            icd_values=(0.0, 0.5, 1.0),
            seed=2,
            generator=generator,
            scale="tiny",
        )

    def test_one_evaluation_per_factor(self, study):
        assert set(study.evaluations) == {0.5, 1.0, 2.0}
        assert study.base_factor == 1.0

    def test_true_values_stay_accurate_everywhere(self, study):
        for evaluation in study.evaluations.values():
            assert evaluation.true_values_mre < 10.0

    def test_summary_rows_are_sorted_by_factor(self, study):
        factors = [row[0] for row in study.summary_rows()]
        assert factors == sorted(factors)

    def test_worst_factor_has_the_largest_degradation(self, study):
        worst = study.worst_factor()
        degradations = {f: e.degradation for f, e in study.evaluations.items()}
        assert degradations[worst] == max(degradations.values())

    def test_calibration_result_is_kept(self, study):
        assert study.calibration.evaluations == 30
        assert set(study.calibrated_values.to_dict()) >= {"core_speed", "disk_bandwidth"}
