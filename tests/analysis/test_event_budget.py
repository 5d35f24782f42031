"""Tables V and VI, Figure 2 and the parallel-scaling extension spend a
budget charged in simulated events, so their results do not depend on the
machine's speed.

``budget_evaluations`` evaluations of the experiment's default scenario buy
``C`` simulated events; a scenario whose evaluation simulates ``E`` events
gets ``C // E`` evaluations.  Run twice, each experiment gives the same
``extra`` once its wall-clock fields are left out.
"""

import pytest

from repro.analysis import (
    figure2_convergence,
    parallel_scaling_experiment,
    table5_icd_subsets,
    table6_speed_accuracy,
)
from repro.hepsim import CaseStudyProblem, GroundTruthGenerator, Scenario
from repro.hepsim.scenario import REDUCED_ICD_VALUES
from repro.hepsim.simulator import HEPSimulator

#: (block size, buffer size): the coarsest and a fine Table VI granularity.
GRANULARITIES = ((1e10, 2e8), (2e8, 2e7))
#: Reported wall-clock, informational only.
WALL_CLOCK_FIELDS = {"avg_sim_time", "elapsed"}


@pytest.fixture(scope="module")
def generator():
    return GroundTruthGenerator(use_disk_cache=False)


def events_per_evaluation(scenario, generator):
    return HEPSimulator(scenario).run_trace(generator.true_values(scenario)).total_events()


def without_wall_clock(value):
    if isinstance(value, dict):
        return {k: without_wall_clock(v) for k, v in value.items() if k not in WALL_CLOCK_FIELDS}
    return value


def twice(experiment, **kwargs):
    first, second = experiment(**kwargs), experiment(**kwargs)
    assert without_wall_clock(first.extra) == without_wall_clock(second.extra)
    return first


def test_the_event_count_does_not_depend_on_the_parameter_values(generator):
    for block_size, buffer_size in GRANULARITIES:
        scenario = Scenario.preset("tiny", "FCSN", REDUCED_ICD_VALUES).with_granularity(
            block_size, buffer_size
        )
        human = CaseStudyProblem.create(scenario, generator=generator).human_values()
        assert HEPSimulator(scenario).run_trace(human).total_events() == (
            events_per_evaluation(scenario, generator)
        )


def test_table6_gives_each_granularity_its_share_of_the_events(generator):
    budget = 30
    reference = Scenario.preset("tiny", "FCSN", REDUCED_ICD_VALUES)
    events = budget * events_per_evaluation(reference, generator)
    result = twice(
        table6_speed_accuracy, algorithms=("gdfix",), granularities=GRANULARITIES,
        budget_evaluations=budget, generator=generator, scale="tiny",
    )
    cells = list(result.extra["detail"].values())
    for (block_size, buffer_size), cell in zip(GRANULARITIES, cells, strict=True):
        per_evaluation = events_per_evaluation(
            reference.with_granularity(block_size, buffer_size), generator
        )
        assert cell["events"] == per_evaluation
        assert cell["gdfix_evaluations"] == events // per_evaluation
    assert cells[0]["gdfix_evaluations"] > cells[1]["gdfix_evaluations"] >= 1


def test_table5_gives_smaller_subsets_more_evaluations(generator):
    budget = 4
    events = budget * events_per_evaluation(
        Scenario.preset("tiny", "FCSN", REDUCED_ICD_VALUES), generator
    )
    result = twice(
        table5_icd_subsets, subset_sizes=(1,), budget_evaluations=budget,
        generator=generator, scale="tiny",
    )
    detail = result.extra["detail"]
    assert list(detail) == ["1", "full"]
    for subset, _, evaluations in detail["1"] + detail["full"]:
        per_evaluation = events_per_evaluation(
            Scenario.preset("tiny", "FCSN", subset), generator
        )
        assert evaluations == max(1, events // per_evaluation)
    assert min(e for _, _, e in detail["1"]) > budget > detail["full"][0][2]


def test_figure2_plots_the_best_error_against_simulated_events(generator):
    budget = 12
    per_evaluation = events_per_evaluation(
        Scenario.preset("tiny", "FCSN", REDUCED_ICD_VALUES), generator
    )
    result = twice(
        figure2_convergence, algorithms=("random",), budget_evaluations=budget,
        samples=4, generator=generator, scale="tiny",
    )
    series = result.extra["series"]["random"]
    assert [events for events, _ in series] == [
        per_evaluation * (i + 1) for i in range(budget)
    ]
    assert [row[0] for row in result.rows] == [
        f"{budget * per_evaluation * (i + 1) // 4:,}" for i in range(4)
    ]
    assert result.extra["elapsed"]["random"] > 0


def test_parallel_scaling_reaches_the_same_best_at_every_worker_count(generator):
    result = parallel_scaling_experiment(
        worker_counts=(1, 2), budget_evaluations=12, generator=generator,
        scale="tiny", mode="serial",
    )
    one, two = result.extra["1"], result.extra["2"]
    assert one["evaluations"] == two["evaluations"] == 12
    assert one["best"] == two["best"]
