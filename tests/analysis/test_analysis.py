"""Survey dataset, table/figure rendering, and the experiment harness."""

import pytest

from repro.analysis.experiments import (
    ablation_sampling_scale,
    table1_survey,
    table2_platforms,
)
from repro.analysis.figures import render_series, sample_series
from repro.analysis.survey import (
    PAPER_COUNTS,
    PublicationRecord,
    build_survey_dataset,
    summarize_survey,
)
from repro.analysis.tables import ExperimentResult, render_table


def test_an_experiment_rejects_an_unknown_scale():
    with pytest.raises(ValueError, match="unknown scenario scale"):
        ablation_sampling_scale(scale="huge")


class TestSurvey:
    def test_dataset_reproduces_paper_counts(self):
        summary = summarize_survey(build_survey_dataset())
        assert summary.total == PAPER_COUNTS["total"]
        assert summary.simulation_only == PAPER_COUNTS["simulation_only"]
        assert summary.with_real_world == PAPER_COUNTS["with_real_world"]
        assert summary.no_comparison == PAPER_COUNTS["no_comparison"]
        assert summary.calibration_mentioned_at_best == PAPER_COUNTS["calibration_mentioned_at_best"]
        assert summary.calibration_documented == PAPER_COUNTS["calibration_documented"]

    def test_most_documented_calibrations_contribute_a_model(self):
        records = build_survey_dataset()
        documented = [r for r in records if r.documents_calibration]
        assert len(documented) == 10
        assert sum(r.contribution_is_simulation_model for r in documented) == 8

    def test_record_validation(self):
        with pytest.raises(ValueError):
            PublicationRecord("x", 2020, includes_real_world_results=True,
                              allows_comparison=True, mentions_calibration=False,
                              documents_calibration=True)
        with pytest.raises(ValueError):
            PublicationRecord("x", 2020, includes_real_world_results=False,
                              allows_comparison=True)


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["A", "Method"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines if not set(line) <= {"-", "+"})) == 1
        assert "Method" in lines[0]

    def test_experiment_result_accessors(self):
        result = ExperimentResult(
            name="t", title="Title", headers=["Method", "SCFN"],
            rows=[["HUMAN", "23.2%"], ["RANDOM", "22.1%"]], notes="note",
        )
        assert result.cell("HUMAN", "SCFN") == "23.2%"
        assert result.column("Method") == ["HUMAN", "RANDOM"]
        assert "Title" in result.to_text()
        assert "note" in result.to_text()
        with pytest.raises(KeyError):
            result.cell("HUMAN", "missing")
        with pytest.raises(KeyError):
            result.cell("missing", "SCFN")


class TestFigures:
    def test_sample_series_step_function(self):
        series = [(1.0, 10.0), (2.0, 5.0), (4.0, 2.0)]
        sampled = sample_series(series, [0.5, 1.5, 3.0, 5.0])
        assert sampled[0] != sampled[0]  # NaN before the first point
        assert sampled[1:] == [10.0, 5.0, 2.0]

    def test_render_series_contains_legend_and_axes(self):
        art = render_series({"random": [(1.0, 10.0), (2.0, 4.0)],
                             "grid": [(1.5, 12.0), (3.0, 8.0)]})
        assert "random" in art and "grid" in art
        assert "s" in art.splitlines()[-2]

    def test_one_huge_early_value_does_not_flatten_the_other_curves(self):
        art = render_series({"alpha": [(1.0, 1.0e4), (9.0, 9.0e3)],
                             "beta": [(1.0, 10.0), (9.0, 5.0)],
                             "gamma": [(1.0, 8.0), (9.0, 2.0)]})
        last_column = [line[-1] for line in art.splitlines()[:18]]
        # beta and gamma end on distinct rows, below alpha.
        assert last_column.index("A") < last_column.index("B") < last_column.index("G")

    def test_render_series_empty_raises(self):
        with pytest.raises(ValueError):
            render_series({})


class TestStaticExperiments:
    def test_table1(self):
        result = table1_survey()
        assert result.cell("Total publications examined", "Count") == 114

    def test_table2(self):
        result = table2_platforms()
        assert len(result.rows) == 4
        assert result.cell("FCSN", "WAN interface") == "1.00 Gbps"
