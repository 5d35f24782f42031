"""Table V — calibrating with subsets of the ICD values (GDFIX, FCSN).

Expected shape (paper, Section IV.C.3): calibrating from a single ICD value
has the worst worst-case accuracy, two or three diverse ICD values are on
par with (or better than) using the full ICD grid, and — because every
calibration gets the same simulated-event budget — using *fewer* ICD values
can beat using all of them, since each objective evaluation is cheaper and
the parameter space is explored more thoroughly.

Reproduction caveat (see docs/architecture.md, "Reproduction deviations"): the paper's most dramatic
data point — a 7000% MRE when calibrating from a single extreme ICD value —
is muted here, because in our simulator even an all-cached (ICD = 1.0) run
still exercises the WAN through the output-file upload, which keeps the WAN
bandwidth weakly constrained.  The assertions therefore target the ordering
claims rather than the catastrophic single-ICD magnitudes.
"""

from conftest import run_once

from repro.analysis.experiments import table5_icd_subsets


def test_table5_icd_subsets(benchmark, publish, ground_truth_generator):
    result = run_once(
        benchmark,
        table5_icd_subsets,
        generator=ground_truth_generator,
        subset_sizes=(1, 2, 3),
    )
    publish(result)

    def parse(cell):
        return float(str(cell).rstrip("%"))

    best = {row[0]: parse(row[2]) for row in result.rows}
    median = {row[0]: parse(row[3]) for row in result.rows}
    worst = {row[0]: parse(row[4]) for row in result.rows}
    full_grid = best[11]  # the single full-ICD-grid calibration (last row)

    # Sanity: best <= median <= worst within every subset size.
    for size in (1, 2, 3):
        assert best[size] <= median[size] <= worst[size]

    # Two diverse ICD values are on par with (or better than) a single one:
    # the best and median 2-element subsets do not lose to the 1-element ones
    # by more than a small tolerance.
    assert best[2] <= best[1] * 1.5
    assert worst[2] <= worst[1] * 1.5

    # The paper's budget argument, which our scaled-down setting amplifies:
    # calibrating with a small, diverse subset beats calibrating with the full
    # ICD grid under the same simulated-event budget, because each objective
    # evaluation is several times cheaper.
    assert best[2] < full_grid
    assert median[2] < full_grid
    assert best[3] < full_grid
