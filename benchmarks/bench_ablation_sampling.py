"""Ablation — log2 vs linear parameter representation.

A design-choice study the paper does not run (see
docs/architecture.md, "Reproduction deviations").

The paper argues for the log2 representation of parameter ranges
(Section III.A); this ablation quantifies the benefit for RANDOM search on
the FCSN platform: with linear sampling, the overwhelming majority of
samples land in the top octaves of the 2**20..2**36 range, so parameters
whose good values are orders of magnitude below the upper bound are almost
never explored.
"""

from conftest import run_once

from repro.analysis.experiments import ablation_sampling_scale


def test_ablation_sampling_scale(benchmark, publish, ground_truth_generator):
    result = run_once(
        benchmark,
        ablation_sampling_scale,
        generator=ground_truth_generator,
    )
    publish(result)

    # Both representations produce a usable calibration; at small budgets the
    # winner is seed-dependent, so the assertion only guards against the log2
    # representation being catastrophically worse (the paper's argument is
    # about coverage of orders of magnitude, not a guarantee per run).
    assert result.extra["log2"] > 0
    assert result.extra["linear"] > 0
    assert result.extra["log2"] <= result.extra["linear"] * 3.0
