"""The Table I literature survey.

Table I of the paper summarises an examination of 114 peer-reviewed
publications (2017-2022) that present results obtained with SimGrid,
classifying how (and whether) they document simulator calibration.  The
paper reports only the aggregate counts; this module encodes those
categories as a small dataset of publication records (synthetic entries,
one per publication, carrying the category attributes) plus the
aggregation logic, so that the table is *computed* from data rather than
hard-coded, and so that the same aggregation can be reused on a different
survey snapshot.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "PublicationRecord",
    "SurveySummary",
    "build_survey_dataset",
    "summarize_survey",
]


@dataclasses.dataclass(frozen=True)
class PublicationRecord:
    """One surveyed publication.

    Attributes mirror the classification used in Section II.B of the paper.
    """

    identifier: str
    year: int
    includes_real_world_results: bool
    allows_comparison: bool = False
    mentions_calibration: bool = False
    documents_calibration: bool = False
    contribution_is_simulation_model: bool = False

    def __post_init__(self) -> None:
        if self.documents_calibration and not self.mentions_calibration:
            raise ValueError(
                f"{self.identifier}: a publication that documents calibration also mentions it"
            )
        if self.allows_comparison and not self.includes_real_world_results:
            raise ValueError(
                f"{self.identifier}: comparison requires real-world results"
            )


#: Aggregate counts reported in Table I of the paper.
PAPER_COUNTS = {
    "total": 114,
    "simulation_only": 85,
    "with_real_world": 29,
    "no_comparison": 4,
    "calibration_mentioned_at_best": 15,
    "calibration_documented": 10,
}


def build_survey_dataset() -> list[PublicationRecord]:
    """Build a synthetic per-publication dataset matching the paper's counts.

    The individual records are synthetic (the paper does not list the 114
    publications), but their category structure reproduces Table I exactly:
    85 simulation-only papers, 29 with real-world results of which 4 allow
    no comparison, 15 at best mention calibration and 10 document it
    (half of those documenting a manual procedure, half also using simple
    statistical techniques, 8 of the 10 contributing a simulation model).
    """
    records: list[PublicationRecord] = []
    index = 0

    def add(count: int, **kwargs) -> None:
        nonlocal index
        for _ in range(count):
            year = 2017 + (index % 6)
            records.append(PublicationRecord(identifier=f"pub-{index:03d}", year=year, **kwargs))
            index += 1

    # 85 publications with only simulation results.
    add(85, includes_real_world_results=False)
    # 4 with real-world results but no possible comparison.
    add(4, includes_real_world_results=True, allows_comparison=False)
    # 15 that allow comparison but at best mention calibration.
    add(5, includes_real_world_results=True, allows_comparison=True, mentions_calibration=False)
    add(10, includes_real_world_results=True, allows_comparison=True, mentions_calibration=True)
    # 10 that perform and document calibration (8 of which contribute a model).
    add(
        8,
        includes_real_world_results=True,
        allows_comparison=True,
        mentions_calibration=True,
        documents_calibration=True,
        contribution_is_simulation_model=True,
    )
    add(
        2,
        includes_real_world_results=True,
        allows_comparison=True,
        mentions_calibration=True,
        documents_calibration=True,
        contribution_is_simulation_model=False,
    )
    return records


@dataclasses.dataclass(frozen=True)
class SurveySummary:
    """Aggregate counts in the structure of Table I."""

    total: int
    simulation_only: int
    with_real_world: int
    no_comparison: int
    calibration_mentioned_at_best: int
    calibration_documented: int


def summarize_survey(records: list[PublicationRecord]) -> SurveySummary:
    """Aggregate a survey dataset into the Table I counts."""
    total = len(records)
    simulation_only = sum(1 for r in records if not r.includes_real_world_results)
    with_real_world = total - simulation_only
    no_comparison = sum(
        1 for r in records if r.includes_real_world_results and not r.allows_comparison
    )
    documented = sum(1 for r in records if r.documents_calibration)
    mentioned_at_best = sum(
        1
        for r in records
        if r.allows_comparison and not r.documents_calibration
    )
    return SurveySummary(
        total=total,
        simulation_only=simulation_only,
        with_real_world=with_real_world,
        no_comparison=no_comparison,
        calibration_mentioned_at_best=mentioned_at_best,
        calibration_documented=documented,
    )
