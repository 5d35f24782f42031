"""Aggregate reproduction report.

The benchmark harness writes one plain-text table per experiment to
``benchmarks/results/``; this module stitches those files into a single
Markdown report (and the ``repro report`` CLI command prints or saves it).
The report is the artefact a reviewer reads first: every reproduced table
and figure in one place, in the paper's order, with the experiment notes
that explain how budgets were scaled.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from collections.abc import Sequence

__all__ = ["DEFAULT_ORDER", "collect_results", "render_report", "write_report"]

#: Paper order first, extensions after.
DEFAULT_ORDER: Sequence[str] = (
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure2",
    "generalization",
    "ablation_metrics",
    "ablation_noise",
    "ablation_sampling",
    "ablation_algorithms",
    "parallel_scaling",
)

#: Section headings for the known experiments.
_TITLES: dict[str, str] = {
    "table1": "Table I — calibration practice in 114 SimGrid publications",
    "table2": "Table II / Figure 1 — platform configurations",
    "table3": "Table III — MRE per calibration method and platform",
    "table4": "Table IV — calibrated parameter values (SCSN)",
    "table5": "Table V — calibrating from subsets of the ICD values",
    "table6": "Table VI — accuracy vs simulation time",
    "figure2": "Figure 2 — error vs calibration time",
    "generalization": "Extension — generalisation across compute-to-data ratios",
    "ablation_metrics": "Extension — accuracy-metric ablation",
    "ablation_noise": "Extension — ground-truth noise ablation",
    "ablation_sampling": "Ablation — log2 vs linear parameter representation",
    "ablation_algorithms": "Extension — algorithm roster comparison",
    "parallel_scaling": "Extension — parallel candidate evaluation",
}


def collect_results(results_dir: str | Path) -> dict[str, str]:
    """Read every ``<name>.txt`` under ``results_dir`` into a name -> text map."""
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        return {}
    collected: dict[str, str] = {}
    for path in sorted(results_dir.glob("*.txt")):
        collected[path.stem] = path.read_text().rstrip("\n")
    return collected


def render_report(
    results: dict[str, str],
    order: Sequence[str] = DEFAULT_ORDER,
    title: str = "Reproduction report",
    generated_at: str | None = None,
) -> str:
    """Render collected experiment outputs as one Markdown document.

    Experiments named in ``order`` come first (in that order, skipping any
    that were not run); anything else found in the results directory is
    appended alphabetically so custom experiments are never silently lost.
    """
    if generated_at is None:
        generated_at = datetime.datetime.now().strftime("%Y-%m-%d %H:%M")
    lines: list[str] = [
        f"# {title}",
        "",
        f"Generated {generated_at} from the benchmark harness outputs "
        "(`pytest benchmarks/ --benchmark-only`).  Absolute values depend on the "
        "scaled-down budgets; see docs/architecture.md (\"Reproduction deviations\") "
        "for the paper-vs-measured discussion.",
        "",
    ]
    if not results:
        lines.append("_No experiment outputs found — run the benchmark harness first._")
        return "\n".join(lines) + "\n"

    listed = [name for name in order if name in results]
    extras = sorted(name for name in results if name not in order)
    for name in listed + extras:
        lines.append(f"## {_TITLES.get(name, name)}")
        lines.append("")
        lines.append("```")
        lines.append(results[name])
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: str | Path,
    output_path: str | Path,
    order: Sequence[str] = DEFAULT_ORDER,
    title: str = "Reproduction report",
) -> Path:
    """Collect results, render the report and write it to ``output_path``."""
    output_path = Path(output_path)
    output_path.parent.mkdir(parents=True, exist_ok=True)
    output_path.write_text(render_report(collect_results(results_dir), order=order, title=title))
    return output_path
