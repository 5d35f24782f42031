"""Human-readable calibration reports.

Once a calibration has run, the questions a user asks are always the same:
what did it find, how sure are we that the budget was large enough, and
what did the search actually do?  :func:`calibration_report` answers them
in plain text from a :class:`~repro.core.result.CalibrationResult`:

* the calibrated parameter values (one per line, with the value both in
  its natural units and as a power of two, matching the paper's log2
  representation);
* run statistics (evaluations, wall-clock time, time per evaluation);
* a convergence summary — the best value after 25% / 50% / 75% / 100% of
  the evaluations, plus how late in the run the best point was found (a
  best point found in the last few evaluations suggests the budget was too
  small);
* an ASCII convergence sparkline.

The CLI's ``repro calibrate --report`` and the examples use it; it has no
dependency on the case study and works for any calibration.
"""

from __future__ import annotations

import math

from repro.core.parameters import ParameterSpace
from repro.core.result import CalibrationResult

__all__ = ["convergence_sparkline", "calibration_report"]

_SPARK_LEVELS = " .:-=+*#%@"


def convergence_sparkline(result: CalibrationResult, width: int = 50) -> str:
    """A one-line ASCII rendering of the best-so-far curve.

    The curve is sampled at ``width`` evenly spaced evaluation indices and
    mapped to character "heights" between the run's best and worst values
    (higher character = higher error, so a good run starts high and
    decays).  The curve is ``inf`` until the first number (a run may
    start with NaN values); those samples are blank.
    """
    curve = result.history.best_so_far()
    if not curve:
        return "(no evaluations)"
    if len(curve) < width:
        samples = list(curve)
    else:
        samples = [curve[int(i * (len(curve) - 1) / (width - 1))] for i in range(width)]
    finite = [value for value in samples if math.isfinite(value)]
    if not finite:
        return _SPARK_LEVELS[0] * len(samples)
    low, high = min(finite), max(finite)
    chars: list[str] = []
    for value in samples:
        if not math.isfinite(value):
            chars.append(_SPARK_LEVELS[0])
        elif math.isclose(low, high):
            chars.append(_SPARK_LEVELS[1])
        else:
            level = (value - low) / (high - low)
            chars.append(_SPARK_LEVELS[1 + int(round(level * (len(_SPARK_LEVELS) - 2)))])
    return "".join(chars)


def _format_value(value: float) -> str:
    if value > 0:
        return f"{value:.6g}  (2^{math.log2(value):.2f})"
    return f"{value:.6g}"


def calibration_report(
    result: CalibrationResult,
    space: ParameterSpace | None = None,
    objective_name: str = "objective",
) -> str:
    """A multi-line plain-text report for one calibration result."""
    lines = [
        f"Calibration report — algorithm {result.algorithm!r}",
        f"  budget          : {result.budget_description or '(none recorded)'}",
        f"  evaluations     : {result.evaluations}",
        f"  wall-clock time : {result.elapsed:.2f} s"
        + (
            f"  ({result.elapsed / result.evaluations:.3f} s per evaluation)"
            if result.evaluations
            else ""
        ),
        f"  best {objective_name:10s} : {result.best_value:.4f}",
        "",
        "  calibrated parameter values:",
    ]
    names = space.names if space is not None else sorted(result.best_values)
    for name in names:
        if name in result.best_values:
            unit = f" {space[name].unit}" if space is not None and space[name].unit else ""
            lines.append(f"    {name:24s} {_format_value(result.best_values[name])}{unit}")

    curve = result.history.best_so_far()
    if curve:
        lines.append("")
        lines.append("  convergence (best value after a fraction of the evaluations):")
        for fraction in (0.25, 0.5, 0.75, 1.0):
            index = max(int(round(fraction * len(curve))) - 1, 0)
            lines.append(f"    {int(fraction * 100):3d}%  {curve[index]:.4f}")
        # The history's own best (its NaN rule: a number displaces a NaN).
        best = result.history.best
        best_index = next(i for i, e in enumerate(result.history) if e is best)
        lines.append(
            f"  best point found at evaluation {best_index + 1} of {len(curve)}"
            + (
                "  (late — consider a larger budget)"
                if len(curve) > 4 and best_index >= 0.9 * len(curve)
                else ""
            )
        )
        # Time-to-quality: evaluations carry per-point wall-clock, so the
        # report can say *when* the best point landed, not just at which
        # evaluation index.
        best_at = result.history[best_index].finished_at
        if result.elapsed > 0:
            lines.append(
                f"  time to best point: {best_at:.2f} s of {result.elapsed:.2f} s"
                f"  ({best_at / result.elapsed * 100:.0f}% of the run)"
            )
        lines.append(f"  convergence sparkline: [{convergence_sparkline(result)}]")

    if result.telemetry:
        metrics = result.telemetry.get("metrics", [])
        if metrics:
            lines.append("")
            lines.append("  telemetry (metrics snapshot at end of run):")
            for metric in metrics:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(metric.get("labels", {}).items())
                )
                rendered = f"{{{labels}}}" if labels else ""
                if metric.get("type") == "histogram":
                    count = metric.get("count", 0)
                    mean = (metric.get("sum", 0.0) / count) if count else 0.0
                    lines.append(
                        f"    {metric['name']}{rendered}: count={count} mean={mean:.4g}"
                    )
                else:
                    lines.append(
                        f"    {metric['name']}{rendered}: {metric.get('value', 0):g}"
                    )
    return "\n".join(lines)
