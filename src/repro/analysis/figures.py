"""ASCII rendering of convergence figures (Figure 2)."""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["render_series", "sample_series"]


def sample_series(
    series: Sequence[tuple[float, float]], times: Sequence[float]
) -> list[float]:
    """Sample a best-so-far step function at the given abscissae.

    ``series`` is a list of (cumulative simulated events, best value)
    points; the value at ``t`` is the last best value achieved at or
    before ``t`` (``nan`` before the first evaluation completed).
    """
    sampled: list[float] = []
    for t in times:
        value = float("nan")
        for when, best in series:
            if when <= t:
                value = best
            else:
                break
        sampled.append(value)
    return sampled


def render_series(
    named_series: dict[str, Sequence[tuple[float, float]]],
    width: int = 72,
    height: int = 18,
) -> str:
    """Render several best-so-far curves as an ASCII plot.

    The x axis is the cumulative number of simulated events, as in Figure
    2; the y axis the objective value on a log scale, so one huge early
    value (a grid's first corner) cannot flatten the other curves.
    """
    if not named_series:
        raise ValueError("nothing to plot")
    max_time = max((s[-1][0] for s in named_series.values() if s), default=0.0)
    positive = [v for s in named_series.values() for _, v in s if v > 0]
    if max_time <= 0 or not positive:
        return "(empty figure: no completed evaluations)"
    top, bottom = max(positive), min(positive)
    span = math.log(top / bottom) or 1.0  # a single value: the bottom row

    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for index, (name, series) in enumerate(sorted(named_series.items())):
        marker = name[0].upper() if name else "?"
        if marker in markers.values():
            marker = str(index)
        markers[name] = marker
        times = [max_time * i / (width - 1) for i in range(width)]
        values = sample_series(series, times)
        for x, value in enumerate(values):
            if value != value:  # NaN: nothing evaluated yet
                continue
            y = int(round(math.log(value / bottom) / span * (height - 1))) if value > 0 else 0
            y = height - 1 - min(max(y, 0), height - 1)
            grid[y][x] = marker

    lines = [f"{top:10.4g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{bottom:10.4g} +" + "".join(grid[-1]))
    lines.append(" " * 12 + "0" + f"{max_time:,.0f} events".rjust(width - 1))
    legend = "   ".join(f"{marker} = {name}" for name, marker in markers.items())
    lines.append("  " + legend)
    return "\n".join(lines)
