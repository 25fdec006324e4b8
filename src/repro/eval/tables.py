"""ASCII table and series formatting for benchmark output.

The benchmark suite prints the paper's tables and figure series as text so
``pytest benchmarks/ --benchmark-only -s`` regenerates the evaluation
chapter on a terminal.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.eval.runner import SweepPoint


def format_table(
    title: str, rows: Sequence[tuple[str, str]], width: int = 64
) -> str:
    """A two-column key/value table (Tables 4.1 / 4.2 style)."""
    lines = [f"== {title} ==".center(width)]
    key_width = max((len(key) for key, _ in rows), default=0)
    for key, value in rows:
        lines.append(f"  {key.ljust(key_width)}  {value}")
    return "\n".join(lines)


def _series_key(point: SweepPoint) -> str:
    if point.label and point.label != point.algorithm:
        if point.algorithm in point.label or point.label in ("ES", "m-query", "s-query"):
            return point.label
        return f"{point.algorithm} {point.label}"
    return point.algorithm


def format_series(
    title: str,
    points: Sequence[SweepPoint],
    metric: str = "running_time_ms",
    x_name: str = "x",
    x_format: str = "{:g}",
    value_format: str = "{:.1f}",
) -> str:
    """A figure as a text matrix: one row per x value, one column per curve.

    Args:
        title: figure caption.
        points: sweep output.
        metric: attribute of :class:`SweepPoint` to tabulate.
        x_name: x-axis label.
        x_format / value_format: cell formatting.
    """
    curves: dict[str, dict[float, float]] = defaultdict(dict)
    xs: list[float] = []
    for point in points:
        key = _series_key(point)
        if point.x not in xs:
            xs.append(point.x)
        curves[key][point.x] = getattr(point, metric)
    names = list(curves)
    col_width = max([len(n) for n in names] + [10])
    header = x_name.ljust(10) + "".join(name.rjust(col_width + 2) for name in names)
    lines = [f"-- {title} --", header]
    for x in xs:
        cells = []
        for name in names:
            value = curves[name].get(x)
            cells.append(
                (value_format.format(value) if value is not None else "-").rjust(
                    col_width + 2
                )
            )
        lines.append(x_format.format(x).ljust(10) + "".join(cells))
    return "\n".join(lines)


def format_batch_report(title: str, report) -> str:
    """A :class:`~repro.core.service.BatchReport` as a key/value table."""
    return format_table(title, report.as_rows())


def format_savings(
    title: str,
    points: Sequence[SweepPoint],
    ours: str,
    baseline: str,
    x_name: str = "x",
    metric: str = "running_time_ms",
) -> str:
    """Percentage savings in ``metric`` of curve ``ours`` over ``baseline``."""
    by_x: dict[float, dict[str, float]] = defaultdict(dict)
    for point in points:
        by_x[point.x][_series_key(point)] = getattr(point, metric)
    lines = [f"-- {title} --", f"{x_name:<10}{'saving':>10}"]
    for x in by_x:
        row = by_x[x]
        if ours in row and baseline in row and row[baseline] > 0:
            saving = 100.0 * (1.0 - row[ours] / row[baseline])
            lines.append(f"{x:<10g}{saving:>9.0f}%")
    return "\n".join(lines)
