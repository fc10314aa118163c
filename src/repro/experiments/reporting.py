"""Plain-text reporting of experiment results.

The paper presents results as figures; without a plotting dependency we print
the same information as aligned text tables (one row per x value, one column
per series), which is what the benchmark harness writes to stdout.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.experiments.harness import Series, SweepResult

__all__ = ["format_table", "format_series", "format_sweep", "format_histogram"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Format a list of rows as an aligned text table."""
    columns = [list(map(_stringify, column)) for column in zip(*([headers] + [list(r) for r in rows]))]
    widths = [max(len(value) for value in column) for column in columns]
    lines = []
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_stringify(value).ljust(w) for value, w in zip(row, widths)))
    return "\n".join(lines)


def _stringify(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_series(series: Series) -> str:
    """Format one series as a two-column table."""
    return format_table([series.x_label, series.y_label], series.rows())


def format_sweep(result: SweepResult) -> str:
    """Format a sweep result: shared x column followed by one column per series."""
    names = list(result.series)
    if not names:
        return "(empty sweep)"
    xs = result.series[names[0]].xs
    headers = [result.parameter] + names
    rows = []
    for index, x in enumerate(xs):
        row = [x]
        for name in names:
            ys = result.series[name].ys
            row.append(ys[index] if index < len(ys) else "")
        rows.append(row)
    return format_table(headers, rows)


def format_histogram(counts: Mapping, title: str = "") -> str:
    """Format a mapping of bucket -> count as a table, largest bucket first."""
    rows = sorted(counts.items(), key=lambda item: item[0])
    table = format_table(["bucket", "count"], rows)
    if title:
        return f"{title}\n{table}"
    return table
