"""Plain-text table/series rendering for benchmark output.

The benchmark harness prints each table/figure in the same shape the paper
reports it; these helpers keep that formatting in one place.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Union

Number = Union[int, float]


def _fmt(value: object, precision: int = 1) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "n/a"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
    precision: int = 1,
) -> str:
    """Render an aligned text table."""
    rendered_rows = [[_fmt(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_paper_comparison(
    rows: Mapping[str, Mapping[str, Number]],
    title: str = "",
    paper_key: str = "paper",
    measured_key: str = "measured",
) -> str:
    """Render metric -> {paper, measured} dicts with a ratio column."""
    table_rows = []
    for metric, values in rows.items():
        paper = float(values[paper_key])
        measured = float(values[measured_key])
        ratio = measured / paper if paper else float("nan")
        table_rows.append([metric, paper, measured, ratio])
    return format_table(
        ["metric", "paper", "measured", "measured/paper"],
        table_rows,
        title=title,
        precision=2,
    )


def format_series(
    series: Mapping[str, Mapping[Number, Number]],
    x_label: str,
    y_label: str,
    title: str = "",
    precision: int = 2,
) -> str:
    """Render {series_name: {x: y}} as a table with one column per series."""
    xs = sorted({x for points in series.values() for x in points})
    headers = [x_label] + [f"{name} ({y_label})" for name in series]
    rows = []
    for x in xs:
        row: List[object] = [x]
        for name in series:
            row.append(series[name].get(x, float("nan")))
        rows.append(row)
    return format_table(headers, rows, title=title, precision=precision)
