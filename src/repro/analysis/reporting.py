"""Fixed-width table rendering for experiment output.

Every experiment prints its figure as a text table: the x-axis values down
the first column and one column per series (e.g. per Lambda).  The paper's
figures are line charts; the tables carry the same rows/series.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Number = Union[int, float]

_KILO = 1024


def format_bytes(value: float) -> str:
    """Human bytes: 4.0K, 2.3M, 1.1G -- matching the paper's axis labels."""
    for suffix in ("", "K", "M", "G", "T"):
        if abs(value) < _KILO:
            if suffix == "" or float(value).is_integer() and value < 10 * _KILO:
                return f"{value:.0f}{suffix}"
            return f"{value:.1f}{suffix}"
        value /= _KILO
    return f"{value:.1f}P"


def render_table(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Dict[str, Sequence[Number]],
    x_formatter=str,
    value_formatter=str,
) -> str:
    """Render one figure's data as a fixed-width text table."""
    for label, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} values for {len(x_values)} x points"
            )
    headers = [x_label] + list(series)
    rows: List[List[str]] = []
    for i, x in enumerate(x_values):
        row = [x_formatter(x)]
        for label in series:
            row.append(value_formatter(series[label][i]))
        rows.append(row)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def render_kv(title: str, pairs: Dict[str, object]) -> str:
    """Render a key/value block (dataset summaries, single-value results)."""
    width = max(len(k) for k in pairs) if pairs else 0
    lines = [title]
    for key, value in pairs.items():
        lines.append(f"  {key.ljust(width)} : {value}")
    return "\n".join(lines)
