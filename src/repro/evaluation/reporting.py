"""ASCII reporting helpers for experiment drivers and benchmarks."""

from __future__ import annotations

from ..errors import ReproError


def format_table(headers: list[str], rows: list[list],
                 title: str = "") -> str:
    """Render a fixed-width text table."""
    if not headers:
        raise ReproError("table needs headers")
    rendered_rows = []
    for row in rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        rendered_rows.append([
            f"{cell:.4f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_percent(value: float) -> str:
    """Render a fraction as a percentage string."""
    return f"{value * 100.0:.2f}%"
