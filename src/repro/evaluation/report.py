"""Plain-text rendering of benchmark tables and histograms."""

from __future__ import annotations

from typing import Sequence

HISTOGRAM_WIDTH = 40


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render an aligned fixed-width table.

    Numbers are right-aligned, everything else left-aligned; floats are
    shown with four significant decimals.
    """

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]

    def align(value: str, width: int, numeric: bool) -> str:
        return value.rjust(width) if numeric else value.ljust(width)

    numeric_cols = [
        all(_is_number(r[i]) for r in text_rows) if text_rows else False
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            "  ".join(
                align(v, w, num) for v, w, num in zip(row, widths, numeric_cols)
            )
        )
    return "\n".join(lines)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def format_histogram(bands: Sequence[tuple[str, int]], *, title: str = "") -> str:
    """Render labelled counts as an ASCII bar chart (Figure 4 style), the
    largest count ``HISTOGRAM_WIDTH`` characters wide."""
    peak = max((count for _label, count in bands), default=1) or 1
    label_width = max((len(label) for label, _count in bands), default=0)
    lines = [title] if title else []
    for label, count in bands:
        bar = "#" * round(HISTOGRAM_WIDTH * count / peak)
        lines.append(f"{label.rjust(label_width)} | {bar} {count}")
    return "\n".join(lines)
