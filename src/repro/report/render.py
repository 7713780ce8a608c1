"""Plain-text table rendering for experiment output.

Every experiment prints its reproduction of a paper table/figure as a
fixed-width text table, with the same row labels the paper uses, so the
bench output can be compared against the paper side by side.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str | None = None,
) -> str:
    """Render a titled fixed-width table.

    Cells are stringified as-is; numeric formatting is the caller's
    job (experiments format to match the paper's precision).
    """
    text_rows = [[_text(cell) for cell in row] for row in rows]
    text_headers = [_text(h) for h in headers]
    widths = [len(h) for h in text_headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
            else:
                widths.append(len(cell))

    def fmt(cells: list[str]) -> str:
        """Pad one row's cells to the column widths."""
        padded = []
        for i, cell in enumerate(cells):
            # First column (row label) left-aligned, the rest right.
            if i == 0:
                padded.append(cell.ljust(widths[i]))
            else:
                padded.append(cell.rjust(widths[i]))
        return "  ".join(padded)

    separator = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, "=" * len(title), fmt(text_headers), separator]
    lines.extend(fmt(row) for row in text_rows)
    if note:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _text(cell: object) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def render_bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    value_format: str = "{:.0f}",
) -> str:
    """Render a horizontal text bar chart (for the figure experiments)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    peak = max(values, default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines = [title, "=" * len(title)]
    for label, value in zip(labels, values):
        bar_length = round(width * value / peak) if peak else 0
        rendered_value = value_format.format(value)
        lines.append(
            f"{label.rjust(label_width)} | {'#' * bar_length} {rendered_value}"
        )
    return "\n".join(lines)


def render_degradation_appendix(study) -> str | None:
    """Appendix listing every degraded analysis stage of a *study*.

    Returns ``None`` when every stage completed OK — the tables above
    then stand unqualified.  Quarantined and failed tables are excluded
    from every reproduced statistic, so the appendix is the only place
    they surface.
    """
    from ..resilience.executor import StageStatus

    rows = []
    for portal in study:
        for outcome in portal.executor.outcomes:
            if outcome.status is StageStatus.OK:
                continue
            rows.append(
                [
                    outcome.portal,
                    outcome.stage,
                    outcome.table_id,
                    outcome.status.value,
                    outcome.ticks,
                    outcome.detail or "",
                ]
            )
    if not rows:
        return None
    return render_table(
        "Appendix: degraded analysis stages",
        ["portal", "stage", "table", "status", "ticks", "detail"],
        rows,
        note=(
            "quarantined and failed tables are excluded from every "
            "statistic above; truncated stages report a deterministic "
            "partial result"
        ),
    )


def percent(value: float, digits: int = 1) -> str:
    """Format a fraction as the paper prints percentages."""
    return f"{value * 100:.{digits}f}%"


def mib(size_bytes: float, digits: int = 2) -> str:
    """Format bytes as MiB (the corpus is ~1/100 scale, so GiB would
    round everything to zero)."""
    return f"{size_bytes / (1024 * 1024):.{digits}f} MiB"
