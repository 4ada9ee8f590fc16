"""Plain-text report formatting for experiment results.

The campaign report (``python -m repro run`` / ``report``) prints the same
rows and series the paper reports (Figs. 5-7 and the headline cost ratio),
and ``python -m repro.experiments.table_analytical`` the §5.3 worked
example; the helpers here render them as aligned text tables.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def _render_cell(cell: object, float_format: str) -> str:
    """Shared cell formatting of the text and markdown tables."""
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return float_format.format(cell)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render rows as a fixed-width text table.

    Floats are formatted with ``float_format``; everything else with
    ``str``.  Column widths adapt to the content.
    """
    rendered_rows: List[List[str]] = [
        [_render_cell(c, float_format) for c in row] for row in rows
    ]
    header_cells = [str(h) for h in headers]
    widths = [len(h) for h in header_cells]
    for row in rendered_rows:
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(header_cells)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(header_cells))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_series(
    name: str,
    window_starts: Sequence[int],
    values: Sequence[float],
    max_points: int = 20,
    float_format: str = "{:.1f}",
) -> str:
    """Render a windowed series compactly (down-sampled to ``max_points``)."""
    n = len(values)
    if n != len(window_starts):
        raise ValueError("window_starts and values must have the same length")
    if n == 0:
        return f"{name}: (empty series)"
    step = max(1, n // max_points)
    samples = [
        f"{window_starts[i]}:{float_format.format(values[i])}"
        for i in range(0, n, step)
    ]
    mean_value = sum(values) / n
    return (
        f"{name}: mean={float_format.format(mean_value)} over {n} windows | "
        + " ".join(samples)
    )


def format_mean_ci(summary, float_format: str = "{:.3f}") -> str:
    """Render a replicate summary as a ``mean ± half-width [n=N]`` cell.

    ``summary`` is a :class:`~repro.metrics.stats.ReplicateSummary`
    (duck-typed); degenerate n=1 groups render without the ± part, since a
    single replicate carries no interval.
    """
    return summary.format(float_format)


def format_replicate_table(
    groups,
    metrics: Optional[Sequence[str]] = None,
    float_format: str = "{:.3f}",
    title: Optional[str] = None,
) -> str:
    """Render replicate groups as a table of ``mean ± half-width`` cells.

    ``groups`` is a sequence of :class:`~repro.metrics.stats.ReplicateGroup`
    (duck-typed: ``label``, ``n``, ``metrics``).  One row per group, one
    column per metric; ``metrics`` selects and orders the columns (default:
    every metric of the first group, in its own order).
    """
    group_list = list(groups)
    if not group_list:
        return title or "(no replicate groups)"
    names = list(metrics) if metrics is not None else list(group_list[0].metrics)
    rows = [
        [g.label, g.n]
        + [
            format_mean_ci(g.metrics[name], float_format)
            if name in g.metrics
            else "-"
            for name in names
        ]
        for g in group_list
    ]
    return format_table(
        headers=["trial", "n"] + names,
        rows=rows,
        float_format=float_format,
        title=title,
    )


def format_progress(done: int, total: int, width: int = 20) -> str:
    """Render completion as ``[####----] done/total`` (empty-safe).

    ``python -m repro status`` prints one of these per campaign cell; with
    ``total == 0`` the bar renders full, since there is nothing left to do.
    """
    if total <= 0:
        fraction = 1.0
    else:
        fraction = max(0.0, min(1.0, done / total))
    filled = int(round(fraction * width))
    return f"[{'#' * filled}{'-' * (width - filled)}] {done}/{total}"


def format_markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as a GitHub-flavoured markdown table."""
    header_cells = [str(h) for h in headers]
    lines = [
        "| " + " | ".join(header_cells) + " |",
        "| " + " | ".join("---" for _ in header_cells) + " |",
    ]
    for row in rows:
        cells = [_render_cell(c, float_format) for c in row]
        if len(cells) != len(header_cells):
            raise ValueError(
                f"row has {len(cells)} cells but table has "
                f"{len(header_cells)} columns"
            )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_key_values(title: str, pairs: Sequence[tuple[str, object]]) -> str:
    """Render key/value pairs as an aligned block."""
    if not pairs:
        return title
    width = max(len(str(k)) for k, _ in pairs)
    lines = [title]
    for key, value in pairs:
        if isinstance(value, float):
            value = f"{value:.4g}"
        lines.append(f"  {str(key).ljust(width)} : {value}")
    return "\n".join(lines)
