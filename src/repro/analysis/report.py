"""Plain-text rendering of the evaluation's tables, series and CDFs.

The benchmark harness prints the same rows/series the paper plots, so a
reader can compare shapes (who wins, by what factor, where crossovers
fall) directly from the bench output captured in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis.metrics import Cdf


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
) -> str:
    """A fixed-width table with a title rule."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence[float]],
) -> str:
    """A Figure-8-style series table: one row per x, one column per line."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        row = [x] + [series[name][i] for name in series]
        rows.append(row)
    return render_table(title, headers, rows)


def ascii_cdf(
    title: str,
    cdfs: Dict[str, Cdf],
    width: int = 60,
    height: int = 12,
    unit: str = "",
) -> str:
    """A terminal sketch of one or more CDFs (Figure 6/7 style).

    Each distribution gets a marker character; the x axis spans the pooled
    sample range.
    """
    markers = "*o+x#@%&"
    lo = min(c.min() for c in cdfs.values())
    hi = max(c.max() for c in cdfs.values())
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for idx, (name, cdf) in enumerate(sorted(cdfs.items())):
        marker = markers[idx % len(markers)]
        for col in range(width):
            x = lo + (hi - lo) * col / (width - 1)
            frac = cdf.at(x)
            row = height - 1 - int(frac * (height - 1))
            if grid[row][col] == " ":
                grid[row][col] = marker
    lines = [title, "-" * len(title)]
    for i, row in enumerate(grid):
        frac = 1.0 - i / (height - 1)
        lines.append(f"{frac:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {lo:.3g}{' ' * (width - 16)}{hi:.3g} {unit}")
    for idx, (name, cdf) in enumerate(sorted(cdfs.items())):
        lines.append(f"  [{markers[idx % len(markers)]}] {name}: {cdf.summary()}")
    return "\n".join(lines)


def render_matrix(
    title: str,
    row_label: str,
    col_labels: Sequence[str],
    cells: Dict[str, Dict[str, str]],
) -> str:
    """A labelled grid (e.g. scenario x mode), one row per outer key.

    ``cells`` maps row name -> column name -> display value; missing
    entries render as ``-``.  Rows come out sorted so the same data always
    renders identically (sweep reports are diffed across runs).
    """
    rows = []
    for row_name in sorted(cells):
        row = [row_name]
        for col in col_labels:
            row.append(cells[row_name].get(col, "-"))
        rows.append(row)
    return render_table(title, [row_label] + list(col_labels), rows)


def render_headroom(
    title: str,
    labeled_stats: Sequence[Tuple[str, object]],
) -> str:
    """Per-cell history-window headroom: one row per labeled
    :class:`~repro.core.history.WindowHeadroomStats`.

    The deficit columns are lower bounds on the extra window each late
    arrival would have needed; ``late = 0`` rows are the envelope's safe
    region.  Used by the window-envelope mapper's report and anything
    else that carries headroom-bearing cells.
    """
    rows = []
    for label, s in labeled_stats:
        rows.append([
            label,
            s.window_us,
            s.late_count,
            s.max_deficit_us,
            s.p50_deficit_us,
            s.p90_deficit_us,
            s.p99_deficit_us,
        ])
    return render_table(
        title,
        ["cell", "window (us)", "late", "max deficit (us)",
         "p50 (us)", "p90 (us)", "p99 (us)"],
        rows,
    )


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)

