"""CSV tables, and the SVG line charts drawn from them on demand.

``write_table`` writes every CSV from its columns and ``read_csv_columns``
parses it back.  No run draws a plot: ``plot_csv`` draws one from a CSV
alone, after the run, by the recipe README lists for that table (x column,
y columns, title, logy).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = ["write_table", "read_csv_columns", "render_line_chart", "plot_csv"]

_WIDTH, _HEIGHT = 720, 460
_ML, _MR, _MT, _MB = 80, 20, 30, 50  # margins
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_BLOCK_ROWS = 2**14  # rows write_table formats per write


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return "" if v is None else str(v)


def _column_cells(col) -> tuple[str, list | np.ndarray]:
    """The %-format of one column and its cells as the format takes them.

    Integer and float columns print through %d and %.17g, which give the
    bytes ``_fmt`` gives; any other column (bool, None, str, or mixed types)
    is formatted by ``_fmt`` cell by cell and printed through %s.  An integer
    or float array is returned as it is, for its rows to be taken a block at
    a time.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind in "iuf":
        return ("%.17g" if col.dtype.kind == "f" else "%d"), col
    cells = col.tolist() if isinstance(col, np.ndarray) else list(col)
    kinds = set(map(type, cells))
    if not any(issubclass(k, (bool, np.bool_)) for k in kinds):
        if all(issubclass(k, (int, np.integer)) for k in kinds):
            return "%d", cells
        if all(issubclass(k, (float, np.floating)) for k in kinds):
            return "%.17g", cells
    return "%s", list(map(_fmt, cells))


def write_table(path, params: dict, columns: dict) -> None:
    """The ``# `` echo of ``params`` in sorted key order, the header (the
    keys of ``columns``), then one line per row; every cell is printed as
    ``_fmt`` prints it.

    The columns (arrays or sequences of equal length) go through one
    %-template per table, one format per column, without a tuple per row,
    ``_BLOCK_ROWS`` rows at a time, so the text held at once stays bounded.
    """
    header, fmts, cells = list(columns), [], []
    for col in columns.values():
        fmt, col_cells = _column_cells(col)
        fmts.append(fmt)
        cells.append(col_cells)
    n = len(cells[0]) if cells else 0
    if any(len(c) != n for c in cells):
        raise ValueError("columns must have equal lengths")
    row, width = ",".join(fmts), len(cells)
    with open(path, "w") as fh:
        fh.write("# " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items())) + "\n"
                 + ",".join(header) + "\n")
        for lo in range(0, n, _BLOCK_ROWS):
            rows = min(n - lo, _BLOCK_ROWS)
            flat = [None] * (rows * width)
            for j, col_cells in enumerate(cells):
                part = col_cells[lo:lo + rows]
                flat[j::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write("\n".join([row] * rows) % tuple(flat) + "\n")


def read_csv_columns(path, columns: Optional[Sequence[str]] = None) -> dict:
    """Parse a trace CSV (leading # comments, header row, float cells).

    Only the named ``columns`` that the header has are parsed, or every
    column when ``columns`` is None.  Empty cells become NaN so optional
    columns stay aligned.  Each line goes straight into the column lists as
    it is read.
    """
    cols, picked = {}, None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or raw.startswith("#"):
                continue
            if picked is None:
                header = line.split(",")
                cols = {name: [] for name in header if columns is None or name in columns}
                picked = [(i, cols[name]) for i, name in enumerate(header) if name in cols]
                continue
            cells = line.split(",")
            for i, col in picked:
                cell = cells[i]
                col.append(float(cell) if cell else math.nan)
    return cols


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * step:
        out.append(v)
        v += step
    return out


def render_line_chart(
    x: Sequence[float],
    ys: Sequence[Sequence[float]],
    labels: Sequence[str],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logy: bool = False,
) -> str:
    x = np.asarray(x, dtype=float)
    series = []
    for y in ys:
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logy:
            keep &= y > 0.0
        series.append((x[keep], y[keep]))
    flat_x = np.concatenate([np.empty(0)] + [a for a, _ in series])
    flat_y = np.concatenate([np.empty(0)] + [b for _, b in series])
    if not flat_x.size:
        flat_x, flat_y = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x_lo, x_hi = float(flat_x.min()), float(flat_x.max())
    if logy:
        y_lo, y_hi = math.log10(flat_y.min()), math.log10(flat_y.max())
    else:
        y_lo, y_hi = float(flat_y.min()), float(flat_y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = _WIDTH - _ML - _MR, _HEIGHT - _MT - _MB
    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle">{title}</text>')
    for tv in _ticks(x_lo, x_hi):
        xx = _ML + pw * (tv - x_lo) / x_span
        parts.append(f'<line x1="{xx:.2f}" y1="{_MT + ph}" x2="{xx:.2f}" y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{xx:.2f}" y="{_MT + ph + 18}" text-anchor="middle">{tv:.4g}</text>')
    for tv in _ticks(y_lo, y_hi):
        yy = _MT + ph * (1.0 - (tv - y_lo) / y_span)
        label = f"1e{tv:.3g}" if logy else f"{tv:.4g}"
        parts.append(f'<line x1="{_ML - 5}" y1="{yy:.2f}" x2="{_ML}" y2="{yy:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{_ML + pw / 2}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{_MT + ph / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_MT + ph / 2})">{ylabel}</text>'
        )
    for i, (a, b) in enumerate(series):
        if not a.size:
            continue
        color = _COLORS[i % len(_COLORS)]
        if logy:  # math.log10 like y_lo and y_hi: np.log10 can differ in the last bit
            b = np.fromiter(map(math.log10, b.tolist()), float, b.size)
        xy = np.empty(2 * a.size)
        xy[0::2] = _ML + pw * (a - x_lo) / x_span
        xy[1::2] = _MT + ph * (1.0 - (b - y_lo) / y_span)
        coords = " ".join(["%.2f,%.2f"] * a.size) % tuple(xy.tolist())
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        parts.append(
            f'<text x="{_WIDTH - _MR - 6}" y="{_MT + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{labels[i]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def plot_csv(
    csv_path,
    svg_path,
    x_col: str,
    y_cols: Sequence[str],
    title: str = "",
    logy: bool = False,
) -> None:
    """Draw ``y_cols`` against ``x_col`` of the CSV at ``csv_path`` into
    ``svg_path``; a row whose cell is empty (or, with ``logy``, not positive) is
    left out of that column's line."""
    cols = read_csv_columns(csv_path, [x_col, *y_cols])
    labels = [c for c in y_cols if c in cols]
    svg = render_line_chart(
        cols[x_col], [cols[c] for c in labels], labels, title=title, xlabel=x_col,
        ylabel=",".join(labels), logy=logy,
    )
    with open(svg_path, "w") as fh:
        fh.write(svg)
