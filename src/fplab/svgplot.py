"""CSV tables and the SVG line charts drawn from them.

``write_table`` writes every CSV and ``read_csv_columns`` parses it back.
Charts are rendered from parsed CSV content only, so any plot can be
regenerated offline from its CSV without rerunning the computation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = ["write_table", "read_csv_columns", "render_line_chart", "plot_csv"]

_WIDTH, _HEIGHT = 720, 460
_ML, _MR, _MT, _MB = 80, 20, 30, 50  # margins
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return "" if v is None else str(v)


def _row_template(kinds) -> str | None:
    """The %-template that formats a row of these cell types as ``_fmt`` would.

    None when some cell has no fixed format (bool, None, str, ...).
    """
    fmts = []
    for kind in kinds:
        if issubclass(kind, (bool, np.bool_)):
            return None
        if issubclass(kind, (int, np.integer)):
            fmts.append("%d")
        elif issubclass(kind, (float, np.floating)):
            fmts.append("%.17g")
        else:
            return None
    return ",".join(fmts)


def write_table(path, params: dict, header, rows) -> None:
    """The ``# `` echo of ``params`` in sorted key order, the header, then one
    line per row; every cell is formatted by ``_fmt``.

    Rows whose cell types match the first row's go through one %-template,
    which prints the same bytes as ``_fmt`` cell by cell.
    """
    lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(params.items()))]
    lines.append(",".join(header))
    kinds = template = None
    for row in rows:
        row = tuple(row)
        if kinds is None:
            # lists, not tuples: a tuple per row would park ~2000 freed
            # tuples on the interpreter's free list for each row length
            kinds = list(map(type, row))
            template = _row_template(kinds)
        if template is not None and list(map(type, row)) == kinds:
            lines.append(template % row)
        else:
            lines.append(",".join(map(_fmt, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    isfinite = math.isfinite
    series = [
        [(a, b) for a, b in zip(x, y) if isfinite(a) and isfinite(b) and (b > 0.0 or not logy)]
        for y in ys
    ]
    flat_x = [a for pts in series for a, _ in pts]
    flat_y = [b for pts in series for _, b in pts]
    if not flat_x:
        flat_x, flat_y = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(flat_x), max(flat_x)
    if logy:
        y_lo, y_hi = math.log10(min(flat_y)), math.log10(max(flat_y))
    else:
        y_lo, y_hi = min(flat_y), max(flat_y)
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
    for i, pts in enumerate(series):
        if not pts:
            continue
        color = _COLORS[i % len(_COLORS)]
        if logy:
            pts = [(a, math.log10(b)) for a, b in pts]
        coords = " ".join([
            "%.2f,%.2f" % (_ML + pw * (a - x_lo) / x_span, _MT + ph * (1.0 - (b - y_lo) / y_span))
            for a, b in pts
        ])
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
    ylabel: Optional[str] = None,
) -> None:
    cols = read_csv_columns(csv_path, [x_col, *y_cols])
    x = cols[x_col]
    ys = [cols[c] for c in y_cols if c in cols]
    labels = [c for c in y_cols if c in cols]
    svg = render_line_chart(
        x, ys, labels, title=title, xlabel=x_col, ylabel=ylabel or ",".join(labels), logy=logy
    )
    with open(svg_path, "w") as fh:
        fh.write(svg)
