"""Static SVG figures for run reports: correlation heatmaps and line charts.

Hand-rolled SVG keeps the library dependency-free; the charts are meant for
quick report viewing, not publication.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _heat_color(value: float) -> str:
    """Blue (-1) through white (0) to red (+1); gray for NaN."""
    if not np.isfinite(value):
        return "#bbbbbb"
    v = max(-1.0, min(1.0, value))
    if v >= 0:
        g = int(round(255 * (1 - v)))
        return f"#ff{g:02x}{g:02x}"
    g = int(round(255 * (1 + v)))
    return f"#{g:02x}{g:02x}ff"


def _write_svg(path: str, width: int, height: int, title_x: int, title: str,
               body: list[str]) -> None:
    """Write an SVG: the header, the title at (title_x, 20), then ``body``'s elements."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'font-family="monospace" font-size="11">',
            f'<text x="{title_x}" y="20" font-size="14">{title}</text>', *body, "</svg>"]))


def svg_heatmap(matrix: np.ndarray, labels: Sequence[str], path: str,
                title: str = "") -> None:
    """Write a correlation heatmap (values expected in [-1, 1], NaN allowed)."""
    m = np.asarray(matrix, dtype=np.float64)
    d = m.shape[0]
    cell, margin, top = 34, 110, 40
    width = margin + d * cell + 20
    height = top + d * cell + margin
    parts = []
    for i in range(d):
        for j in range(d):
            x, y = margin + j * cell, top + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(m[i, j])}" stroke="#fff"/>')
            if np.isfinite(m[i, j]):
                parts.append(
                    f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" '
                    f'text-anchor="middle" font-size="8">{m[i, j]:+.2f}</text>')
    for i, lab in enumerate(labels):
        parts.append(f'<text x="{margin - 6}" y="{top + i * cell + cell / 2 + 4}" '
                     f'text-anchor="end">{lab}</text>')
        x = margin + i * cell + cell / 2
        y = top + d * cell + 10
        parts.append(f'<text x="{x}" y="{y}" text-anchor="end" '
                     f'transform="rotate(-60 {x} {y})">{lab}</text>')
    _write_svg(path, width, height, margin, title, parts)


_LINE_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def svg_lines(series: dict[str, Sequence[float]], path: str, title: str = "",
              ylabel: str = "") -> None:
    """Write a 640 x 360 line chart of one or more series, each non-empty and
    finite: a polyline per series, or a dot for a one-point series."""
    width, height, left, right, top, bottom = 640, 360, 60, 150, 40, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    values = [v for vals in series.values() for v in vals]
    lo, hi = min(values), max(values)
    if math.isclose(lo, hi):
        lo, hi = lo - 1.0, hi + 1.0
    n_max = max(len(v) for v in series.values())

    def sx(i: float) -> float:
        return left + plot_w * (i / max(1, n_max - 1))

    def sy(v: float) -> float:
        return top + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
        f'<text x="12" y="{top + plot_h / 2}" transform="rotate(-90 12 '
        f'{top + plot_h / 2})" text-anchor="middle">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(f'<text x="{left - 6}" y="{sy(v) + 4}" text-anchor="end">'
                     f'{v:.3g}</text>')
        parts.append(f'<line x1="{left}" y1="{sy(v)}" x2="{left + plot_w}" '
                     f'y2="{sy(v)}" stroke="#ddd"/>')
    for idx, (name, vals) in enumerate(series.items()):
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        points = [f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals)]
        if len(points) == 1:
            x, y = points[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{" ".join(points)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 16 * idx
        parts.append(f'<line x1="{width - right + 10}" y1="{ly}" '
                     f'x2="{width - right + 34}" y2="{ly}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - right + 40}" y="{ly + 4}">{name}</text>')
    _write_svg(path, width, height, left, title, parts)
