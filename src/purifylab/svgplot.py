"""Minimal SVG line charts, no plotting dependency.

CSV stays the canonical output; these charts are a visual convenience for
sweep and scaling commands.
"""

from __future__ import annotations

import math

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_TICKS = 5  # target number of intervals per axis


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICKS
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out


def line_chart(
    series: dict[str, tuple[list[float], list[float]]],
    path: str,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    loglog: bool = False,
) -> None:
    """Write a multi-series line chart to ``path`` as standalone SVG, log-log with ``loglog``."""

    def scale(v):
        return math.log10(v) if loglog else v

    xs_all = [scale(x) for xs, _ in series.values() for x in xs]
    ys_all = [scale(y) for _, ys in series.values() for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return _ML + (scale(v) - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (scale(v) - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # Axes box.
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for t in _ticks(x0, x1):
        v = 10**t if loglog else t
        x = _ML + (t - x0) / (x1 - x0) * (_W - _ML - _MR)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{v:g}</text>'
        )
    for t in _ticks(y0, y1):
        v = 10**t if loglog else t
        y = _H - _MB - (t - y0) / (y1 - y0) * (_H - _MT - _MB)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{v:g}</text>'
        )
    parts.append(
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>'
    )

    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * idx
        lx = _W - _MR - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
