"""Dependency-free SVG line charts for the experiment studies."""

from __future__ import annotations

import math

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 150, 40, 48


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    for m in (1, 2, 2.5, 5, 10):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labelled (x, y) polylines as a standalone SVG document."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L + plot_w / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        if x_lo <= tx <= x_hi:
            parts.append(
                f'<line x1="{px(tx):.1f}" y1="{MARGIN_T + plot_h}" x2="{px(tx):.1f}" '
                f'y2="{MARGIN_T + plot_h + 4}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{px(tx):.1f}" y="{MARGIN_T + plot_h + 16}" text-anchor="middle">{tx:g}</text>'
            )
    for ty in _ticks(y_lo, y_hi):
        if y_lo <= ty <= y_hi:
            yy = py(ty)
            parts.append(f'<line x1="{MARGIN_L - 4}" y1="{yy:.1f}" x2="{MARGIN_L}" y2="{yy:.1f}" stroke="#444"/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{yy + 3:.1f}" text-anchor="end">{ty:g}</text>')
            parts.append(
                f'<line x1="{MARGIN_L}" y1="{yy:.1f}" x2="{MARGIN_L + plot_w}" y2="{yy:.1f}" '
                'stroke="#ddd" stroke-dasharray="3,3"/>'
            )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text transform="translate(16,{MARGIN_T + plot_h / 2}) rotate(-90)" '
        f'text-anchor="middle">{ylabel}</text>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = [f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys) if math.isfinite(y)]
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 14 * k
        parts.append(
            f'<line x1="{MARGIN_L + plot_w + 8}" y1="{ly - 4}" x2="{MARGIN_L + plot_w + 28}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{MARGIN_L + plot_w + 32}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
