"""Hand-rolled SVG line charts.

Deliberately tiny: polylines, axes with 1-2-5 ticks, a legend, and an
optional metadata comment — enough to eyeball learning curves and sweeps
without pulling in a plotting stack.  Values stay linear in the data model;
the decibel transform (10*log10) happens here, at render time, when a chart
asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from typing import Iterable, Sequence

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62.0, 14.0, 30.0, 46.0


@dataclass(frozen=True)
class Series:
    """One named curve.  dash is an SVG dash pattern ("6 4"), solid if None.
    markers=True draws a small circle at every point (for sparse overlays).
    """

    label: str
    x: Sequence[float]
    y: Sequence[float]
    dash: str | None = None
    markers: bool = False


def _px(v: float) -> str:
    return f"{v:.2f}"


def _ticks_linear(lo: float, hi: float) -> list[float]:
    """4-8 ticks on a 1-2-5 ladder covering [lo, hi]."""
    span = hi - lo
    if not 1e-300 < span < math.inf:  # smaller spans underflow the 1-2-5 ladder
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _ticks_log(lo: float, hi: float) -> list[float]:
    """Decade ticks for a log axis (lo > 0)."""
    k0 = math.ceil(math.log10(lo) - 1e-9)
    k1 = math.floor(math.log10(hi) + 1e-9)
    if k1 < k0:
        return [lo, hi]
    return [10.0**k for k in range(k0, k1 + 1)]


def line_chart(
    series: Sequence[Series],
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    x_log: bool = False,
    y_db: bool = False,
    width: int = 720,
    height: int = 460,
    metadata: Iterable[str] = (),
) -> str:
    """Render the curves into a standalone SVG document (a str).

    x_log draws a logarithmic x axis and silently drops x <= 0 points;
    y_db plots 10*log10(y) and drops y <= 0 points.  Non-finite points are
    dropped, their neighbours joined.  metadata lines end up in a leading XML
    comment, each prefixed with "# ", so the provenance survives in the file.
    """
    plots: list[tuple[Series, np.ndarray, np.ndarray]] = []
    for s in series:
        x = np.asarray(s.x, dtype=float).reshape(-1)
        y = np.asarray(s.y, dtype=float).reshape(-1)
        if x.size != y.size:
            raise ValueError(f"series {s.label!r}: x and y lengths differ")
        keep = np.isfinite(x) & np.isfinite(y)
        if x_log:
            keep &= x > 0.0
        if y_db:
            keep &= y > 0.0
        x, y = x[keep], y[keep]
        if y_db:
            y = 10.0 * np.log10(y)
        if x_log:
            x = np.log10(x)
        if x.size:
            plots.append((s, x, y))

    if plots:
        x_lo = min(float(p[1].min()) for p in plots)
        x_hi = max(float(p[1].max()) for p in plots)
        y_lo = min(float(p[2].min()) for p in plots)
        y_hi = max(float(p[2].max()) for p in plots)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_lo + 0.5
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.5, y_lo + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = height - _MARGIN_B, _MARGIN_T  # y grows downward in SVG

    def sx(v):  # a float or an array, elementwise
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        return py0 + (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out: list[str] = []
    meta = list(metadata)
    if meta:
        out.append("<!--")
        # "--" is illegal inside an XML comment.
        out.extend("# " + line.replace("--", "-‐") for line in meta)
        out.append("-->")
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="Helvetica, Arial, sans-serif" font-size="11">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    # Grid + ticks.
    if x_log:
        xticks = _ticks_log(10.0**x_lo, 10.0**x_hi)
        xtick_pos = [math.log10(t) for t in xticks]
    else:
        xticks = _ticks_linear(x_lo, x_hi)
        xtick_pos = xticks
    yticks = _ticks_linear(y_lo, y_hi)
    for t, p in zip(xticks, xtick_pos):
        gx = _px(sx(p))
        out.append(
            f'<line x1="{gx}" y1="{_px(py1)}" x2="{gx}" y2="{_px(py0)}" '
            'stroke="#dddddd" stroke-width="0.6"/>'
        )
        out.append(
            f'<text x="{gx}" y="{_px(py0 + 16)}" text-anchor="middle" '
            f'fill="#333333">{t:.6g}</text>'
        )
    for t in yticks:
        gy = _px(sy(t))
        out.append(
            f'<line x1="{_px(px0)}" y1="{gy}" x2="{_px(px1)}" y2="{gy}" '
            'stroke="#dddddd" stroke-width="0.6"/>'
        )
        out.append(
            f'<text x="{_px(px0 - 6)}" y="{gy}" text-anchor="end" '
            f'dominant-baseline="middle" fill="#333333">{t:.6g}</text>'
        )

    # Axes frame.
    out.append(
        f'<rect x="{_px(px0)}" y="{_px(py1)}" width="{_px(px1 - px0)}" '
        f'height="{_px(py0 - py1)}" fill="none" stroke="#333333" '
        'stroke-width="1"/>'
    )
    if title:
        out.append(
            f'<text x="{_px((px0 + px1) / 2)}" y="18" text-anchor="middle" '
            f'font-size="13" fill="#111111">{escape(title, quote=False)}</text>'
        )
    if x_label:
        lbl = escape(x_label, quote=False) + (" (log)" if x_log else "")
        out.append(
            f'<text x="{_px((px0 + px1) / 2)}" y="{_px(height - 10)}" '
            f'text-anchor="middle" fill="#111111">{lbl}</text>'
        )
    if y_label:
        lbl = escape(y_label, quote=False) + (" [dB]" if y_db else "")
        cy = (py0 + py1) / 2
        out.append(
            f'<text x="14" y="{_px(cy)}" text-anchor="middle" '
            f'transform="rotate(-90 14 {_px(cy)})" fill="#111111">{lbl}</text>'
        )

    # Curves (clipped to the frame).
    out.append(
        f'<clipPath id="plot"><rect x="{_px(px0)}" y="{_px(py1)}" '
        f'width="{_px(px1 - px0)}" height="{_px(py0 - py1)}"/></clipPath>'
    )
    out.append('<g clip-path="url(#plot)">')
    for i, (s, x, y) in enumerate(plots):
        color = PALETTE[i % len(PALETTE)]
        xs, ys = sx(x).tolist(), sy(y).tolist()  # same operation order per point
        pts = " ".join(map("{:.2f},{:.2f}".format, xs, ys))
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        if x.size > 1:
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"{dash}/>'
            )
        if s.markers or x.size == 1:
            for a, b in zip(xs, ys):
                out.append(
                    f'<circle cx="{_px(a)}" cy="{_px(b)}" r="3" '
                    f'fill="{color}"/>'
                )
    out.append("</g>")

    # Legend, top-right inside the frame.
    if plots:
        lx, ly = px1 - 170.0, py1 + 10.0
        box_h = 16.0 * len(plots) + 8.0
        out.append(
            f'<rect x="{_px(lx - 6)}" y="{_px(ly - 4)}" width="170" '
            f'height="{_px(box_h)}" fill="white" fill-opacity="0.85" '
            'stroke="#bbbbbb" stroke-width="0.6"/>'
        )
        for i, (s, _, _) in enumerate(plots):
            color = PALETTE[i % len(PALETTE)]
            yy = ly + 8 + 16.0 * i
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            out.append(
                f'<line x1="{_px(lx)}" y1="{_px(yy)}" x2="{_px(lx + 22)}" '
                f'y2="{_px(yy)}" stroke="{color}" stroke-width="1.6"{dash}/>'
            )
            out.append(
                f'<text x="{_px(lx + 28)}" y="{_px(yy)}" '
                f'dominant-baseline="middle" fill="#111111">'
                f"{escape(s.label, quote=False)}</text>"
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
