"""Static SVG rendering of a segmented series.

The chart overlays the raw series polyline with the per-segment model fit
(horizontal mean bars for the means model, per-segment curves otherwise)
and marks change points with dashed vertical rules.  A segment whose fit
is flat is drawn by its two end points, any other fit point by point.
Output is plain SVG text with fixed number formatting, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .core import Segmentation, TimeSeries

__all__ = ["segmentation_svg"]

_WIDTH, _HEIGHT = 900, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 24, 36


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline points "x,y x,y ..." formatted as :func:`_fmt` does, in one
    format call over the interleaved coordinates."""
    xy = np.empty(2 * len(xs))
    xy[0::2] = xs
    xy[1::2] = ys
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy.tolist())


def segmentation_svg(
    x: TimeSeries, t: Segmentation, fitted: np.ndarray, title: str | None = None
) -> str:
    """Render the series with its segmentation as an SVG document.

    ``fitted`` gives the model value at every index.
    """
    values = x.values
    T = len(x)
    if t.length != T:
        raise ValueError("segmentation does not match the series length")
    fitted = np.asarray(fitted, dtype=np.float64)
    ticks = x.labels if x.labels is not None else np.arange(1, T + 1)

    lo = min(values.min(), fitted.min())
    hi = max(values.max(), fitted.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(i):  # i is a 0-based index, or an array of them
        return _MARGIN_L + (plot_w * i / max(T - 1, 1))

    def sy(v):
        return _MARGIN_T + plot_h * (hi - v) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#999"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH // 2}" y="16" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )

    # y-axis ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="#999"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )
    # x-axis ticks at segment boundaries
    for cp in t.change_points[1:]:
        xx = sx(cp - 1)
        label = int(ticks[cp - 1])
        out.append(
            f'<line x1="{_fmt(xx)}" y1="{_HEIGHT - _MARGIN_B}" x2="{_fmt(xx)}" '
            f'y2="{_HEIGHT - _MARGIN_B + 4}" stroke="#999"/>'
        )
        out.append(
            f'<text x="{_fmt(xx)}" y="{_HEIGHT - _MARGIN_B + 16}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{label}</text>"
        )

    # change-point rules (interior boundaries)
    for cp in t.change_points[1:-1]:
        xx = sx(cp - 1)
        out.append(
            f'<line x1="{_fmt(xx)}" y1="{_MARGIN_T}" x2="{_fmt(xx)}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#bbb" stroke-dasharray="4 3"/>'
        )

    xs = sx(np.arange(T))
    out.append(
        f'<polyline points="{_points(xs, sy(values))}" fill="none" '
        f'stroke="#4878a8" stroke-width="1"/>'
    )
    # fitted values, one polyline per segment so jumps stay vertical-free;
    # a flat run (every means fit) is drawn by its two end points: the
    # slice's step skips from the first point straight to the last
    ys = sy(fitted)
    for start, end in t.segments():
        run = fitted[start - 1 : end]
        step = max(end - start, 1) if (run == run[0]).all() else 1
        seg_pts = _points(xs[start - 1 : end : step], ys[start - 1 : end : step])
        out.append(
            f'<polyline points="{seg_pts}" fill="none" stroke="#c03028" '
            f'stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
