import re

import numpy as np
import pytest

from tsseg import Segmentation, TimeSeries, segment_stats
from tsseg.costs import _segment_fits
from tsseg.svg import segmentation_svg


def per_point_polylines(x, seg, fitted, width=900, height=360):
    """The polyline points of the chart, one f-string per point: the
    series, then the fit of each segment, of which a flat one is drawn by
    its first and last points (one point for a one-point segment)."""
    values = x.values
    T = len(x)
    lo = min(values.min(), fitted.min())
    hi = max(values.max(), fitted.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    plot_w, plot_h = width - 56 - 16, height - 24 - 36

    def sx(i):
        return 56 + (plot_w * i / max(T - 1, 1))

    def sy(v):
        return 24 + plot_h * (hi - v) / (hi - lo)

    lines = [" ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(values))]
    for start, end in seg.segments():
        drawn = range(start - 1, end)
        if len({fitted[i] for i in drawn}) == 1:
            drawn = sorted({start - 1, end - 1})
        lines.append(" ".join(f"{sx(i):.2f},{sy(fitted[i]):.2f}" for i in drawn))
    return lines


@pytest.mark.parametrize("model", ["means", "ar"])
@pytest.mark.parametrize("labelled", [False, True])
def test_polylines_match_the_per_point_rendering(model, labelled):
    rng = np.random.default_rng(9)
    values = np.concatenate(
        [rng.standard_normal(70) + level for level in (0.0, 3.0, -1.5)]
    )
    labels = np.arange(1901, 1901 + values.size) if labelled else None
    x = TimeSeries(values, labels)
    seg = Segmentation((0, 70, 140, 210))
    if model == "means":
        fitted = np.concatenate(
            [np.full(s.length, s.mean) for s in segment_stats(x, seg)]
        )
    else:
        fitted, _, _ = _segment_fits(x.values, seg.change_points, "ar", 2)
    svg = segmentation_svg(x, seg, fitted=fitted, title="t")
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert drawn == per_point_polylines(x, seg, fitted)
    # the means fit is flat on each segment, the ar fit is not
    assert [len(line.split()) for line in drawn[1:]] == (
        [2, 2, 2] if model == "means" else [70, 70, 70]
    )
    if labelled:
        assert ">1970</text>" in svg


def test_a_flat_fit_is_drawn_by_its_ends():
    rng = np.random.default_rng(4)
    x = TimeSeries(np.concatenate(
        [rng.standard_normal(30), [4.0], 2.0 + rng.standard_normal(9)]
    ))
    seg = Segmentation((0, 30, 31, 33, 40))  # a one-point and a two-point segment
    fitted, _, _ = _segment_fits(x.values, seg.change_points, "means", 0)
    svg = segmentation_svg(x, seg, fitted=fitted)
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert drawn == per_point_polylines(x, seg, fitted)
    assert [len(line.split()) for line in drawn] == [40, 2, 1, 2, 2]
