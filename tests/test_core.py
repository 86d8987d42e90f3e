import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsseg import (
    Segmentation,
    TimeSeries,
    global_sigma,
    means_cost_direct,
    segment_stats,
)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            TimeSeries([1.0, bad])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], labels=[1900])

    def test_rejects_non_increasing_labels(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 2.0], labels=[1901, 1901])

    def test_length(self):
        assert len(TimeSeries([1, 2, 3])) == 3


class TestSegmentation:
    def test_rejects_bad_first(self):
        with pytest.raises(ValueError):
            Segmentation((1, 4))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Segmentation((0, 2, 2, 4))

    def test_segments_cover_series(self):
        t = Segmentation((0, 2, 4))
        assert t.order == 2
        assert t.length == 4
        assert t.segments() == [(1, 2), (3, 4)]


class TestSegmentStats:
    def test_constant_segments(self):
        stats = segment_stats(TimeSeries([1, 1, 2, 2]), Segmentation((0, 2, 4)))
        assert [s.mean for s in stats] == [1.0, 2.0]
        assert [s.deviation for s in stats] == [0.0, 0.0]

    def test_single_segment(self):
        (s,) = segment_stats(TimeSeries([1, 1, 2, 2]), Segmentation((0, 4)))
        assert s.mean == pytest.approx(1.5)
        assert s.deviation == pytest.approx(1.0)

    def test_uneven_segments(self):
        # brute arithmetic: mean of (0, 10, 10) is 20/3 and its squared
        # deviation is (20/3)^2 + 2 * (10/3)^2 = 200/3
        stats = segment_stats(TimeSeries([0, 0, 10, 10]), Segmentation((0, 1, 4)))
        assert stats[0].mean == 0.0 and stats[0].deviation == 0.0
        assert stats[1].mean == pytest.approx(20 / 3)
        assert stats[1].deviation == pytest.approx(200 / 3)

    def test_lengths_sum_to_T(self):
        stats = segment_stats(TimeSeries([0, 0, 10, 10]), Segmentation((0, 1, 4)))
        assert sum(s.length for s in stats) == 4

    def test_incompatible_lengths_rejected(self):
        with pytest.raises(ValueError):
            segment_stats(TimeSeries([1, 2, 3]), Segmentation((0, 4)))


class TestSegmentationCost:
    def test_piecewise_constant(self):
        stats = segment_stats(TimeSeries([1, 1, 2, 2]), Segmentation((0, 2, 4)))
        assert [s.deviation for s in stats] == [0.0, 0.0]

    def test_single_block(self):
        stats = segment_stats(TimeSeries([1, 1, 5, 5]), Segmentation((0, 4)))
        assert [s.deviation for s in stats] == [16.0]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_order_T_is_free(self, values):
        x = TimeSeries(values)
        t = Segmentation(tuple(range(len(values) + 1)))
        assert all(s.deviation == 0.0 for s in segment_stats(x, t))

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=30),
        st.data(),
    )
    def test_cost_is_sum_of_deviations(self, values, data):
        x = TimeSeries(values)
        k = data.draw(st.integers(1, len(values)))
        interior = data.draw(
            st.lists(
                st.integers(1, len(values) - 1),
                unique=True,
                min_size=min(k, len(values)) - 1,
                max_size=min(k, len(values)) - 1,
            )
        )
        t = Segmentation((0, *sorted(interior), len(values)))
        total = sum(means_cost_direct(x, a, b) for a, b in t.segments())
        parts = sum(s.deviation for s in segment_stats(x, t))
        assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestGlobalSigma:
    def test_constant(self):
        assert global_sigma(TimeSeries([1, 1, 1, 1])) == 0.0

    def test_two_points(self):
        assert global_sigma(TimeSeries([0, 2])) == pytest.approx(math.sqrt(2))

    def test_linear(self):
        # deviations (-2,-1,0,1,2) around mean 3: sum 10, dof 4
        assert global_sigma(TimeSeries([1, 2, 3, 4, 5])) == pytest.approx(
            math.sqrt(10 / 4)
        )

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            global_sigma(TimeSeries([1.0]))


def test_package_exports_exactly_its_modules_exports():
    # the package re-exports every module's public names and nothing else,
    # so a name cut from a module cannot linger in tsseg.__all__
    import importlib

    import tsseg

    exported = {
        name: getattr(module, name)
        for module in (
            importlib.import_module(f"tsseg.{m}")
            for m in ("core", "costs", "dp", "hmm", "selection", "simgen", "svg")
        )
        for name in module.__all__
    }
    assert sorted(tsseg.__all__) == sorted(exported)
    for name in tsseg.__all__:
        assert getattr(tsseg, name) is exported[name]
