import math

import numpy as np
import pytest

from tsseg import (
    Segmentation,
    TimeSeries,
    f_quantile,
    poly_cost,
    residual_whiteness,
    scheffe_significant,
    select_order,
)


class TestFQuantile:
    def test_against_scipy(self):
        fdist = pytest.importorskip("scipy.stats").f
        for q in (0.5, 0.9, 0.95, 0.99, 0.999):
            for d1 in (1, 2, 3, 5, 8):
                for d2 in (2, 5, 10, 50, 100, 400):
                    assert f_quantile(q, d1, d2) == pytest.approx(
                        fdist.ppf(q, d1, d2), rel=1e-10
                    )

    def test_known_value(self):
        # F(1, 98) upper 5% point, textbook neighbourhood of 3.94
        assert f_quantile(0.95, 1, 98) == pytest.approx(3.938, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            f_quantile(1.5, 2, 3)
        with pytest.raises(ValueError):
            f_quantile(0.9, 0, 3)


class TestScheffe:
    def test_identical_means_not_significant(self):
        rng = np.random.default_rng(1)
        noise = rng.normal(0, 1, 80)
        x = TimeSeries(noise)
        res = scheffe_significant(x, Segmentation((0, 40, 80)))
        assert not res.significant or res.statistics[0] > res.threshold
        # same-mean constant blocks are exactly zero contrast
        y = TimeSeries([2.0] * 10 + [2.0] * 10)
        for alpha in (0.01, 0.05, 0.5, 0.9):
            assert not scheffe_significant(
                y, Segmentation((0, 10, 20)), alpha
            ).significant

    def test_separated_blocks_significant(self):
        rng = np.random.default_rng(2)
        x = TimeSeries(
            np.concatenate([rng.normal(0, 0.1, 50), rng.normal(10, 0.1, 50)])
        )
        res = scheffe_significant(x, Segmentation((0, 50, 100)), 0.05)
        assert res.significant
        assert res.statistics[0] > 100 * res.threshold  # overwhelming contrast

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 60) + np.repeat([0.0, 2.5, -1.0], 20)
        seg = Segmentation((0, 20, 40, 60))
        base = scheffe_significant(TimeSeries(x), seg)
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = scheffe_significant(TimeSeries(c * x), seg)
            assert scaled.significant == base.significant
            assert scaled.statistics == pytest.approx(base.statistics, rel=1e-9)

    def test_exact_steps_with_long_segments_significant(self):
        x = TimeSeries([0.0] * 5 + [4.0] * 5)
        res = scheffe_significant(x, Segmentation((0, 5, 10)))
        assert res.significant and math.isinf(res.statistics[0])

    def test_degenerate_single_point_segment(self):
        x = TimeSeries([0.0, 0.0, 5.0])
        res = scheffe_significant(x, Segmentation((0, 2, 3)))
        assert res.degenerate and not res.significant

    def test_needs_two_segments(self):
        with pytest.raises(ValueError):
            scheffe_significant(TimeSeries([1.0, 2.0]), Segmentation((0, 2)))


class TestWhiteness:
    def test_iid_noise_is_white(self):
        rng = np.random.default_rng(4)
        res = residual_whiteness(rng.standard_normal(200))
        assert res.white and abs(res.lag1) <= res.band

    def test_ar1_signal_is_not_white(self):
        rng = np.random.default_rng(5)
        r = np.empty(300)
        r[0] = 0.0
        for t in range(1, 300):
            r[t] = 0.9 * r[t - 1] + 0.1 * rng.standard_normal()
        res = residual_whiteness(r)
        assert not res.white
        assert res.lag1 > 0.8

    def test_constant_residuals_white_by_convention(self):
        res = residual_whiteness(np.zeros(50))
        assert res.white and res.lag1 == 0.0

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            residual_whiteness(np.zeros(9))


class TestSelectOrder:
    def make_three_levels(self, seed=6, n=40, gap=8.0, noise=0.4):
        rng = np.random.default_rng(seed)
        return TimeSeries(
            np.concatenate(
                [rng.normal(k * gap, noise, n) for k in range(3)]
            )
        )

    @pytest.mark.parametrize("algorithm", ["hmm", "dp"])
    def test_finds_three_levels(self, algorithm):
        x = self.make_three_levels()
        report = select_order(x, algorithm, "means", k_max=6)
        assert report.chosen_order == 3
        by_order = {r.order: r for r in report.records}
        assert by_order[2].significant and by_order[3].significant
        assert not by_order[4].significant

    def test_stopping_rule_order(self):
        # once an order fails, the report must end there
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = TimeSeries(rng.standard_normal(60))
            report = select_order(x, "dp", "means", k_max=6)
            flags = [r.significant for r in report.records]
            assert all(flags[:-1])  # only the last record may have failed
            if not flags[-1]:
                assert report.chosen_order == report.records[-1].order - 1

    def test_pure_noise_often_stops_immediately(self):
        # The first split of pure noise is itself optimized before testing,
        # so its contrast is inflated and the nominal level does not hold;
        # empirically roughly half of noise series still stop at order 1
        # (21 of these 40 when frozen).
        stops = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = TimeSeries(rng.standard_normal(120))
            report = select_order(x, "dp", "means", k_max=6)
            stops += report.chosen_order == 1
        assert stops >= 10

    def test_chosen_order_one_when_first_split_fails(self):
        # seed 1 is a frozen noise instance whose first split fails
        rng = np.random.default_rng(1)
        x = TimeSeries(rng.standard_normal(120))
        report = select_order(x, "dp", "means", k_max=6)
        assert report.chosen_order == 1
        assert len(report.records) == 1
        assert not report.records[0].significant

    def test_ar_model_uses_whiteness(self):
        rng = np.random.default_rng(9)
        a = np.empty(120)
        a[0] = 0.0
        for t in range(1, 120):
            a[t] = 1.2 + 0.6 * a[t - 1] + 0.3 * rng.standard_normal()
        b = np.empty(120)
        b[0] = a[-1]
        for t in range(1, 120):
            b[t] = -1.0 - 0.6 * b[t - 1] + 0.3 * rng.standard_normal()
        x = TimeSeries(np.concatenate([a, b]))
        report = select_order(x, "dp", "ar", order=1, k_max=5)
        assert report.chosen_order >= 2
        assert all(
            not math.isnan(r.statistic) for r in report.records
        )

    def test_poly_runs_under_the_hmm(self):
        # three linear regimes: the HMM fits a line per state, and each
        # attempt's cost is the sum of the poly window costs of its segments
        rng = np.random.default_rng(5)
        t = np.arange(60.0)
        x = TimeSeries(np.concatenate(
            [0.05 * t, 6.0 - 0.05 * t, 1.0 + 0.1 * t]
        ) + 0.2 * rng.standard_normal(180))
        report = select_order(x, "hmm", "poly", order=1, k_max=5)
        assert report.chosen_order == 3
        for r in report.records:
            segments = r.segmentation.segments()
            exact = sum(poly_cost(x, a, b, 1)[0] for a, b in segments)
            assert r.cost == pytest.approx(exact, rel=1e-9)

    def test_hmm_selection_fits_each_order_once(self, monkeypatch):
        # the single-segment fit gives both the K = 1 cost and its verdict
        import tsseg.selection

        fits = []
        fit = tsseg.selection._segment_residuals

        def counting_fit(x, t, *args):
            fits.append(t.order)
            return fit(x, t, *args)

        monkeypatch.setattr(tsseg.selection, "_segment_residuals", counting_fit)
        rng = np.random.default_rng(2)
        x = TimeSeries(np.concatenate(
            [level + 0.6 * rng.standard_normal(80) for level in (0.0, 4.0, -2.0)]
        ))
        report = select_order(x, "hmm", "ar", order=1, k_max=5)
        assert len(report.records) >= 2
        assert fits == [r.segmentation.order for r in report.records]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            select_order(self.make_three_levels(), "annealing", "means")


@pytest.mark.parametrize("model", ["ar", "poly"])
def test_segment_fits_reach_the_dp_objective_far_from_zero(model):
    # the report's cost comes from these fits; on a series at a level of
    # 1e6 an uncentred design loses about six digits of it
    from tsseg import build_cost_matrix, dp_segment
    from tsseg.selection import _segment_residuals

    rng = np.random.default_rng(0)
    x = TimeSeries(1e6 + rng.standard_normal(200))
    res = dp_segment(build_cost_matrix(x, model, order=2), 3)[2]
    r = _segment_residuals(x, res.segmentation, model, 2)
    assert float(r @ r) == pytest.approx(res.cost, rel=1e-9)


def test_segment_fits_centre_each_segment_on_its_own_rows():
    # centred on the whole series, the cubic's columns on a 6-point segment
    # are nearly constant and the solve falls back to the pseudo-inverse,
    # whose fit misses the least-squares minimum
    from tsseg.selection import _segment_residuals

    x = TimeSeries(np.random.default_rng(0).standard_normal(240))
    seg = Segmentation((0, 6, 240))
    r = _segment_residuals(x, seg, "poly", 3)
    exact = sum(poly_cost(x, s, t, 3)[0] for s, t in seg.segments())
    assert float(r @ r) == pytest.approx(exact, rel=1e-9)
