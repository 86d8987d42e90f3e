import numpy as np
import pytest

from tsseg import (
    SingularWindowError,
    TimeSeries,
    ar_cost_exact,
    build_cost_matrix,
    dp_segment,
    means_cost_direct,
    poly_cost,
)
from tsseg.costs import _group_fit, _solve


def make_ar1(T, a0=1.0, a1=0.5, x0=0.0):
    x = np.empty(T)
    x[0] = x0
    for t in range(1, T):
        x[t] = a0 + a1 * x[t - 1]
    return TimeSeries(x)


class TestMeansCostDirect:
    def test_flat_window(self):
        assert means_cost_direct(TimeSeries([1, 1, 2, 2]), 1, 2) == 0.0

    def test_whole_series(self):
        assert means_cost_direct(TimeSeries([1, 1, 2, 2]), 1, 4) == pytest.approx(1.0)

    def test_uneven_window(self):
        x = TimeSeries([0, 0, 10, 10])
        assert means_cost_direct(x, 2, 4) == pytest.approx(200 / 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            means_cost_direct(TimeSeries([1, 2]), 1, 3)
        with pytest.raises(ValueError):
            means_cost_direct(TimeSeries([1, 2]), 0, 2)


class TestMeansMatrix:
    def test_length_one(self):
        cm = build_cost_matrix(TimeSeries([5.0]))
        assert cm.window_cost(1, 1) == 0.0

    def test_small_known_entries(self):
        cm = build_cost_matrix(TimeSeries([1, 1, 2, 2]))
        assert cm.window_cost(1, 4) == pytest.approx(1.0)
        assert cm.window_cost(1, 2) == 0.0
        assert cm.window_cost(3, 4) == 0.0

    def test_matches_direct_everywhere(self):
        rng = np.random.default_rng(11)
        x = TimeSeries(rng.standard_normal(50) * 3.0 + 1.0)
        cm = build_cost_matrix(x)
        for t in range(1, 51):
            for s in range(1, t + 1):
                direct = means_cost_direct(x, s, t)
                assert abs(cm.window_cost(s, t) - direct) <= 1e-9 * (1.0 + direct)

    def test_nesting(self):
        # widening a window can never lower the within-window deviation
        rng = np.random.default_rng(4)
        x = TimeSeries(rng.standard_normal(40))
        cm = build_cost_matrix(x)
        for t in range(1, 41):
            for s in range(1, t):
                assert cm.window_cost(s, t) >= cm.window_cost(s + 1, t) - 1e-12
                assert cm.window_cost(s, t) >= cm.window_cost(s, t - 1) - 1e-12

    def test_diagonal_zero_and_nonnegative(self):
        rng = np.random.default_rng(5)
        x = TimeSeries(rng.standard_normal(30))
        cm = build_cost_matrix(x)
        assert all(cm.window_cost(t, t) == 0.0 for t in range(1, 31))
        tri = [cm.window_cost(s, t) for t in range(1, 31) for s in range(1, t + 1)]
        assert min(tri) >= 0.0


class TestArExact:
    def test_noiseless_ar1(self):
        x = make_ar1(30)
        cost, coef = ar_cost_exact(x, 2, 21, 1)
        assert coef == pytest.approx([1.0, 0.5], abs=1e-9)
        assert cost <= 1e-15

    def test_constant_series_is_singular(self):
        with pytest.raises(SingularWindowError) as err:
            ar_cost_exact(TimeSeries([3.0] * 20), 2, 15, 1)
        assert err.value.window == (2, 15)

    def test_matches_independent_lstsq(self):
        # second code path: QR-based lstsq on the same design
        from tsseg.costs import lag_matrix

        rng = np.random.default_rng(8)
        x = TimeSeries(rng.standard_normal(30))
        l = 2
        U = lag_matrix(x.values, l)
        for s in range(1, 31):
            for t in range(s, 31):
                lo = max(s, l + 1)
                if t - lo + 1 <= l + 1:
                    continue
                cost, coef = ar_cost_exact(x, s, t, l)
                A, *_ = np.linalg.lstsq(U[lo - 1 : t], x.values[lo - 1 : t], rcond=None)
                r = x.values[lo - 1 : t] - U[lo - 1 : t] @ A
                assert cost == pytest.approx(float(r @ r), rel=1e-8, abs=1e-10)
                assert np.allclose(coef, A, rtol=1e-6, atol=1e-8)

    def test_under_determined_rejected(self):
        with pytest.raises(ValueError):
            ar_cost_exact(TimeSeries(np.arange(10.0)), 3, 4, 1)


class TestArMatrix:
    def test_noiseless_ar1_full_row(self):
        x = make_ar1(100)
        cm = build_cost_matrix(x, "ar", order=1)
        assert cm.window_cost(1, 100) <= 1e-6

    def test_under_determined_flagged(self):
        x = make_ar1(20)
        cm = build_cost_matrix(x, "ar", order=2)
        assert cm.is_flagged(5, 7)  # 3 usable rows <= order + 1
        assert cm.window_cost(5, 7) == 0.0
        assert not cm.is_flagged(5, 12)

    def test_boundary_marked(self):
        x = make_ar1(20)
        cm = build_cost_matrix(x, "ar", order=2)
        assert cm.boundary is not None
        assert cm.boundary[19, 0] and cm.boundary[19, 1]
        assert not cm.boundary[19, 2]

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_exact_on_long_windows(self, l):
        rng = np.random.default_rng(21)
        x = TimeSeries(rng.standard_normal(60))
        cm = build_cost_matrix(x, "ar", order=l)
        checked = 0
        for s in range(1, 61):
            for t in range(s, 61):
                if t - s < 10 * (l + 1):
                    continue
                exact, coef = ar_cost_exact(x, s, t, l)
                table = cm.window_cost(s, t)
                assert abs(table - exact) <= 1e-8 * max(1.0, exact)
                checked += 1
        assert checked > 0


class TestPolyCost:
    def test_exact_line(self):
        x = TimeSeries(2.0 * np.arange(1, 11) + 3.0)
        cost, coef = poly_cost(x, 1, 10, 1)
        assert cost <= 1e-12

    def test_degree_zero_is_means(self):
        rng = np.random.default_rng(14)
        x = TimeSeries(rng.standard_normal(25))
        for s, t in [(1, 25), (3, 9), (10, 20)]:
            cost, coef = poly_cost(x, s, t, 0)
            direct = means_cost_direct(x, s, t)
            assert cost == pytest.approx(direct, rel=1e-12, abs=1e-12)
            assert coef[0] == pytest.approx(x.values[s - 1 : t].mean())

    def test_exact_quadratic(self):
        x = TimeSeries([0.0, 1.0, 4.0, 9.0])
        cost, _ = poly_cost(x, 1, 4, 2)
        assert cost <= 1e-10

    def test_poly_matrix_flags_short_windows(self):
        rng = np.random.default_rng(2)
        x = TimeSeries(rng.standard_normal(12))
        cm = build_cost_matrix(x, "poly", order=1)
        assert cm.is_flagged(3, 4)
        assert cm.window_cost(2, 8) == pytest.approx(poly_cost(x, 2, 8, 1)[0])


def oracle_cost(x, model, order, s, t):
    if model == "means":
        return means_cost_direct(x, s, t)
    if model == "ar":
        return ar_cost_exact(x, s, t, order)[0]
    return poly_cost(x, s, t, order)[0]


class TestTableMatchesOracles:
    @pytest.mark.parametrize(
        "model, order",
        [("means", 0), ("ar", 1), ("ar", 2), ("ar", 3),
         ("poly", 0), ("poly", 1), ("poly", 2)],
    )
    def test_every_window(self, model, order):
        rng = np.random.default_rng(60 + order)
        x = TimeSeries(rng.standard_normal(60) * 3.0 + 1.0)
        cm = build_cost_matrix(x, model, order=order)
        for t in range(1, 61):
            for s in range(1, t + 1):
                table = cm.window_cost(s, t)
                if cm.is_flagged(s, t):
                    # exactly the windows the oracle cannot identify
                    assert table == 0.0
                    with pytest.raises(ValueError):
                        oracle_cost(x, model, order, s, t)
                    continue
                exact = oracle_cost(x, model, order, s, t)
                assert abs(table - exact) <= 1e-8 * max(1.0, exact)

    @pytest.mark.parametrize("model, order", [("poly", 2), ("ar", 3)])
    def test_short_windows_far_from_the_start(self, model, order):
        # a design in absolute time would cancel catastrophically here
        rng = np.random.default_rng(1000 + order)
        x = TimeSeries(rng.standard_normal(1000) + 10.0)
        cm = build_cost_matrix(x, model, order=order)
        checked = 0
        for t in range(960, 1001):
            for s in range(t - 3 * (order + 1), t + 1):
                if cm.is_flagged(s, t):
                    continue
                exact = oracle_cost(x, model, order, s, t)
                assert abs(cm.window_cost(s, t) - exact) <= 1e-8 * max(1.0, exact)
                checked += 1
        assert checked > 0


class TestSingularWindows:
    @pytest.mark.parametrize(
        "values, order",
        [
            (np.arange(20.0), 3),  # every lag is a linear function of u
            (np.concatenate([np.random.default_rng(1).standard_normal(15),
                             np.full(15, 2.0),
                             np.random.default_rng(2).standard_normal(15)]), 2),
        ],
        ids=["linear-ar3", "constant-stretch-ar2"],
    )
    def test_build_and_dp_stay_finite(self, values, order):
        x = TimeSeries(values)
        cm = build_cost_matrix(x, "ar", order=order)
        assert np.all(np.isfinite(cm.by_end))
        assert min(cm.by_end[np.tri(len(x), dtype=bool)]) >= 0.0
        results = dp_segment(cm, 4)
        assert all(np.isfinite(r.cost) for r in results)

    def test_exactly_predictable_windows_cost_nothing(self):
        cm = build_cost_matrix(TimeSeries(np.arange(20.0)), "ar", order=3)
        assert cm.window_cost(1, 20) <= 1e-9
        x = TimeSeries(np.concatenate([np.ones(5), np.full(15, 2.0)]))
        assert build_cost_matrix(x, "ar", order=2).window_cost(8, 20) <= 1e-12

    @pytest.mark.parametrize("gap", [0.0, 1e-8, 1e-6])
    def test_collinear_solve_is_consistent(self, gap):
        # two regressors equal up to ``gap``: a plain solve of the normal
        # equations returns large cancelling coefficients (or raises), and
        # the residual the kernel reads off the sums, q - b'c, then differs
        # from the actual residual of those coefficients
        rng = np.random.default_rng(3)
        z = rng.standard_normal(30)
        U = np.column_stack([np.ones(30), z, z + gap * rng.standard_normal(30)])
        y = 0.5 + 2.0 * z + 0.1 * rng.standard_normal(30)
        q, b = float(y @ y), U.T @ y
        coef = _solve(U.T @ U, b)
        r = y - U @ coef
        assert np.all(np.isfinite(coef))
        assert abs((q - b @ coef) - r @ r) <= 1e-9 * q
        # no worse than the fit without the near-duplicate column
        r2 = y - U[:, :2] @ np.linalg.lstsq(U[:, :2], y, rcond=None)[0]
        assert r @ r <= r2 @ r2 * (1.0 + 1e-9)


class TestGroupFit:
    def test_intercept_only_fit_matches_the_solve(self):
        # the design [1] takes a closed form; it must give what the solve of
        # the centred normal equations gives, and an empty group (here the
        # last one) the target's mean
        rng = np.random.default_rng(4)
        for n in (1, 5, 40, 300):
            target = 50.0 + rng.standard_normal(n)
            groups = rng.integers(0, 5, n)
            fits = _group_fit(np.ones((n, 1)), target, groups, 6)
            centre = target.mean()
            gram = np.bincount(groups, minlength=6)[:, None, None].astype(float)
            rhs = np.bincount(groups, weights=target - centre, minlength=6)[:, None]
            assert fits.shape == (6, 1)
            np.testing.assert_allclose(fits, centre + _solve(gram, rhs), rtol=1e-12)
            assert fits[5, 0] == pytest.approx(centre, rel=1e-12)


class TestCostMatrixContainer:
    def test_dump_is_triangular(self):
        cm = build_cost_matrix(TimeSeries([1, 2, 3]))
        lines = cm.to_tsv().strip().split("\n")
        assert len(lines) == 3
        assert [len(l.split("\t")) for l in lines] == [1, 2, 3]

    def test_default_min_segment_length(self):
        x = TimeSeries(np.arange(20.0))
        assert build_cost_matrix(x).default_min_segment_length == 1
        assert build_cost_matrix(x, "ar", order=3).default_min_segment_length == 5

    def test_build_dispatcher(self):
        x = TimeSeries(np.arange(12.0))
        assert build_cost_matrix(x, "means").model_tag == "means"
        assert build_cost_matrix(x, "ar", order=1).model_tag == "ar"
        assert build_cost_matrix(x, "poly", order=1).model_tag == "poly"
        with pytest.raises(ValueError):
            build_cost_matrix(x, "ar")
        with pytest.raises(ValueError):
            build_cost_matrix(x, "nope", order=1)
