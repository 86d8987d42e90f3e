import numpy as np
import pytest

from tsseg import (
    TimeSeries,
    ar_cost_exact,
    build_cost_matrix,
    dp_segment,
    means_cost_direct,
    poly_cost,
)
from tsseg import costs
from tsseg.costs import _group_fit, _lsq, _solve, lag_matrix


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


M = costs._M  # the means fill's anchor spacing and band width


class TestMeansMatrix:
    def test_length_one(self):
        cm = build_cost_matrix(TimeSeries([5.0]))
        assert cm.by_end[0, 0] == 0.0

    def test_small_known_entries(self):
        cm = build_cost_matrix(TimeSeries([1, 1, 2, 2]))
        assert cm.by_end[3, 0] == pytest.approx(1.0)
        assert cm.by_end[1, 0] == 0.0
        assert cm.by_end[3, 2] == 0.0

    def test_matches_direct_everywhere(self):
        # below the fill's first anchor M, at it, just past it, and over
        # several anchors
        rng = np.random.default_rng(11)
        for T in [50, 1, M - 1, M, M + 1, 3 * M + 5]:
            x = TimeSeries(rng.standard_normal(T) * 3.0 + 1.0)
            cm = build_cost_matrix(x)
            for t in range(1, T + 1):
                for s in range(1, t + 1):
                    direct = means_cost_direct(x, s, t)
                    assert abs(cm.by_end[t - 1, s - 1] - direct) <= 1e-9 * (1.0 + direct)

    def test_nesting(self):
        # widening a window can never lower the within-window deviation
        rng = np.random.default_rng(4)
        x = TimeSeries(rng.standard_normal(40))
        cm = build_cost_matrix(x)
        for t in range(1, 41):
            for s in range(1, t):
                d = cm.by_end[t - 1, s - 1]
                assert d >= cm.by_end[t - 1, s] - 1e-12
                assert d >= cm.by_end[t - 2, s - 1] - 1e-12

    def test_diagonal_zero_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for T in [30, 1, M - 1, M, M + 1, 3 * M + 5]:
            x = TimeSeries(rng.standard_normal(T))
            cm = build_cost_matrix(x)
            assert np.all(np.diag(cm.by_end) == 0.0)
            assert cm.by_end[np.tri(T, dtype=bool)].min() >= 0.0
            assert not np.triu(cm.by_end, 1).any()


class TestMeansFillEdges:
    """The means fill below its first anchor M, at it, just past it, and
    over several anchors."""

    @pytest.mark.parametrize("T", [1, M - 1, M, M + 1, 3 * M + 5])
    def test_dp_finds_a_one_point_segment(self, T):
        # a noiseless +1/-1/+1 series whose -1 is one point, just past the
        # first anchor when the series reaches it
        values = np.ones(T)
        if T == 1:
            truth = (0, 1)
        else:
            point = min(M, T - 2)
            values[point] = -1.0
            truth = (0, point, point + 1, T)
        K = len(truth) - 1
        result = dp_segment(build_cost_matrix(TimeSeries(values)), K)[K - 1]
        assert result.segmentation.change_points == truth


class TestArExact:
    def test_noiseless_ar1(self):
        x = make_ar1(30)
        cost, coef = ar_cost_exact(x, 2, 21, 1)
        assert coef == pytest.approx([1.0, 0.5], abs=1e-9)
        assert cost <= 1e-15

    def test_constant_series_is_singular(self):
        with pytest.raises(np.linalg.LinAlgError, match=r"window \[2, 15\]"):
            ar_cost_exact(TimeSeries([3.0] * 20), 2, 15, 1)

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
        assert cm.by_end[99, 0] <= 1e-6

    def test_under_determined_flagged(self):
        x = make_ar1(20)
        cm = build_cost_matrix(x, "ar", order=2)
        assert cm.flagged[6, 4]  # 3 usable rows <= order + 1
        assert cm.by_end[6, 4] == 0.0
        assert not cm.flagged[11, 4]

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
                table = cm.by_end[t - 1, s - 1]
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
        assert cm.flagged[3, 2]
        assert cm.by_end[7, 1] == pytest.approx(poly_cost(x, 2, 8, 1)[0])


def oracle_cost(x, model, order, s, t):
    if model == "means":
        return means_cost_direct(x, s, t)
    if model == "ar":
        return ar_cost_exact(x, s, t, order)[0]
    return poly_cost(x, s, t, order)[0]


class TestTableMatchesOracles:
    # T = 60 has one anchor; 3 M + 5 has three, and tiles of several ends
    @pytest.mark.parametrize(
        "model, order, T",
        [pytest.param(model, order, 60, id=f"{model}-{order}")
         for model, order in [("means", 0), ("ar", 1), ("ar", 2), ("ar", 3),
                              ("poly", 0), ("poly", 1), ("poly", 2)]]
        + [pytest.param(model, order, 3 * M + 5, id=f"{model}-{order}-T{3 * M + 5}")
           for model, order in [("ar", 1), ("ar", 2), ("ar", 3),
                                ("poly", 1), ("poly", 2)]],
    )
    def test_every_window(self, model, order, T):
        rng = np.random.default_rng(60 + order)
        x = TimeSeries(rng.standard_normal(T) * 3.0 + 1.0)
        cm = build_cost_matrix(x, model, order=order)
        flagged = cm.flagged  # None for means, which flags nothing
        for t in range(1, T + 1):
            for s in range(1, t + 1):
                table = cm.by_end[t - 1, s - 1]
                if flagged is not None and flagged[t - 1, s - 1]:
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
        flagged = cm.flagged
        checked = 0
        for t in range(960, 1001):
            for s in range(t - 3 * (order + 1), t + 1):
                if flagged[t - 1, s - 1]:
                    continue
                exact = oracle_cost(x, model, order, s, t)
                assert abs(cm.by_end[t - 1, s - 1] - exact) <= 1e-8 * max(1.0, exact)
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
        assert cm.by_end[19, 0] <= 1e-9
        x = TimeSeries(np.concatenate([np.ones(5), np.full(15, 2.0)]))
        assert build_cost_matrix(x, "ar", order=2).by_end[19, 7] <= 1e-12

    @pytest.mark.parametrize(
        "values, order",
        [
            (np.arange(20.0), 3),
            (np.concatenate([np.random.default_rng(1).standard_normal(15),
                             np.full(15, 2.0),
                             np.random.default_rng(2).standard_normal(15)]), 2),
            # constant over 25..45, across the anchor M = 32
            (np.concatenate([np.random.default_rng(3).standard_normal(24),
                             np.full(21, 2.0),
                             np.random.default_rng(4).standard_normal(35)]), 2),
            (np.arange(3 * M + 5.0), 3),  # every window, over three anchors
        ],
        ids=["linear-ar3", "constant-stretch-ar2", "anchor-stretch-ar2",
             "linear-ar3-anchors"],
    )
    def test_fallback_only_for_rank_deficient_windows(self, values, order, monkeypatch):
        # the pseudo-inverse is reached on no more windows than have a
        # rank-deficient design: not on the band's windows that a tile
        # overwrites or that reach past the series start, nor on a tile's
        # flagged windows next to its anchor, which the fill computes and
        # drops, nor on a whole batch because one of its windows is singular
        reached = []
        pinv = np.linalg.pinv

        def counting_pinv(a, *args, **kwargs):
            reached.append(int(np.prod(a.shape[:-2])))
            return pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        x = TimeSeries(values)
        cm = build_cost_matrix(x, "ar", order=order)
        U = lag_matrix(values, order)
        flagged = cm.flagged
        deficient = sum(
            np.linalg.matrix_rank(U[max(s, order + 1) - 1 : t]) <= order
            for t in range(1, len(x) + 1)
            for s in range(1, t + 1)
            if not flagged[t - 1, s - 1]
        )
        assert 0 < sum(reached) <= deficient

    def test_high_order_whose_first_end_is_past_the_first_anchor(self):
        # ar(16) identifies no window before t = 34, past the first tile's
        # first end M + 1; the first identified ends match the oracle
        rng = np.random.default_rng(16)
        x = TimeSeries(rng.standard_normal(150) + 5.0)
        cm = build_cost_matrix(x, "ar", order=16)
        assert cm.first_end > M + 1
        assert np.all(np.isfinite(cm.by_end))
        assert cm.by_end[np.tri(len(x), dtype=bool)].min() >= 0.0
        assert not cm.by_end[cm.flagged].any()
        for t in range(cm.first_end, cm.first_end + 4):
            for s in range(1, t - 16):
                exact = ar_cost_exact(x, s, t, 16)[0]
                assert abs(cm.by_end[t - 1, s - 1] - exact) <= 1e-8 * max(1.0, exact)

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

    def test_regression_fit_is_each_groups_least_squares_fit(self):
        # a regressor that moves far between groups and little within one:
        # centred on all rows, it is nearly the intercept within each group;
        # the empty last group gets the target's mean and no slopes
        rng = np.random.default_rng(6)
        n = 60
        groups = np.sort(rng.integers(0, 5, n))
        design = np.column_stack([
            np.ones(n),
            1e4 * groups + 1e-2 * rng.standard_normal(n),
            rng.standard_normal(n) ** 3,
        ])
        target = design @ [1e6, 50.0, -2.0] + rng.standard_normal(n)
        fits = _group_fit(design, target, groups, 6)
        for g in range(5):
            rows = groups == g
            expected = np.linalg.lstsq(design[rows], target[rows], rcond=None)[0]
            fitted = design[rows] @ fits[g]
            np.testing.assert_allclose(
                fitted, design[rows] @ expected, rtol=0, atol=1e-6
            )
        np.testing.assert_array_equal(fits[5, 1:], 0.0)
        assert fits[5, 0] == pytest.approx(target.mean(), rel=1e-12)


def means_columns(values):
    """The means table one window end at a time, by the fill's rule.  With a
    the largest multiple of M below t, a window [s, t] with s > a takes the
    closed form on the sums of its rows t, t-1, ..., s; any other window is
    the merge of [s, a], summed from a back, and [a+1, t]."""
    x = values - values.mean()
    T = x.size
    by_end = np.zeros((T, T))
    lengths = np.arange(1.0, T + 1.0)
    for t in range(1, T + 1):
        a = (t - 1) // M * M
        rows = x[t - 1 :: -1]
        sums = np.cumsum(rows)
        cost = np.cumsum(rows * rows)
        cost -= sums * sums / lengths[:t]
        cost[0] = 0.0
        cost = np.maximum(cost, 0.0)
        by_end[t - 1, a:t] = cost[: t - a][::-1]
        if a == 0:
            continue
        n2 = t - a
        left = x[a - 1 :: -1]
        sum_left = np.cumsum(left)
        cost_left = np.cumsum(left * left)
        mean_left = sum_left / lengths[:a]
        cost_left -= sum_left * mean_left
        cost_left[0] = 0.0
        cost_left = np.maximum(cost_left, 0.0)
        weight = lengths[:a] * n2 / (lengths[:a] + n2)
        merged = (mean_left - sums[n2 - 1] / n2) ** 2 * weight + cost_left
        by_end[t - 1, :a] = (merged + cost[n2 - 1])[::-1]
    return by_end


class TestBlockFill:
    """The band-and-anchor fill, tiled by ``_CELLS``, and its solve."""

    @pytest.mark.parametrize(
        "model, order",
        [("means", 0), ("ar", 1), ("ar", 2), ("ar", 3),
         ("poly", 0), ("poly", 1), ("poly", 2)],
    )
    def test_tables_do_not_depend_on_the_block_size(self, model, order, monkeypatch):
        rng = np.random.default_rng(97 + order)
        x = TimeSeries(rng.standard_normal(97) * 2.0 + 4.0)
        default = build_cost_matrix(x, model, order=order)
        for rows in (1, 7):
            monkeypatch.setattr(costs, "_CELLS", rows * len(x) * (order + 1))
            table = build_cost_matrix(x, model, order=order)
            assert table.by_end.tobytes() == default.by_end.tobytes()
            if model != "means":
                assert not table.by_end[table.flagged].any()

    @pytest.mark.parametrize("T", [200, 1261])
    def test_means_table_is_the_column_loop(self, T):
        rng = np.random.default_rng(T)
        values = np.cumsum(rng.standard_normal(T)) + 50.0
        table = build_cost_matrix(TimeSeries(values))
        assert table.by_end.tobytes() == means_columns(values).tobytes()

    def test_one_gram_serves_many_right_hand_sides(self):
        rng = np.random.default_rng(12)
        w, B, d = 9, 6, 3
        rows = rng.standard_normal((w, 12, d)) * [1.0, 3.0, 0.5]
        rows[4, :, 2] = rows[4, :, 1]  # a singular system, for the fallback
        gram = np.einsum("wni,wnj->wij", rows, rows)
        rhs = rng.standard_normal((B, w, d))
        coef = _solve(gram, rhs)
        assert coef.shape == (B, w, d)
        for b in range(B):
            for i in range(w):
                expected = np.linalg.lstsq(gram[i], rhs[b, i], rcond=1e-10)[0]
                err = np.linalg.norm(coef[b, i] - expected)
                assert err <= 1e-12 * np.linalg.norm(expected)

    def test_the_table_subtracts_the_explained_sum(self):
        # the table subtracts the c'r the kernel forms, which is rhs . c,
        # on the fallback's systems as on the others
        rng = np.random.default_rng(12)
        w, B, d = 9, 6, 3
        rows = rng.standard_normal((w, 12, d)) * [1.0, 3.0, 0.5]
        rows[4, :, 2] = rows[4, :, 1]  # a singular system, for the fallback
        gram = np.einsum("wni,wnj->wij", rows, rows)
        rhs = rng.standard_normal((B, w, d))
        explained = _lsq(np.tril(gram), rhs)[2]
        expected = np.einsum("bwi,bwi->bw", rhs, _solve(gram, rhs))
        np.testing.assert_allclose(explained, expected, rtol=1e-12, atol=0.0)


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
