import numpy as np
import pytest

from tsseg import (
    CostMatrix,
    Segmentation,
    TimeSeries,
    brute_force_segment,
    build_cost_matrix,
    dp_segment,
    min_cost_curve,
)
from tsseg.dp import _run_dp

MODELS = {
    "means": ("means", 0),
    "ar(1)": ("ar", 1),
    "ar(2)": ("ar", 2),
    "ar(3)": ("ar", 3),
    "poly(0)": ("poly", 0),
    "poly(1)": ("poly", 1),
    "poly(2)": ("poly", 2),
}


def stored_mask(T, model, order):
    """Reference flagged mask, counted from the charged rows: a window
    [t-i, t] is identified when it has more than d = order + 1 charged rows (ar does
    not charge the first ``order`` rows of the series), and every window at
    an end without an identified window is flagged.  Means flags nothing."""
    if model == "means":
        return np.zeros((T, T), dtype=bool)
    d = order + 1
    weight = np.ones(T)
    if model == "ar":
        weight[:order] = 0.0
    identified = np.cumsum(weight) > d
    ends = np.arange(1, T + 1)
    lo = np.where(identified, d, ends)
    start = np.arange(T)
    return (start >= (ends - lo)[:, None]) & (start < ends[:, None])


def columns(cm, mask=None):
    """column(t)[s] = d[s+1, t] for s = 0..t-1, flagged windows +inf."""
    def column(t):
        col = cm.by_end[t - 1, :t]
        return col if mask is None else np.where(mask[t - 1, :t], np.inf, col)
    return column


def per_order_dp(column, T, k_max, min_len):
    """Reference fill: one argmin per order k and per end t."""
    c = np.full((k_max + 1, T + 1), np.inf)
    c[0, 0] = 0.0
    back = np.zeros((k_max + 1, T + 1), dtype=np.int64)
    for t in range(1, T + 1):
        col = column(t)
        hi = t - min_len
        if hi < 0:
            continue
        for k in range(1, k_max + 1):
            cand = c[k - 1, : hi + 1] + col[: hi + 1]
            j = int(np.argmin(cand))
            c[k, t] = cand[j]
            back[k, t] = j
    return c, back


def test_two_level_series():
    cm = build_cost_matrix(TimeSeries([1, 1, 5, 5]))
    results = dp_segment(cm, 2)
    assert results[0].segmentation.change_points == (0, 4)
    assert results[0].cost == pytest.approx(16.0)
    assert results[1].segmentation.change_points == (0, 2, 4)
    assert results[1].cost == 0.0


def test_matches_brute_force_exactly():
    rng = np.random.default_rng(100)
    for trial in range(30):
        T = int(rng.integers(4, 16))
        x = TimeSeries(rng.standard_normal(T))
        cm = build_cost_matrix(x)
        kmax = min(4, T)
        results = dp_segment(cm, kmax)
        for k in range(1, kmax + 1):
            bf = brute_force_segment(cm, k)
            assert results[k - 1].cost == bf.cost  # identical arithmetic


def test_min_cost_curve_values():
    cm = build_cost_matrix(TimeSeries([1, 1, 5, 5]))
    curve = min_cost_curve(cm, 4)
    assert curve == pytest.approx([16.0, 0.0, 0.0, 0.0])


def test_min_cost_curve_hand_enumeration():
    # [1,2,3]: one block costs 2; the best 2-split leaves 0.5; singletons 0
    cm = build_cost_matrix(TimeSeries([1, 2, 3]))
    assert min_cost_curve(cm, 3) == pytest.approx([2.0, 0.5, 0.0])


def test_min_cost_curve_nonincreasing_and_ends_at_zero():
    rng = np.random.default_rng(42)
    x = TimeSeries(rng.standard_normal(18))
    curve = min_cost_curve(build_cost_matrix(x), 18)
    assert np.all(np.diff(curve) <= 1e-12)
    assert curve[-1] == 0.0


def test_refinement_monotonicity_at_the_optimum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        T = int(rng.integers(5, 21))
        x = TimeSeries(rng.standard_normal(T))
        curve = min_cost_curve(build_cost_matrix(x), min(T, 6))
        assert np.all(np.diff(curve) <= 1e-12)


def test_tie_break_prefers_earliest_change_point():
    # both splits of a constant series cost 0; the earliest must win
    cm = build_cost_matrix(TimeSeries([2.0, 2.0, 2.0]))
    res = dp_segment(cm, 2)[1]
    assert res.segmentation.change_points == (0, 1, 3)


def test_singleton_orders():
    cm = build_cost_matrix(TimeSeries([4, 3, 9, 1, 5.0]))
    res = dp_segment(cm, 5)[4]
    assert res.cost == 0.0
    assert res.segmentation.change_points == (0, 1, 2, 3, 4, 5)


def test_k_max_validation():
    cm = build_cost_matrix(TimeSeries([1.0, 2.0]))
    with pytest.raises(ValueError):
        dp_segment(cm, 3)
    with pytest.raises(ValueError):
        dp_segment(cm, 0)


def test_brute_force_guard():
    cm = build_cost_matrix(TimeSeries(np.arange(26.0)))
    with pytest.raises(ValueError):
        brute_force_segment(cm, 2)


def test_min_segment_length_respected():
    rng = np.random.default_rng(3)
    x = TimeSeries(rng.standard_normal(20))
    cm = build_cost_matrix(x)
    for res in dp_segment(cm, 5, min_segment_length=3):
        lengths = np.diff(res.segmentation.change_points)
        assert lengths.min() >= 3


def test_ar_matrix_avoids_flagged_windows():
    rng = np.random.default_rng(9)
    x = TimeSeries(rng.standard_normal(40))
    cm = build_cost_matrix(x, "ar", order=2)
    results = dp_segment(cm, 4)
    for res in results:
        assert not res.used_flagged
        for s, t in res.segmentation.segments():
            assert not cm.is_flagged(s, t)


def test_ar_matrix_brute_force_agreement():
    rng = np.random.default_rng(31)
    x = TimeSeries(rng.standard_normal(20))
    cm = build_cost_matrix(x, "ar", order=1)
    results = dp_segment(cm, 3)
    for k in (1, 2, 3):
        assert results[k - 1].cost == brute_force_segment(cm, k).cost


def test_hmm_cost_never_beats_dp():
    from tsseg import hmm_segment, segmentation_cost

    rng = np.random.default_rng(55)
    for _ in range(5):
        x = TimeSeries(
            np.concatenate(
                [rng.normal(m, 0.8, size=rng.integers(8, 15)) for m in (0, 4, -2)]
            )
        )
        seg, trace = hmm_segment(x, 3, 0.9)
        dp_cost = dp_segment(build_cost_matrix(x), 3)[2].cost
        assert segmentation_cost(x, seg) >= dp_cost - 1e-9


@pytest.mark.parametrize("model", list(MODELS))
def test_is_flagged_is_the_stored_mask(model):
    model, order = MODELS[model]
    for T in range(1, 41):
        cm = CostMatrix(np.zeros((T, T)), model, order)
        mask = stored_mask(T, model, order)
        for t in range(1, T + 1):
            for s in range(1, t + 1):
                assert cm.is_flagged(s, t) == mask[t - 1, s - 1]


@pytest.mark.parametrize("model", list(MODELS))
def test_fill_is_bit_identical_to_per_order_reference(model):
    model, order = MODELS[model]
    rng = np.random.default_rng(404)
    for trial in range(6):
        T = int(rng.integers(12, 40))
        # a coarse grid of values makes tied candidates common
        x = TimeSeries(np.round(rng.normal(0.0, 2.0, T)))
        cm = build_cost_matrix(x, model, order=order)
        masked = columns(cm, stored_mask(T, model, order))
        k_max = min(T, 8)
        default = cm.default_min_segment_length
        runs = [
            # the masked pass: the bound on the previous change point stands
            # for the mask over the reference's columns
            ((cm.by_end, k_max, max(default, m), cm.first_end),
             (masked, T, k_max, m))
            for m in (1, default, default + 2)
        ]
        runs.append(((cm.by_end, k_max, 1, 1), (columns(cm), T, k_max, 1)))
        for args, ref_args in runs:
            c, back = _run_dp(*args)
            ref_c, ref_back = per_order_dp(*ref_args)
            assert np.array_equal(c, ref_c)
            assert np.array_equal(back, ref_back)


def test_min_segment_length_below_one_is_rejected():
    cm = build_cost_matrix(TimeSeries([1.0, 2.0, 3.0]))
    for bad in (0, -2):
        with pytest.raises(ValueError, match="at least 1"):
            dp_segment(cm, 2, bad)
        with pytest.raises(ValueError, match="at least 1"):
            brute_force_segment(cm, 2, bad)


def test_permissive_pass_supplies_infeasible_orders():
    # an ar(2) window needs 4 charged points and the first 2 points are never
    # charged, so 16 points hold at most 3 segments; orders 4 to 6 come from
    # the permissive pass over flagged windows
    rng = np.random.default_rng(21)
    cm = build_cost_matrix(TimeSeries(rng.standard_normal(16)), "ar", order=2)
    results = dp_segment(cm, 6)
    assert [r.used_flagged for r in results] == [False] * 3 + [True] * 3
    ref_c, ref_back = per_order_dp(columns(cm), 16, 6, 1)
    for res in results[3:]:
        assert res.cost == ref_c[res.order, 16]
        cur, cps = 16, [16]
        for k in range(res.order, 0, -1):
            cur = int(ref_back[k, cur])
            cps.append(cur)
        assert res.segmentation.change_points == tuple(reversed(cps))
