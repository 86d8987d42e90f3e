import numpy as np
import pytest

from tsseg import (
    CostMatrix,
    Segmentation,
    TimeSeries,
    build_cost_matrix,
    dp_segment,
)
from tsseg.dp import _advance, _prune_margin, _run_dp

from oracles import brute_force_segment

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
    curve = [r.cost for r in dp_segment(cm, 4)]
    assert curve == pytest.approx([16.0, 0.0, 0.0, 0.0])


def test_min_cost_curve_hand_enumeration():
    # [1,2,3]: one block costs 2; the best 2-split leaves 0.5; singletons 0
    cm = build_cost_matrix(TimeSeries([1, 2, 3]))
    assert [r.cost for r in dp_segment(cm, 3)] == pytest.approx([2.0, 0.5, 0.0])


def test_min_cost_curve_nonincreasing_and_ends_at_zero():
    rng = np.random.default_rng(42)
    x = TimeSeries(rng.standard_normal(18))
    curve = [r.cost for r in dp_segment(build_cost_matrix(x), 18)]
    assert np.all(np.diff(curve) <= 1e-12)
    assert curve[-1] == 0.0


def test_refinement_monotonicity_at_the_optimum():
    rng = np.random.default_rng(17)
    for _ in range(10):
        T = int(rng.integers(5, 21))
        x = TimeSeries(rng.standard_normal(T))
        curve = [r.cost for r in dp_segment(build_cost_matrix(x), min(T, 6))]
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
    flagged = cm.flagged
    for res in results:
        assert not res.used_flagged
        for s, t in res.segmentation.segments():
            assert not flagged[t - 1, s - 1]


def test_ar_matrix_brute_force_agreement():
    rng = np.random.default_rng(31)
    x = TimeSeries(rng.standard_normal(20))
    cm = build_cost_matrix(x, "ar", order=1)
    results = dp_segment(cm, 3)
    for k in (1, 2, 3):
        assert results[k - 1].cost == brute_force_segment(cm, k).cost


def test_hmm_cost_never_beats_dp():
    from tsseg import hmm_segment, segment_stats

    rng = np.random.default_rng(55)
    for _ in range(5):
        x = TimeSeries(
            np.concatenate(
                [rng.normal(m, 0.8, size=rng.integers(8, 15)) for m in (0, 4, -2)]
            )
        )
        seg, trace = hmm_segment(x, 3, 0.9)
        dp_cost = dp_segment(build_cost_matrix(x), 3)[2].cost
        cost = sum(s.deviation for s in segment_stats(x, seg))
        assert cost >= dp_cost - 1e-9


@pytest.mark.parametrize("model", list(MODELS))
def test_is_flagged_is_the_stored_mask(model):
    model, order = MODELS[model]
    for T in range(1, 41):
        cm = CostMatrix(np.zeros((T, T)), model, order)
        if model == "means":  # flags nothing, so there is no mask
            assert cm.flagged is None
        else:
            assert np.array_equal(cm.flagged, stored_mask(T, model, order))


def reference_runs(cm, model, order):
    """(_run_dp arguments, its per_order_dp answer) for the masked pass at
    min_len 1, the default and the default + 2, and the permissive pass."""
    T = cm.n
    masked = columns(cm, stored_mask(T, model, order))
    k_max = min(T, 8)
    default = cm.default_min_segment_length
    margin = _prune_margin(cm, k_max)  # prunes the tables of order 0
    runs = [
        # the masked pass: the bound on the previous change point stands
        # for the mask over the reference's columns
        ((cm.by_end, k_max, max(default, m), cm.first_end, margin),
         (masked, T, k_max, m))
        for m in (1, default, default + 2)
    ]
    runs.append(((cm.by_end, k_max, 1, 1, margin), (columns(cm), T, k_max, 1)))
    return [(args, per_order_dp(*ref_args)) for args, ref_args in runs]


@pytest.mark.parametrize("model", list(MODELS))
def test_fill_is_bit_identical_to_per_order_reference(model):
    model, order = MODELS[model]
    rng = np.random.default_rng(404)
    for trial in range(6):
        T = int(rng.integers(12, 40))
        # a coarse grid of values makes tied candidates common
        x = TimeSeries(np.round(rng.normal(0.0, 2.0, T)))
        cm = build_cost_matrix(x, model, order=order)
        for args, (ref_c, ref_back) in reference_runs(cm, model, order):
            c, back = _run_dp(*args)
            assert np.array_equal(c, ref_c)
            assert np.array_equal(back, ref_back)


@pytest.mark.parametrize("model", list(MODELS))
def test_block_fill_is_bit_identical_across_block_edges(model, monkeypatch):
    # the fill takes min(T, 64, 2 _CELLS // T) window ends at a time
    from tsseg import costs

    model, order = MODELS[model]
    rng = np.random.default_rng(505)
    for T in (23, 30):
        x = TimeSeries(np.round(rng.normal(0.0, 2.0, T)))
        cm = build_cost_matrix(x, model, order=order)
        runs = reference_runs(cm, model, order)
        # 7 divides neither length, and the last two are one block
        for block in (1, 2, 3, 7, T, 2 * T):
            monkeypatch.setattr(costs, "_CELLS", (block * T + 1) // 2)
            for args, (ref_c, ref_back) in runs:
                c, back = _run_dp(*args)
                assert np.array_equal(c, ref_c), block
                assert np.array_equal(back, ref_back), block


PRUNING_SERIES = {
    "constant": np.full(41, 0.1),
    "offset": 1e8 + np.round(np.random.default_rng(6).normal(0.0, 2.0, 37)),
    "alternating": np.arange(44) % 2.0,
    # exact ties between windows of equal means, which rounding breaks
    # either way: pruning without its margin changes the answer here
    "periodic": np.resize([0.1, 0.1, 1.1, 0.1, 0.1], 29) + 0.1,
    "two levels": np.repeat([0.0, 10.0], 20)
    + np.random.default_rng(7).normal(0.0, 0.1, 40),
}


@pytest.mark.parametrize("name", list(PRUNING_SERIES))
@pytest.mark.parametrize("block", [1, 3, 7])
def test_pruned_fill_is_bit_identical_to_per_order_reference(name, block, monkeypatch):
    # pruning moves each order's first live change point at every block
    # edge, so small blocks prune often; min_len 5 is taller than blocks 1, 3
    from tsseg import costs

    x = TimeSeries(PRUNING_SERIES[name])
    T, k_max = len(x), 8
    for model, order in (("means", 0), ("ar", 0), ("poly", 0)):
        cm = build_cost_matrix(x, model, order=order)
        margin = _prune_margin(cm, k_max)
        for min_len in (1, 2, 5):
            ref_c, ref_back = per_order_dp(columns(cm), T, k_max, min_len)
            monkeypatch.setattr(costs, "_CELLS", (block * T + 1) // 2)
            c, back = _run_dp(cm.by_end, k_max, min_len, 1, margin)
            monkeypatch.undo()
            assert np.array_equal(c, ref_c)
            assert np.array_equal(back, ref_back)


def test_advance_drops_every_change_point_before_a_jump():
    x = TimeSeries(PRUNING_SERIES["two levels"])
    cm = build_cost_matrix(x)
    c, _ = _run_dp(cm.by_end, 3, 1, 1, np.inf)
    # two segments fit [1, 30] with their cut at the jump after 20, so an
    # order-3 segmentation whose last change point s lies before the jump
    # pays the jump inside its last segment, at t = 30 and at every later end
    margin = _prune_margin(cm, 3)
    assert _advance(0, c[2], cm.by_end[29], 30, margin) == 20
    assert _advance(20, c[2], cm.by_end[29], 30, margin) == 20
    assert _advance(0, c[2], cm.by_end[29], 30, np.inf) == 0


@pytest.mark.parametrize("model", list(MODELS))
def test_only_tables_of_order_zero_are_pruned(model, monkeypatch):
    # ar and poly windows of order >= 1 may be overcharged by the solve's
    # fallback, so their costs need not be superadditive
    from tsseg import dp

    model, order = MODELS[model]
    advanced = []

    def spy(lo, *args):
        advanced.append((lo, dp_advance(lo, *args)))
        return advanced[-1][1]

    dp_advance = dp._advance
    monkeypatch.setattr(dp, "_advance", spy)
    cm = build_cost_matrix(TimeSeries(PRUNING_SERIES["two levels"]), model, order)
    assert np.isfinite(_prune_margin(cm, 4)) == (order == 0)
    monkeypatch.setattr(dp._costs, "_CELLS", 40)  # blocks of 2 ends
    dp_segment(cm, 4)
    if order == 0:
        assert any(new > lo for lo, new in advanced)
    else:
        assert not advanced


def test_a_table_whose_sums_overflow_prunes_nothing():
    by_end = np.tril(np.full((6, 6), 1e308))  # 6 d[1, 6] overflows
    assert _prune_margin(CostMatrix(by_end.copy(), "means"), 3) == np.inf
    by_end[-1, 0] = np.nan
    assert _prune_margin(CostMatrix(by_end, "means"), 3) == np.inf


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
