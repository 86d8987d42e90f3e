"""Exact segmentation by dynamic programming.

Given a table of window costs, the dynamic program computes the cheapest
segmentation of every order 1..K in one pass: with c[k, t] the minimal cost
of cutting the prefix [1..t] into exactly k segments,

    c[1, t] = d[1, t]
    c[k, t] = min over s of ( c[k-1, s] + d[s+1, t] )

and the minimizing s values are kept for backtracking.  The minimum runs
over the admissible previous change points only, which one bound per end
states: s <= t - min_len, at the ends t >= first_end (see
:class:`~tsseg.costs.CostMatrix`: the table's under-determined windows are
exactly those shorter than its default minimum segment length or ending
before its ``first_end``).  So the fill reads a prefix of each row of the
table, with no mask.  The minimization phase is O(K T^2).  Order 1 has the
single candidate s = 0 and is one vector add.  The other orders are filled
a block of min(T, 64, 2 _CELLS / T) consecutive ends at a time (the fastest
rule measured), order by order within the block (c[k-1, .] is complete up
to the block's last end before order k reads it): each order copies the
block's rows of the table and adds c[k-1, .] in place (faster than one add
from the strided table), with the bound as a triangle of +inf, and takes
one argmin along the rows.

Tables of order 0 (means, ar(0), poly(0): the means fill) are pruned (SNIP;
Maidstone, Hocking, Rigaill and Fearnhead 2017).  Before the block of ends
t0.., with t = t0 - min_len, order k drops each leading s with
c[k-1, s] + d[s+1, t] > c[k-1, t] + margin and reads only the columns past.
Least-squares costs are superadditive, d[s+1, u] >= d[s+1, t] + d[t+1, u],
so t beats a dropped s at every later end u: the result is bit-identical,
ties included.  The margin, 64 k_max (T + k_max) eps (d[1, T] + tiny),
bounds the rounding of sums of at most T + k_max terms of at most d[1, T];
a table whose T d[1, T] overflows is not pruned.  ar and poly tables of
order >= 1 stay dense: their pseudo-inverse fallback breaks superadditivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs as _costs
from .core import Segmentation
from .costs import CostMatrix

__all__ = [
    "DpResult",
    "dp_segment",
]


@dataclass(frozen=True)
class DpResult:
    order: int
    segmentation: Segmentation
    cost: float
    used_flagged: bool = False


def _advance(lo: int, prev: np.ndarray, row: np.ndarray, t: int, margin: float) -> int:
    """lo[k] pruned at t, given prev = c[k-1, .] and row[s] = d[s+1, t]."""
    dead = prev[lo:t] + row[lo:t] > prev[t] + margin
    return t if dead.all() else lo + int(dead.argmin())


def _run_dp(
    by_end: np.ndarray, k_max: int, min_len: int, first_end: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    # by_end[t-1, s] = d[s+1, t] for s = 0..t-1 (cost of closing a segment at
    # t that started right after s)
    T = by_end.shape[0]
    c = np.full((k_max + 1, T + 1), np.inf)
    c[0, 0] = 0.0
    back = np.zeros((k_max + 1, T + 1), dtype=np.int64)
    start = max(first_end, min_len)  # first end with an admissible window
    if start > T:
        return c, back
    # order 1 has the single candidate s = 0
    c[1, start:] = c[0, 0] + by_end[start - 1 :, 0]
    B = min(T, 64, max(1, 2 * _costs._CELLS // T))
    # In a block of ends t0..t1, the row of end t reads s up to t1 - min_len;
    # the columns past its own bound t - min_len are the last t1 - t of them.
    beyond = np.triu(np.ones((B, B), dtype=bool), 1)
    buf = np.empty(B * T)
    lo = [0] * (k_max + 1)  # each order's first live change point
    for t0 in range(start, T + 1, B):
        t1 = min(t0 + B - 1, T)
        nb, n, t = t1 - t0 + 1, t1 - min_len + 1, t0 - min_len
        picked = np.arange(nb)
        # order k reads c[k-1, s] for s < t1 only, which the previous
        # order has filled for this block already
        for k in range(2, k_max + 1):
            if margin < np.inf and t > lo[k]:
                lo[k] = _advance(lo[k], c[k - 1], by_end[t - 1], t, margin)
            s = lo[k]  # s <= t = n - nb: the triangle lies in the kept columns
            rows = buf[: nb * (n - s)].reshape(nb, n - s)
            np.copyto(rows, by_end[t0 - 1 : t1, s:n])
            rows += c[k - 1, s:n]
            np.copyto(rows[:, n - s - nb :], np.inf, where=beyond[:nb, :nb])
            j = np.argmin(rows, axis=1)  # ties resolve to the earliest change point
            c[k, t0 : t1 + 1] = rows[picked, j]
            back[k, t0 : t1 + 1] = j + s
    return c, back


def _prune_margin(costs: CostMatrix, k_max: int) -> float:
    """The pruning margin of the module docstring; inf prunes nothing."""
    T, total, fp = costs.n, costs.by_end[-1, 0], np.finfo(float)
    if costs.order or not total < fp.max / T:  # NaN too
        return np.inf
    return 64 * k_max * (T + k_max) * fp.eps * (total + fp.tiny)


def _backtrack(back: np.ndarray, k: int, T: int) -> Segmentation:
    cps = [T]
    cur = T
    for j in range(k, 0, -1):
        cur = int(back[j, cur])
        cps.append(cur)
    if cur != 0:
        raise AssertionError("backtracking did not reach the series start")
    return Segmentation(tuple(reversed(cps)))


def _min_len(costs: CostMatrix, min_segment_length: int | None) -> int:
    """The masked pass's minimum segment length: the table's default, or the
    given length if it is longer."""
    if min_segment_length is None:
        return costs.default_min_segment_length
    if int(min_segment_length) < 1:
        raise ValueError(
            f"min_segment_length must be at least 1, got {min_segment_length}"
        )
    return max(costs.default_min_segment_length, int(min_segment_length))


def dp_segment(
    costs: CostMatrix, k_max: int, min_segment_length: int | None = None
) -> list[DpResult]:
    """Optimal segmentations of orders 1..k_max for the given cost table.

    Flagged (under-determined) windows and windows shorter than the minimum
    segment length (at least 1) are excluded; if that leaves some order
    infeasible, a permissive pass (all windows admitted) supplies those
    orders, marked with ``used_flagged``.
    """
    T = costs.n
    if not 1 <= k_max <= T:
        raise ValueError(f"k_max must be in [1, {T}], got {k_max}")
    min_len = _min_len(costs, min_segment_length)
    margin = _prune_margin(costs, k_max)
    c, back = _run_dp(costs.by_end, k_max, min_len, costs.first_end, margin)
    results: list[DpResult] = []
    permissive: tuple[np.ndarray, np.ndarray] | None = None
    for k in range(1, k_max + 1):
        if np.isfinite(c[k, T]):
            results.append(DpResult(k, _backtrack(back, k, T), float(c[k, T])))
            continue
        if permissive is None:
            permissive = _run_dp(costs.by_end, k_max, 1, 1, margin)
        pc, pback = permissive
        results.append(
            DpResult(k, _backtrack(pback, k, T), float(pc[k, T]), used_flagged=True)
        )
    return results
