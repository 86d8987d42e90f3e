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
a block of consecutive ends at a time, order by order within the block
(c[k-1, .] is complete up to the block's last end before order k reads
it): each order is one add of c[k-1, .] to the block's rows of the table,
with the bound as a triangle of +inf, and one argmin along the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import costs as _costs
from .core import Segmentation
from .costs import CostMatrix

__all__ = [
    "DpResult",
    "dp_segment",
    "brute_force_segment",
]

#: brute_force_segment refuses longer series (the enumeration is combinatorial).
BRUTE_FORCE_LIMIT = 25


@dataclass(frozen=True)
class DpResult:
    order: int
    segmentation: Segmentation
    cost: float
    used_flagged: bool = False


def _run_dp(
    by_end: np.ndarray, k_max: int, min_len: int, first_end: int
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
    B = min(max(1, _costs._CELLS // T), T)
    # In a block of ends t0..t1, the row of end t reads s up to t1 - min_len;
    # the columns past its own bound t - min_len are the last t1 - t of them.
    beyond = np.triu(np.ones((B, B), dtype=bool), 1)
    buf = np.empty(B * T)
    for t0 in range(start, T + 1, B):
        t1 = min(t0 + B - 1, T)
        nb, n = t1 - t0 + 1, t1 - min_len + 1
        rows = buf[: nb * n].reshape(nb, n)
        picked = np.arange(nb)
        # order k reads c[k-1, s] for s < t1 only, which the previous
        # order has filled for this block already
        for k in range(2, k_max + 1):
            np.add(by_end[t0 - 1 : t1, :n], c[k - 1, :n], out=rows)
            np.copyto(rows[:, n - nb :], np.inf, where=beyond[:nb, :nb])
            j = np.argmin(rows, axis=1)  # ties resolve to the earliest change point
            c[k, t0 : t1 + 1] = rows[picked, j]
            back[k, t0 : t1 + 1] = j
    return c, back


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
    c, back = _run_dp(costs.by_end, k_max, min_len, costs.first_end)
    results: list[DpResult] = []
    permissive: tuple[np.ndarray, np.ndarray] | None = None
    for k in range(1, k_max + 1):
        if np.isfinite(c[k, T]):
            results.append(DpResult(k, _backtrack(back, k, T), float(c[k, T])))
            continue
        if permissive is None:
            permissive = _run_dp(costs.by_end, k_max, 1, 1)
        pc, pback = permissive
        results.append(
            DpResult(k, _backtrack(pback, k, T), float(pc[k, T]), used_flagged=True)
        )
    return results


def brute_force_segment(
    costs: CostMatrix, k: int, min_segment_length: int | None = None
) -> DpResult:
    """Exhaustive minimum over all order-k segmentations (tiny inputs only)."""
    T = costs.n
    if T > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to T <= {BRUTE_FORCE_LIMIT}")
    if not 1 <= k <= T:
        raise ValueError(f"order must be in [1, {T}], got {k}")
    min_len, first_end = _min_len(costs, min_segment_length), costs.first_end
    for used_flagged in (False, True):
        best_cost = np.inf
        best_cps: tuple[int, ...] | None = None
        for interior in combinations(range(1, T), k - 1):
            cps = (0, *interior, T)
            if cps[1] < first_end or any(
                b - a < min_len for a, b in zip(cps, cps[1:])
            ):
                continue
            cost = 0.0
            for a, b in zip(cps, cps[1:]):
                cost = cost + costs.by_end[b - 1, a]
            if cost < best_cost:
                best_cost = cost
                best_cps = cps
        if best_cps is not None:
            return DpResult(k, Segmentation(best_cps), float(best_cost), used_flagged)
        min_len = first_end = 1
    raise AssertionError("no feasible segmentation found")
