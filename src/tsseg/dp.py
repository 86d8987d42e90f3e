"""Exact segmentation by dynamic programming.

Given a table of window costs, the dynamic program computes the cheapest
segmentation of every order 1..K in one pass: with c[k, t] the minimal cost
of cutting the prefix [1..t] into exactly k segments,

    c[1, t] = d[1, t]
    c[k, t] = min over s of ( c[k-1, s] + d[s+1, t] )

and the minimizing s values are kept for backtracking.  The minimization
phase is O(K T^2); the fill is vectorized over k, so each t takes one
2-D argmin over all orders at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core import Segmentation
from .costs import CostMatrix

__all__ = [
    "DpResult",
    "dp_segment",
    "brute_force_segment",
    "min_cost_curve",
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
    column: Callable[[int], np.ndarray], T: int, k_max: int, min_len: int
) -> tuple[np.ndarray, np.ndarray]:
    # column(t)[s] = d[s+1, t] for s = 0..t-1 (cost of closing a segment at t
    # that started right after s).
    c = np.full((k_max + 1, T + 1), np.inf)
    c[0, 0] = 0.0
    back = np.zeros((k_max + 1, T + 1), dtype=np.int64)
    orders = np.arange(k_max)
    for t in range(1, T + 1):
        col = column(t)
        hi = t - min_len  # largest admissible previous change point
        if hi < 0:
            continue
        # row k-1 holds the candidates of order k, so one argmin fills every order
        cand = c[:k_max, : hi + 1] + col[: hi + 1]
        j = np.argmin(cand, axis=1)  # ties resolve to the earliest change point
        c[1:, t] = cand[orders, j]
        back[1:, t] = j
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


def dp_segment(
    costs: CostMatrix, k_max: int, min_segment_length: int | None = None
) -> list[DpResult]:
    """Optimal segmentations of orders 1..k_max for the given cost table.

    Flagged (under-determined) windows and windows shorter than the minimum
    segment length are excluded; if that leaves some order infeasible, a
    permissive pass (all windows admitted) supplies those orders, marked
    with ``used_flagged``.
    """
    T = costs.n
    if not 1 <= k_max <= T:
        raise ValueError(f"k_max must be in [1, {T}], got {k_max}")
    min_len = (
        costs.default_min_segment_length
        if min_segment_length is None
        else max(1, int(min_segment_length))
    )
    c, back = _run_dp(lambda t: costs.column(t, masked=True), T, k_max, min_len)
    results: list[DpResult] = []
    permissive: tuple[np.ndarray, np.ndarray] | None = None
    for k in range(1, k_max + 1):
        if np.isfinite(c[k, T]):
            results.append(DpResult(k, _backtrack(back, k, T), float(c[k, T])))
            continue
        if permissive is None:
            permissive = _run_dp(
                lambda t: costs.column(t, masked=False), T, k_max, 1
            )
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
    min_len = (
        costs.default_min_segment_length
        if min_segment_length is None
        else max(1, int(min_segment_length))
    )
    for masked in (True, False):
        columns = [costs.column(t, masked=masked) for t in range(1, T + 1)]
        best_cost = np.inf
        best_cps: tuple[int, ...] | None = None
        for interior in combinations(range(1, T), k - 1):
            cps = (0, *interior, T)
            if any(b - a < min_len for a, b in zip(cps, cps[1:])):
                continue
            cost = 0.0
            for a, b in zip(cps, cps[1:]):
                cost = cost + columns[b - 1][a]
            if cost < best_cost:
                best_cost = cost
                best_cps = cps
        if best_cps is not None and np.isfinite(best_cost):
            return DpResult(k, Segmentation(best_cps), float(best_cost), not masked)
        min_len = 1
    raise AssertionError("no feasible segmentation found")


def min_cost_curve(
    costs: CostMatrix, k_max: int, min_segment_length: int | None = None
) -> np.ndarray:
    """Optimal cost as a function of the order, 1..k_max (nonincreasing)."""
    return np.array(
        [r.cost for r in dp_segment(costs, k_max, min_segment_length)]
    )
