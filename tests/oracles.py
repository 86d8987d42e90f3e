"""Reference implementations the tests check the package against."""

from itertools import combinations

import numpy as np

from tsseg.core import Segmentation
from tsseg.costs import CostMatrix
from tsseg.dp import DpResult, _min_len

#: brute_force_segment refuses longer series (the enumeration is combinatorial).
BRUTE_FORCE_LIMIT = 25


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
