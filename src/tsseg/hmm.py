"""Left-to-right Gaussian hidden Markov segmentation.

The chain has K states, stays in state k with probability p, moves to k+1
with probability 1-p, and never moves otherwise (the last state is
absorbing).  Observations are conditionally Gaussian around a per-state
least-squares fit with one shared sigma: the segmenters' one per-segment
fit (:func:`~tsseg.costs._segment_fits`) of any of the dynamic program's
cost models, a mean, an autoregression or a polynomial in time.  So a
path's cost is the sum of the dynamic program's window costs over its
segments.  A polynomial state is fitted in the time offset from the start
of its block and predicts every time step in the offset from that same
start.  Emission densities are used without their normalization constant,
so joint log-likelihoods here are comparable to each other but not to
fully normalized densities.

Segmentation alternates two exact steps until the likelihood settles:
re-estimate per-state parameters from the current segmentation, then
re-decode the state path with the Viterbi algorithm.  The refit is exact
for every state the path uses (an empty state carries no rows) and the
decode is exact over all paths, so no iteration lowers the joint
likelihood, which is what makes the loop a hard-assignment variant of EM.
As there are finitely many paths, stopping at the first iteration that
does not raise the likelihood needs no tolerance.  A path is held as its
K+1 state boundaries 0 = b_0 <= b_1 <= ... <= b_K = T, state k covering
[b_k, b_{k+1}).  The loop starts from a greedy binary segmentation of the
series on the means cost, so that each initial state already covers one
level of the data.

Viterbi decoding runs state by state rather than time step by time step.
Because the chain only stays or moves up by one, the best score of state
k at time t is the best over its entry times tau of the score of reaching
state k-1 at tau-1, one move, and the stays and emissions of state k from
tau to t.  Given state k-1's scores at every time, that is one max-plus
scan per state, evaluated with vectorized doubling rounds.  Ties that are
exact in floating point go to the latest entry into a state and, at the
end of the series, to the lowest state, as in the time-major recursion.
Paths that tie only in exact arithmetic (a noiseless series has many)
are scored by sums taken in a different order, so which of them comes
back is decided by rounding and is unspecified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIGMA_FLOOR, Segmentation, TimeSeries, global_sigma
from .costs import _design, _segment_fits

__all__ = ["EmIteration", "EmTrace", "hmm_segment"]

#: Cap on decode iterations.  The likelihood never falls and only finitely
#: many paths exist, so the loop always stops by itself; the paper grid
#: needs at most 6 iterations.
_MAX_ITER = 100


def _decode(log_emissions: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Viterbi in the log domain for the bidiagonal left-to-right chain.

    ``log_emissions`` is (T, K).  Returns (state boundaries, max joint
    log-likelihood): 0-based state k covers [bounds[k], bounds[k+1]), and
    the states after the last one the path reaches are empty at T.

    The recursion runs state by state.  With a_k = log p (a_K = 0, the
    last state being absorbing), e_k(t) the log emission, and the chain in
    an implicit state 1 before the first observation,

        q_k(t) = max(q_k(t-1) + a_k, q_{k-1}(t-1) + log(1-p)) + e_k(t).

    Once q_{k-1} is known for every t, q_k(t) is the best over entry times
    tau <= t of r_k(tau) + sum_{tau < u <= t} (a_k + e_k(u)), where
    r_k(tau) = q_{k-1}(tau-1) + log(1-p) + e_k(tau) enters k at tau: a
    max-plus scan.  It is evaluated by doubling, so each state takes
    ceil(log2 T) vectorized rounds and no loop runs over time.  Every
    candidate is scored as a sum of its own terms, as in the time-major
    recursion; the closed form q_k = C_k + running max(r_k - C_k) with C_k
    the cumulative sum of a_k + e_k needs no rounds, but where emissions
    span many orders of magnitude the stay costs vanish next to a large
    C_k and the decoded path degrades.

    Ties follow the time-major rule where the compared floating-point
    scores are equal: entering beats staying, so a state is entered as late
    as possible, and the final state is the lowest among the best.  Paths
    that tie only in exact arithmetic may round apart, and which of them
    is returned is unspecified.  The backtrack reads each state's entry
    time off those comparisons and takes K steps.
    """
    T, K = log_emissions.shape
    log_stay = np.full((K, 1), math.log(p))
    log_stay[K - 1] = 0.0
    log_next = math.log(1.0 - p)
    emissions = log_emissions.T
    stays = emissions + log_stay
    q = np.empty((K, T))
    q[0] = np.cumsum(stays[0])
    for k in range(1, K):
        best = np.empty(T)
        best[0] = log_next if k == 1 else -np.inf
        best[1:] = q[k - 1, :-1] + log_next
        best += emissions[k]
        run = stays[k].copy()  # run[t]: sum of a_k + e_k over the window ending at t
        width = 1
        while width < T:
            np.maximum(best[width:], best[:-width] + run[width:], out=best[width:])
            run[width:] += run[:-width]
            width *= 2
        q[k] = best
    before = np.empty((K, T))
    before[:, 0] = -np.inf
    before[0, 0] = 0.0
    before[:, 1:] = q[:, :-1]
    enters = np.zeros((K, T), dtype=bool)
    enters[1:] = before[:-1] + log_next >= before[1:] + log_stay[1:]
    entry = np.maximum.accumulate(np.where(enters, np.arange(T), -1), axis=1)
    last = int(np.argmax(q[:, T - 1]))
    bounds = np.full(K + 1, T, dtype=np.int64)
    bounds[0] = 0
    for k in range(last, 0, -1):
        bounds[k] = entry[k, bounds[k + 1] - 1]
    return bounds, float(q[last, T - 1])


@dataclass(frozen=True)
class EmIteration:
    """One iterate: the decoded path, as its K+1 state boundaries (a state it
    skips is empty), paired with parameters refit to it."""

    iteration: int
    params: np.ndarray       # (K, order+1) coefficients; order 0 is the means;
                             # poly rows are in each state's block offset 1..n
    bounds: np.ndarray       # (K+1,) state boundaries 0 = b_0 <= ... <= b_K = T
    segmentation: Segmentation  # the distinct bounds; order = states used
    log_likelihood: float    # joint log-likelihood of (path, refit params)
    cost: float              # total squared deviation / prediction error


@dataclass(frozen=True)
class EmTrace:
    """Every iterate of one hard-EM run; record 0 is the initial path."""

    records: tuple[EmIteration, ...]
    sigma: float
    converged: bool
    collapsed: bool          # the final path uses fewer than K states

    @property
    def iterations(self) -> int:
        """Number of decode iterations performed (record 0 is the init)."""
        return self.records[-1].iteration

    @property
    def final(self) -> EmIteration:
        return self.records[-1]


def _binary_split_states(values: np.ndarray, K: int) -> np.ndarray:
    """Greedy binary segmentation of ``values`` into K blocks on the means
    cost, as the K+1 state boundaries (0, cuts..., T).

    Starting from one block, each step cuts the block whose best single cut
    removes the most squared deviation, at that cut.  A cut at c of a block
    [a, b) removes n1 n2 / n (mean[a, c) - mean[c, b))^2, which prefix sums
    give for every c at once; only the two new blocks are re-scanned after a
    cut, so the whole start costs O(K T).  Ties go to the earliest block and
    the earliest cut, which keeps the start deterministic.
    """
    T = values.size
    prefix = np.concatenate([[0.0], np.cumsum(values - values.mean())])

    def best_cut(a: int, b: int) -> tuple[float, int]:
        if b - a < 2:
            return -math.inf, a
        c = np.arange(a + 1, b)
        n1, n2 = c - a, b - c
        diff = (prefix[c] - prefix[a]) / n1 - (prefix[b] - prefix[c]) / n2
        gains = n1 * n2 / (b - a) * diff * diff
        j = int(np.argmax(gains))
        return float(gains[j]), int(c[j])

    blocks = [(0, T, *best_cut(0, T))]
    for _ in range(K - 1):
        i = max(range(len(blocks)), key=lambda j: (blocks[j][2], -j))
        a, b, _, c = blocks[i]
        blocks[i : i + 1] = [(a, c, *best_cut(a, c)), (c, b, *best_cut(c, b))]
    return np.array([a for a, _, _, _ in blocks] + [T], dtype=np.int64)


def _run_em(
    values: np.ndarray, K: int, p: float, sigma: float, bounds: np.ndarray,
    model: str, order: int,
) -> EmTrace:
    T = values.size
    log_stay, log_move = math.log(p), math.log(1.0 - p)
    time = np.arange(1.0, T + 1.0)
    design, first = _design(values, model, order, time)

    def refit(bounds, prev, prev_origins):
        """Coefficients refit to the path, the start of the block each state
        was fitted on, and the path's cost.  A state without charged rows
        keeps its ``prev`` row and origin; on the first fit it gets the mean
        of the series."""
        fitted, _, params = _segment_fits(values, bounds, model, order)
        origins = bounds[:-1]
        if prev is not None:
            unused = np.diff(np.maximum(bounds, first)) == 0
            params[unused] = prev[unused]
            origins = np.where(unused, prev_origins, origins)
        err = values[first:] - fitted[first:]
        return params, origins, float(err @ err)

    def log_emissions(params, origins):
        if model == "poly":  # each state's polynomial in its own block offset
            fit = np.column_stack([
                _design(values, model, order, time - o)[0] @ c
                for c, o in zip(params, origins)
            ])
        else:
            fit = design @ params.T
        err = values[:, None] - fit
        err[:first] = 0.0  # uncharged rows emit alike in every state
        err *= err
        err /= -2.0 * sigma**2
        return err

    def record(
        i: int, bounds: np.ndarray, params: np.ndarray, cost: float
    ) -> EmIteration:
        # The path moves once into each state up to the last one it uses
        # and pays a stay for every other step, except in the absorbing
        # state K, where stays are free.
        sizes = np.diff(bounds)
        moves = int(np.flatnonzero(sizes)[-1])
        stays = T - moves - (int(sizes[-1]) - 1 if moves == K - 1 else 0)
        loglik = -(
            -(stays * log_stay + moves * log_move) + cost / (2.0 * sigma**2)
        )
        return EmIteration(
            iteration=i,
            params=params,
            bounds=bounds,
            segmentation=Segmentation(tuple(np.unique(bounds))),
            log_likelihood=loglik,
            cost=cost,
        )

    params, origins, cost = refit(bounds, None, None)
    records = [record(0, bounds, params, cost)]
    converged = False
    for i in range(1, _MAX_ITER + 1):
        bounds, _ = _decode(log_emissions(params, origins), p)
        params, origins, cost = refit(bounds, params, origins)
        records.append(record(i, bounds, params, cost))
        if records[-1].log_likelihood <= records[-2].log_likelihood:
            converged = True
            break
    return EmTrace(
        records=tuple(records),
        sigma=sigma,
        converged=converged,
        collapsed=records[-1].segmentation.order < K,
    )


def hmm_segment(
    x: TimeSeries,
    K: int,
    p: float = 0.9,
    *,
    model: str = "means",
    order: int = 1,
) -> tuple[Segmentation, EmTrace]:
    """Segment ``x`` into (at most) K blocks by iterated re-estimation and
    Viterbi decoding.

    The initial segmentation is a deterministic greedy binary segmentation
    on the means cost, for every model.  The paper's abstract does not say
    how the iteration is started; an equal split mixes regimes of unequal
    length and leaves hard EM at a poor local optimum, where this start
    puts each state on one level of the data.

    The shared sigma is estimated once from the whole series, floored at
    ``SIGMA_FLOOR`` so that a noiseless series still has finite emissions,
    and held fixed.  The loop stops at the first iteration whose joint
    log-likelihood is not above the previous one; since no iteration
    lowers it and the paths are finite, that stop is exact, and
    ``converged`` is False only if ``_MAX_ITER`` iterations all improved.
    ``model`` selects the segment family, one of the dynamic program's cost
    models: "means" (default), the order-0 case of the least-squares state
    model, "ar" with ``order`` lags, or "poly" of degree ``order``.
    """
    T = len(x)
    if T < 2:
        raise ValueError("need at least two observations")
    if not 2 <= K <= T:
        raise ValueError(f"K must be in [2, {T}], got {K}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    sigma = max(global_sigma(x), SIGMA_FLOOR)
    start = _binary_split_states(x.values, K)
    trace = _run_em(x.values, K, p, sigma, start, model, order)
    return trace.final.segmentation, trace
