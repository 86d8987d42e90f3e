"""Left-to-right Gaussian hidden Markov segmentation.

The chain has K states, stays in state k with probability p, moves to k+1
with probability 1-p, and never moves otherwise (the last state is
absorbing).  Observations are conditionally Gaussian around a per-state
least-squares fit (a mean, or an autoregression) with one shared sigma;
emission densities are used without their normalization constant, so joint
log-likelihoods here are comparable to each other but not to fully
normalized densities.

Segmentation alternates two exact steps until the likelihood settles:
re-estimate per-state parameters from the current segmentation, then
re-decode the state path with the Viterbi algorithm.  Each iteration can
only improve the joint likelihood while the path keeps all K states, which
is what makes the loop a hard-assignment variant of EM.  The loop starts
from a greedy binary segmentation of the series on the means cost, so
that each initial state already covers one level of the data.

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

from .core import (
    SIGMA_FLOOR,
    Segmentation,
    StateSequence,
    TimeSeries,
    _freeze,
    global_sigma,
    segmentation_from_states,
)
from .costs import _group_fit, lag_matrix

__all__ = [
    "HmmParams",
    "EmIteration",
    "EmTrace",
    "transition_matrix",
    "joint_neg_log_likelihood",
    "viterbi",
    "hmm_segment",
]


@dataclass(frozen=True)
class HmmParams:
    """Parameters (K, p, per-state means, shared sigma)."""

    K: int
    p: float
    means: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        means = np.asarray(self.means, dtype=np.float64).reshape(-1)
        if means.size != self.K:
            raise ValueError("means must have length K")
        object.__setattr__(self, "means", _freeze(means))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def transition_matrix(K: int, p: float) -> np.ndarray:
    """K x K matrix with p on the diagonal, 1-p above it, absorbing last row."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    P = np.zeros((K, K))
    for k in range(K - 1):
        P[k, k] = p
        P[k, k + 1] = 1.0 - p
    P[K - 1, K - 1] = 1.0
    return P


def _transition_neg_log_likelihood(states: np.ndarray, K: int, p: float) -> float:
    # Path starts from the implicit state 1 before the first observation.
    path = np.concatenate([[1], states])
    steps = path[1:] - path[:-1]
    if np.any((steps < 0) | (steps > 1)) or path.max() > K:
        return math.inf
    transitions = int(np.count_nonzero(steps))
    # Self-transitions out of the absorbing last state cost nothing.
    stays = int(np.count_nonzero((steps == 0) & (path[:-1] < K)))
    return -(stays * math.log(p) + transitions * math.log(1.0 - p))


def joint_neg_log_likelihood(
    z: StateSequence, x: TimeSeries, params: HmmParams
) -> float:
    """Negative log of the joint likelihood of a state path and the series.

    Sums -log P over the actual transitions of the path (starting from
    state 1) plus the squared deviations (x_t - mean[z_t])^2 / (2 sigma^2).
    Returns +inf if the path uses a forbidden transition.
    """
    if len(z) != len(x):
        raise ValueError("state sequence and series must have the same length")
    states = z.states
    if states.max() > params.K:
        raise ValueError("state sequence uses states beyond K")
    trans = _transition_neg_log_likelihood(states, params.K, params.p)
    if math.isinf(trans):
        return math.inf
    dev = x.values - params.means[states - 1]
    return trans + float(dev @ dev) / (2.0 * params.sigma**2)


def _decode(log_emissions: np.ndarray, p: float) -> tuple[np.ndarray, float]:
    """Viterbi in the log domain for the bidiagonal left-to-right chain.

    ``log_emissions`` is (T, K).  Returns (0-based states, max joint
    log-likelihood).

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
    loglik = float(q[last, T - 1])
    states = np.empty(T, dtype=np.int64)
    t = T - 1
    for k in range(last, 0, -1):
        tau = int(entry[k, t])
        states[tau : t + 1] = k
        t = tau - 1
    states[: t + 1] = 0
    return states, loglik


def viterbi(x: TimeSeries, params: HmmParams) -> tuple[StateSequence, float]:
    """Most likely state path and its joint log-likelihood."""
    dev = x.values[:, None] - params.means[None, :]
    log_em = -(dev * dev) / (2.0 * params.sigma**2)
    states, loglik = _decode(log_em, params.p)
    return StateSequence(states + 1), loglik


@dataclass(frozen=True)
class EmIteration:
    """One iterate: the decoded path paired with parameters refit to it."""

    iteration: int
    params: np.ndarray       # (K, order+1) coefficients; order 0 is the means
    segmentation: Segmentation
    log_likelihood: float    # joint log-likelihood of (path, refit params)
    cost: float              # total squared deviation / prediction error
    states_used: int


@dataclass(frozen=True)
class EmTrace:
    records: tuple[EmIteration, ...]
    final_states: StateSequence
    sigma: float
    converged: bool
    in_phi_k: bool           # every iterate kept all K states
    collapsed: bool          # final iterate used fewer than K states

    @property
    def iterations(self) -> int:
        """Number of decode iterations performed (record 0 is the init)."""
        return self.records[-1].iteration

    @property
    def final(self) -> EmIteration:
        return self.records[-1]


def _binary_split_states(values: np.ndarray, K: int) -> np.ndarray:
    """Greedy binary segmentation of ``values`` into K blocks on the means cost.

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
    lengths = [b - a for a, b, _, _ in blocks]
    return np.repeat(np.arange(1, K + 1), lengths)


class _LsqModel:
    """Per-state least-squares fits of x_t on a fixed design row, by the
    cost kernel's solve: [1] for means (order 0), [1, x_{t-1}, ...,
    x_{t-order}] for an autoregression of the given order.

    As in the DP cost tables (:func:`ar_cost_exact`), the first ``order``
    observations, whose lags are clamped, are neither fitted nor charged.
    Their emission is the same in every state, so they leave the decoded
    path to the transition terms.
    """

    def __init__(self, x: TimeSeries, K: int, order: int):
        self.values = x.values
        self.K = K
        self.order = order
        self.U = lag_matrix(x.values, order)
        self.design = self.U[order:]
        self.target = self.values[order:]

    def refit(self, states: np.ndarray, prev: np.ndarray | None) -> np.ndarray:
        """Coefficients refit to ``states``.  A state without rows keeps its
        ``prev`` row; on the first fit it gets the mean of the series."""
        rows = states[self.order :] - 1
        coefs = _group_fit(self.design, self.target, rows, self.K)
        if prev is not None:
            unused = np.bincount(rows, minlength=self.K) == 0
            coefs[unused] = prev[unused]
        return coefs

    def log_emissions(self, params: np.ndarray, sigma: float) -> np.ndarray:
        err = self.values[:, None] - self.U @ params.T
        err[: self.order] = 0.0
        err *= err
        err /= -2.0 * sigma**2
        return err

    def cost(self, states: np.ndarray, params: np.ndarray) -> float:
        rows = states[self.order :] - 1
        err = self.target - np.einsum("ij,ij->i", self.design, params[rows])
        return float(err @ err)


def _run_em(
    model,
    K: int,
    p: float,
    sigma: float,
    z0: np.ndarray,
    epsilon: float,
    max_iter: int,
) -> EmTrace:
    def record(i: int, states: np.ndarray, params: np.ndarray) -> EmIteration:
        cost = model.cost(states, params)
        loglik = -(
            _transition_neg_log_likelihood(states, K, p)
            + cost / (2.0 * sigma**2)
        )
        segmentation = segmentation_from_states(StateSequence(states))
        return EmIteration(
            iteration=i,
            params=params,
            segmentation=segmentation,
            log_likelihood=loglik,
            cost=cost,
            states_used=segmentation.order,
        )

    states = z0
    params = model.refit(states, None)
    records = [record(0, states, params)]
    converged = False
    for i in range(1, max_iter + 1):
        new_states, _ = _decode(model.log_emissions(params, sigma), p)
        new_states += 1
        params = model.refit(new_states, params)
        records.append(record(i, new_states, params))
        states = new_states
        if abs(records[-1].log_likelihood - records[-2].log_likelihood) < epsilon:
            converged = True
            break
    return EmTrace(
        records=tuple(records),
        final_states=StateSequence(states),
        sigma=sigma,
        converged=converged,
        in_phi_k=all(r.states_used == K for r in records),
        collapsed=records[-1].states_used < K,
    )


def hmm_segment(
    x: TimeSeries,
    K: int,
    p: float = 0.9,
    *,
    model: str = "means",
    order: int = 1,
    epsilon: float = 1e-9,
    max_iter: int = 100,
    sigma_min: float = SIGMA_FLOOR,
) -> tuple[Segmentation, EmTrace]:
    """Segment ``x`` into (at most) K blocks by iterated re-estimation and
    Viterbi decoding.

    The initial segmentation is a deterministic greedy binary segmentation
    on the means cost, for either model.  The paper's abstract does not say
    how the iteration is started; an equal split mixes regimes of unequal
    length and leaves hard EM at a poor local optimum, where this start
    puts each state on one level of the data.

    The shared sigma is estimated once from the whole series and held
    fixed.  ``model`` selects the segment family: "means" (default), the
    order-0 case of the least-squares state model, or "ar" with the given
    ``order``.
    """
    T = len(x)
    if T < 2:
        raise ValueError("need at least two observations")
    if not 2 <= K <= T:
        raise ValueError(f"K must be in [2, {T}], got {K}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if model == "means":
        order = 0
    elif model != "ar":
        raise ValueError(f"unsupported model {model!r} (use 'means' or 'ar')")
    sigma = max(global_sigma(x), sigma_min)
    fitter = _LsqModel(x, K, order)
    z0 = _binary_split_states(x.values, K)
    trace = _run_em(fitter, K, p, sigma, z0, epsilon, max_iter)
    return trace.final.segmentation, trace
