"""Statistical order selection.

Segmentations of increasing order are tried one after the other, and the
verdict of each decides where the search stops.  Two verdicts are
implemented, and they stop in opposite senses:

* mean-based models: a Scheffe simultaneous-contrast test on every pair of
  adjacent segment means, against the pooled within-segment variance.
  Orders are accepted while they stay significant; the order before the
  first failure is chosen.
* regression models (ar, poly): a residual whiteness check based on the
  lag-1 autocorrelation of the pooled prediction errors.  Residuals that
  are not white call for more segments; the first order whose residuals
  are white is chosen.  The residuals are those of the one per-segment
  least-squares fit, :func:`~tsseg.costs._segment_fits`.

Either segmenter, the HMM or the exact dynamic program, runs with any of
the three cost models.

Note that the contrast test is applied to a segmentation that was itself
chosen to maximize separation, so on structureless noise it rejects far
more often than its nominal level; order selection here is a pragmatic
stopping rule, not a calibrated hypothesis test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Segmentation, TimeSeries, segment_stats
from .costs import _segment_fits, build_cost_matrix
from .dp import dp_segment
from .hmm import hmm_segment

__all__ = [
    "ScheffeResult",
    "WhitenessResult",
    "SelectionRecord",
    "SelectionReport",
    "scheffe_significant",
    "residual_whiteness",
    "select_order",
    "f_quantile",
]


# ---------------------------------------------------------------------------
# F-distribution quantiles via the regularized incomplete beta function
# (continued-fraction evaluation; no statistical tables).
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's method for the continued fraction of the incomplete beta.
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _f_cdf(v: float, d1: int, d2: int) -> float:
    if v <= 0.0:
        return 0.0
    return _betainc(d1 / 2.0, d2 / 2.0, d1 * v / (d1 * v + d2))


def _f_pdf(v: float, d1: int, d2: int) -> float:
    a, b = d1 / 2.0, d2 / 2.0
    return math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(d1 / d2)
        + (a - 1.0) * math.log(v)
        - (a + b) * math.log1p(d1 * v / d2)
    )


def f_quantile(q: float, d1: int, d2: int) -> float:
    """Quantile of the F distribution with (d1, d2) degrees of freedom.

    Newton steps on the CDF, inside a bracket found by doubling: a step
    that would leave the bracket is replaced by bisection, and every
    evaluation narrows the bracket.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be >= 1")
    lo, hi = 0.0, 1.0
    while _f_cdf(hi, d1, d2) < q:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the F quantile")
    v = hi
    for _ in range(200):
        excess = _f_cdf(v, d1, d2) - q
        if excess < 0.0:
            lo = v
        else:
            hi = v
        density = _f_pdf(v, d1, d2)
        nxt = v - excess / density if density > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - v) <= 1e-12 * max(1.0, v):
            return nxt
        v = nxt
    return v


# ---------------------------------------------------------------------------
# significance tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheffeResult:
    significant: bool
    statistics: tuple[float, ...]  # one per adjacent segment pair
    threshold: float
    degenerate: bool = False


def scheffe_significant(
    x: TimeSeries, t: Segmentation, alpha: float = 0.05
) -> ScheffeResult:
    """Simultaneous test that all adjacent segment means differ.

    Each adjacent contrast psi = mean_k - mean_{k+1} is scored as
    psi^2 / (s2w (1/T_k + 1/T_{k+1})) with s2w the pooled within-segment
    variance, and compared against (K-1) times the upper-alpha F quantile
    with (K-1, T-K) degrees of freedom.  All contrasts must exceed the
    threshold.  The verdict is scale-free.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    K = t.order
    if K < 2:
        raise ValueError("the contrast test needs at least two segments")
    T = len(x)
    stats = segment_stats(x, t)
    if T <= K:
        return ScheffeResult(
            significant=False,
            statistics=(float("nan"),) * (K - 1),
            threshold=float("nan"),
            degenerate=True,
        )
    s2w = sum(s.deviation for s in stats) / (T - K)
    threshold = (K - 1) * f_quantile(1.0 - alpha, K - 1, T - K)
    contrasts = []
    for a, b in zip(stats, stats[1:]):
        psi2 = (a.mean - b.mean) ** 2
        denom = s2w * (1.0 / a.length + 1.0 / b.length)
        if denom > 0.0:
            contrasts.append(psi2 / denom)
        else:
            contrasts.append(math.inf if psi2 > 0.0 else 0.0)
    degenerate = s2w == 0.0 and any(s.length == 1 for s in stats)
    significant = not degenerate and all(c > threshold for c in contrasts)
    return ScheffeResult(
        significant=significant,
        statistics=tuple(contrasts),
        threshold=threshold,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class WhitenessResult:
    white: bool
    lag1: float
    band: float


def residual_whiteness(residuals, alpha: float = 0.05) -> WhitenessResult:
    """Lag-1 autocorrelation check: residuals are white when it falls
    inside +-z_{1-alpha/2}/sqrt(n).  Constant residuals count as white.
    """
    r = np.asarray(residuals, dtype=np.float64).reshape(-1)
    if r.size < 10:
        raise ValueError("whiteness check needs at least 10 residuals")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    band = NormalDist().inv_cdf(1.0 - alpha / 2.0) / math.sqrt(r.size)
    centered = r - r.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        return WhitenessResult(white=True, lag1=0.0, band=band)
    lag1 = float(centered[1:] @ centered[:-1]) / denom
    return WhitenessResult(white=abs(lag1) <= band, lag1=lag1, band=band)


# ---------------------------------------------------------------------------
# order selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionRecord:
    """One attempted order.

    ``significant`` is the verdict on this order alone: for the contrast
    test, every adjacent pair of segment means differs; for the whiteness
    check, the pooled residuals are white, so this order is enough.  A
    collapsed run is never significant.
    """

    order: int
    segmentation: Segmentation
    cost: float
    significant: bool
    statistic: float  # smallest contrast statistic, or lag-1 autocorrelation
    threshold: float
    collapsed: bool = False


@dataclass(frozen=True)
class SelectionReport:
    records: tuple[SelectionRecord, ...]
    chosen_order: int


def _segment_residuals(
    x: TimeSeries, t: Segmentation, cost_model: str, order: int
) -> np.ndarray:
    """Pooled prediction errors of the per-segment model fits, over the
    indices the fits are charged on (see :func:`~tsseg.costs._segment_fits`)."""
    fitted, first, _ = _segment_fits(x.values, t.change_points, cost_model, order)
    return (x.values - fitted)[first:]


def select_order(
    x: TimeSeries,
    algorithm: str = "hmm",
    cost_model: str = "means",
    *,
    order: int = 1,
    p: float = 0.9,
    alpha: float = 0.05,
    k_max: int = 10,
    min_segment_length: int | None = None,
) -> SelectionReport:
    """Choose the number of segments by the significance check of the model.

    ``means`` (contrast test): the segmenter runs for K = 2, 3, ... and the
    search stops at the first order whose segmentation fails the Scheffe
    test.  The chosen order is the last K for which every order 2..K passed;
    it is 1 if the very first split already fails.

    ``ar`` and ``poly`` (whiteness check): residuals that are not white mean
    the model still needs more segments, so the verdict stops in the
    opposite sense.  The search runs K = 1, 2, ..., K = 1 being the
    single-segment fit, and stops at the first order whose pooled residuals
    pass :func:`residual_whiteness`.  That order is chosen, or ``k_max`` if
    none passes.

    The report keeps one record per attempted order.  A run of the
    iterative segmenter that lost states (fewer than K segments) counts as
    a failure under either verdict.  ``min_segment_length`` applies to
    ``algorithm="dp"`` only; the HMM ignores it.
    """
    T = len(x)
    k_max = min(k_max, T)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if algorithm not in ("hmm", "dp"):
        raise ValueError(f"unknown algorithm {algorithm!r}")

    dp_results = None
    if algorithm == "dp":
        matrix = build_cost_matrix(x, cost_model, order=order)
        dp_results = dp_segment(matrix, k_max, min_segment_length)

    contrast = cost_model == "means"
    records: list[SelectionRecord] = []
    chosen = 1 if contrast else k_max
    for K in range(2 if contrast else 1, k_max + 1):
        residuals = None
        if dp_results is not None:
            res = dp_results[K - 1]
            seg, cost = res.segmentation, res.cost
        elif K == 1:
            seg = Segmentation((0, T))
            residuals = _segment_residuals(x, seg, cost_model, order)
            cost = float(residuals @ residuals)
        else:
            seg, trace = hmm_segment(x, K, p, model=cost_model, order=order)
            cost = trace.final.cost
        collapsed = seg.order < K
        if contrast:
            if seg.order >= 2:
                verdict = scheffe_significant(x, seg, alpha)
                statistic = min(verdict.statistics)
                threshold = verdict.threshold
                ok = verdict.significant
            else:
                statistic, threshold, ok = float("nan"), float("nan"), False
        else:
            if residuals is None:
                residuals = _segment_residuals(x, seg, cost_model, order)
            verdict = residual_whiteness(residuals, alpha)
            statistic = verdict.lag1
            threshold = verdict.band
            ok = verdict.white
        significant = ok and not collapsed
        records.append(
            SelectionRecord(
                order=K,
                segmentation=seg,
                cost=cost,
                significant=significant,
                statistic=statistic,
                threshold=threshold,
                collapsed=collapsed,
            )
        )
        if contrast:
            if not significant:
                break
            chosen = K
        elif significant:
            chosen = K
            break
    return SelectionReport(records=tuple(records), chosen_order=chosen)
