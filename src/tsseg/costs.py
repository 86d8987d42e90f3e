"""Segment cost models.

Every model assigns a nonnegative cost d[s, t] to fitting one segment over
the (1-based, inclusive) window [s, t]:

* ``means``: squared deviation around the window mean.
* ``ar``:    squared prediction error of an autoregression of a given order
             (with intercept) fitted to the window.
* ``poly``:  squared residual of a polynomial in the within-segment time
             offset fitted to the window.

All three are the least-squares residual of x_u on a design row over the
charged rows u of the window: [1] for means, [1, x_{u-1}, ..., x_{u-L}] for
ar (the first L rows, whose lags are clamped, are not charged), and
[1, (t-u), ..., (t-u)^L] for poly, which spans the same polynomials as the
within-segment offset.  :func:`build_cost_matrix` builds every table: it
fills a block of consecutive window ends at a time, indexing each window
[t-i, t] by its end t and its age i.  The sums of u u', u x and x^2
over a window are one cumsum along the rows t, t-1, ... of the block's
ends (a short window is never the difference of two long ones), taken on a
sliding view of the reversed, zero-padded rows.  Means then takes its
closed form; ar and poly solve the Jacobi-scaled normal equations, with no
ridge, by one broadcasting Cholesky solve over the whole block (poly's Gram
matrix depends only on the window length, so it is factored once per
length and serves every end).  That is O(T^2 d^2) work for d regressors.
The segmenters' per-segment fits use the same solve.  Each model also has a
direct evaluator (the slow, obviously-correct form) the tables are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .core import TimeSeries, _freeze

__all__ = [
    "CostMatrix",
    "SingularWindowError",
    "means_cost_direct",
    "ar_cost_exact",
    "poly_cost",
    "build_cost_matrix",
]

#: Rayleigh quotient below which :func:`_solve` distrusts a solve (rounding
#: would swamp the residual), and the pseudo-inverse's cutoff relative to
#: the largest eigenvalue.
_RCOND = 1e-8

#: Size of a block of the table fill, in windows (window ends times ages)
#: times regressors: large enough that every numpy operation covers many
#: windows, small enough that the solve's working arrays stay in cache.
_CELLS = 1 << 16


class SingularWindowError(Exception):
    """The design matrix of a window [s, t] is singular."""

    def __init__(self, s: int, t: int, message: str | None = None):
        self.window = (s, t)
        super().__init__(message or f"singular design on window [{s}, {t}]")


def _admissibility(model: str, order: int) -> tuple[int, int]:
    """(default minimum segment length, first identified end) of a table;
    see :class:`CostMatrix`."""
    if model == "means":
        return 1, 1
    min_len = order + 2
    return min_len, min_len + order if model == "ar" else min_len


@dataclass(frozen=True)
class CostMatrix:
    """Triangular table of window costs d[s, t] for 1 <= s <= t <= T.

    Storage is row-major by window end: ``by_end[t-1, s-1]`` holds d[s, t],
    so the dynamic program can read each column d[., t] contiguously.

    Which windows a segmenter may select is one rule, not a stored mask.
    An ar or poly window [s, t] is *flagged* (under-determined: too few
    charged rows to identify the model; its stored cost is 0) exactly when
    t - s + 1 < ``default_min_segment_length`` (order + 2) or
    t < ``first_end``, the first end that has an identified window: order + 2
    for poly, and 2 order + 2 for ar, which does not charge the first
    ``order`` rows of the series.  Means flags nothing (``first_end`` 1).
    So the admissible windows ending at t >= ``first_end`` are those with
    s - 1 <= t - ``default_min_segment_length``: one bound per end on the
    previous change point.
    """

    by_end: np.ndarray
    model_tag: str
    order: int = 0

    def __post_init__(self) -> None:
        be = np.asarray(self.by_end, dtype=np.float64)
        if be.ndim != 2 or be.shape[0] != be.shape[1]:
            raise ValueError("cost table must be square")
        object.__setattr__(self, "by_end", _freeze(be))

    @property
    def n(self) -> int:
        return int(self.by_end.shape[0])

    @property
    def default_min_segment_length(self) -> int:
        """Shortest window a segmenter should select by default."""
        return _admissibility(self.model_tag, self.order)[0]

    @property
    def first_end(self) -> int:
        """First window end at which some window is not flagged."""
        return _admissibility(self.model_tag, self.order)[1]

    def window_cost(self, s: int, t: int) -> float:
        self._check_window(s, t)
        return float(self.by_end[t - 1, s - 1])

    def is_flagged(self, s: int, t: int) -> bool:
        self._check_window(s, t)
        return self.model_tag != "means" and (
            t - s + 1 < self.default_min_segment_length or t < self.first_end
        )

    # The two masks below are built on demand from the rule, for
    # bench/run.py's ``work_counts``, which sums their bytes into
    # ``costs.table_bytes``; nothing in the package reads them.

    @property
    def flagged(self) -> np.ndarray | None:
        """``flagged[t-1, s-1]`` tells whether [s, t] is flagged (None for means)."""
        if self.model_tag == "means":
            return None
        # admissible: s - 1 <= t - default_min_segment_length, t >= first_end
        k = 1 - self.default_min_segment_length
        admissible = np.tri(self.n, k=k, dtype=bool)
        admissible[: self.first_end - 1] = False
        return np.tri(self.n, dtype=bool) & ~admissible

    @property
    def boundary(self) -> np.ndarray | None:
        """``boundary[t-1, s-1]`` tells whether the ar window [s, t] starts in
        the first ``order`` positions, whose lags are clamped (None unless ar)."""
        if self.model_tag != "ar":
            return None
        boundary = np.tri(self.n, dtype=bool)
        boundary[:, self.order :] = False
        return boundary

    def _check_window(self, s: int, t: int) -> None:
        if not (1 <= s <= t <= self.n):
            raise ValueError(f"window [{s}, {t}] out of range for T={self.n}")

    def to_tsv(self) -> str:
        """Tab-separated triangular dump; line t holds d[1, t] .. d[t, t]."""
        lines = []
        for t in range(1, self.n + 1):
            lines.append("\t".join("%.17g" % v for v in self.by_end[t - 1, :t]))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# direct evaluators (test oracles)
# ---------------------------------------------------------------------------

def means_cost_direct(x: TimeSeries, s: int, t: int) -> float:
    """Squared deviation of x_s..x_t around the window mean, two-pass.

    This is the O(window) definition, kept as the ground truth the fast
    matrix builder is checked against.
    """
    if not (1 <= s <= t <= len(x)):
        raise ValueError(f"window [{s}, {t}] out of range for T={len(x)}")
    w = x.values[s - 1 : t]
    r = w - w.mean()
    return float(r @ r)


def lag_matrix(values: np.ndarray, order: int) -> np.ndarray:
    """Regressor rows u_t = [1, x_{t-1}, ..., x_{t-order}] for t = 1..T.

    Lags reaching before the start of the series are clamped to x_1, so the
    first ``order`` rows are partly synthetic; cost matrices mark windows
    that include them as boundary windows.
    """
    T = len(values)
    U = np.ones((T, order + 1))
    for j in range(1, order + 1):
        U[:, j] = values[np.maximum(np.arange(T) - j, 0)]
    return U


def ar_cost_exact(
    x: TimeSeries, s: int, t: int, order: int
) -> tuple[float, np.ndarray]:
    """Least-squares autoregression on the window [s, t], by ``lstsq`` on
    the window's design rows; returns (squared prediction error,
    coefficients).  Windows whose Gram matrix has a condition number over
    1e12 are refused as singular.

    Coefficients are ordered [intercept, lag 1, ..., lag ``order``].  The
    first ``order`` observations of the series have no real lags, so
    windows reaching into them are fitted and charged on the rows from
    max(s, order+1) on (the usual conditioning on the first observations).
    """
    if not (1 <= s <= t <= len(x)):
        raise ValueError(f"window [{s}, {t}] out of range for T={len(x)}")
    lo = max(s, order + 1)
    if t - lo + 1 <= order + 1:
        raise ValueError(
            f"window [{s}, {t}] has {max(t - lo + 1, 0)} usable points, "
            f"not enough for order {order}"
        )
    U = lag_matrix(x.values, order)[lo - 1 : t]
    w = x.values[lo - 1 : t]
    gram = U.T @ U
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e12:
        raise SingularWindowError(s, t)
    try:
        coef = np.linalg.lstsq(U, w, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise SingularWindowError(s, t, str(exc)) from exc
    r = w - U @ coef
    return float(r @ r), coef


def poly_cost(
    x: TimeSeries, s: int, t: int, degree: int
) -> tuple[float, np.ndarray]:
    """Least-squares polynomial in the within-segment offset 1..(t-s+1).

    Returns (squared residual, coefficients [a_0, ..., a_degree]).
    """
    if not (1 <= s <= t <= len(x)):
        raise ValueError(f"window [{s}, {t}] out of range for T={len(x)}")
    n = t - s + 1
    if n <= degree + 1:
        raise ValueError(
            f"window [{s}, {t}] has {n} points, not enough for degree {degree}"
        )
    design = np.vander(np.arange(1.0, n + 1.0), degree + 1, increasing=True)
    w = x.values[s - 1 : t]
    coef, _, rank, _ = np.linalg.lstsq(design, w, rcond=None)
    if rank < degree + 1:
        raise SingularWindowError(s, t, "rank-deficient polynomial design")
    r = w - design @ coef
    return float(r @ r), coef


# ---------------------------------------------------------------------------
# the least-squares kernel
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients from stacked normal equations gram c = rhs.

    The batch shapes of ``gram`` (..., d, d) and ``rhs`` (..., d) broadcast
    against each other, so one Gram matrix can serve many right-hand sides
    and is factored once for all of them.  Each system is scaled to a unit
    diagonal (Jacobi) and solved by a Cholesky factorisation written entry
    by entry over the whole batch: the Python loops run over d, never over
    systems.  A system the solve cannot be trusted on, because a pivot is
    not positive (the Gram matrix is singular, or rounding made it
    indefinite) or its scaled coefficients lie along a direction the Gram
    matrix barely spans (a Rayleigh quotient under ``_RCOND``), is solved
    by a pseudo-inverse instead: the minimum-norm fit over the directions
    the Gram matrix resolves, which for an exactly singular system still
    reaches the least-squares minimum.
    """
    d = rhs.shape[-1]
    # every entry is its own array, so that each operation runs over
    # contiguous memory whatever the layout of gram and rhs
    diag = [gram[..., i, i] for i in range(d)]
    scale = [np.sqrt(np.where(g > 0.0, g, 1.0)) for g in diag]
    r = [rhs[..., i] / scale[i] for i in range(d)]
    # g = L L' with g the scaled Gram matrix; a pivot that is not positive
    # becomes NaN, which reaches every coefficient of its system
    L = [[None] * d for _ in range(d)]
    for j in range(d):
        for i in range(j, d):
            a = gram[..., i, j] / (scale[i] * scale[j])
            for k in range(j):
                a = a - L[i][k] * L[j][k]
            L[i][j] = np.sqrt(np.where(a > 0.0, a, np.nan)) if i == j else a / L[j][j]
    y = []
    for i in range(d):
        a = r[i]
        for k in range(i):
            a = a - L[i][k] * y[k]
        y.append(a / L[i][i])
    c = [None] * d
    for i in reversed(range(d)):
        a = y[i]
        for k in range(i + 1, d):
            a = a - L[k][i] * c[k]
        c[i] = a / L[i][i]
    cc = sum(ci * ci for ci in c)
    cr = sum(ci * ri for ci, ri in zip(c, r))
    bad = ~((_RCOND * cc <= cr) & (cc < np.inf))  # also catches NaN
    scale = np.stack(scale, axis=-1)
    c = np.stack(c, axis=-1)
    if bad.any():
        s = np.broadcast_to(scale, c.shape)[bad]
        g = np.broadcast_to(gram, c.shape + (d,))[bad] / (s[:, :, None] * s[:, None, :])
        r = np.broadcast_to(rhs, c.shape)[bad] / s
        pinv = np.linalg.pinv(g, rcond=_RCOND, hermitian=True)
        c[bad] = (pinv @ r[..., None])[..., 0]
    return c / scale


def _group_fit(
    design: np.ndarray, target: np.ndarray, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Least-squares coefficients of ``target`` on ``design`` within each
    group of rows (``groups`` labels rows 0..n_groups-1), by :func:`_solve`,
    or for the design [1] by the closed form, the group mean.

    As in the cost kernel, the target and the columns after the first (the
    intercept, which absorbs the shift) are centred, so a series far from
    zero keeps its precision.  A group without rows gets the target's mean.
    """
    centre = target.mean()
    d = design.shape[1]
    if d == 1:  # the design is [1]: the fit is the group mean
        counts = np.bincount(groups, minlength=n_groups)
        sums = np.bincount(groups, weights=target - centre, minlength=n_groups)
        return (centre + sums / np.maximum(counts, 1))[:, None]
    shift = design.mean(axis=0)
    shift[0] = 0.0
    u = design - shift
    gram = np.zeros((n_groups, d, d))
    np.add.at(gram, groups, u[:, :, None] * u[:, None, :])
    rhs = np.zeros((n_groups, d))
    np.add.at(rhs, groups, u * (target - centre)[:, None])
    coefs = _solve(gram, rhs)
    coefs[:, 0] += centre - coefs[:, 1:] @ shift[1:]
    return coefs


def _reversed_padded(rows: np.ndarray) -> np.ndarray:
    """A series of rows, time along the last axis, reversed in time and
    followed by as many zero rows."""
    return np.concatenate([rows[..., ::-1], np.zeros_like(rows)], axis=-1)


def _by_age(padded: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """The rows u = t - i of a series, from :func:`_reversed_padded`, for
    the window ends t = t0..t1 (axis 0) and the ages i = 0..t1-1 (the last
    axis), as a view.  Ages that reach past the start of the series read 0.
    """
    T = padded.shape[-1] // 2
    view = sliding_window_view(padded, t1, axis=-1)[..., T - t1 : T - t0 + 1, :]
    return np.moveaxis(view, -2, 0)[::-1]


def _cumsum_by_age(padded: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """Sums of the rows u = t, t-1, ..., t-i, added in that order, for the
    window ends t = t0..t1 (axis 0) and the ages i = 0..t1-1 (axis 1).

    Each entry of a row is stored contiguously along the ages, which is
    the layout the solve reads.
    """
    view = _by_age(padded, t0, t1)
    return np.moveaxis(np.cumsum(view, axis=-1, out=np.empty(view.shape)), -1, 1)


def _store_by_start(by_end: np.ndarray, cost: np.ndarray, t0: int) -> None:
    """Writes a block's costs into the table by window start.

    ``cost[b, i]`` is the window [t-i, t] with t = t0 + b, for the B ends
    t = t0..t1 and the ages i = 0..t1-1; it goes to ``by_end[t-1, t-1-i]``
    when i < t.  The block's windows with t < s <= t1 get 0.
    """
    B, n = cost.shape
    # Row b of ``skew`` holds cost[b] reversed, then B zeros: reading it
    # with a row stride one element short shifts row b left by B-1-b.
    skew = np.zeros((B, n + B))
    skew[:, :n] = cost[:, ::-1]
    step = skew.strides[1]
    by_end[t0 - 1 : t0 - 1 + B, :n] = as_strided(
        skew.ravel()[B - 1 :], (B, n), (skew.strides[0] - step, step)
    )


def build_cost_matrix(
    x: TimeSeries, model: str = "means", order: int | None = None
) -> CostMatrix:
    """Cost table of ``model`` in {means, ar, poly}, filled a block of
    window ends at a time.

    ``order`` is the lag count of ar and the degree of poly.  The windows
    that :class:`CostMatrix`'s rule flags are stored as 0.
    """
    T = len(x)
    if model == "means":
        order = 0
    elif model not in ("ar", "poly"):
        raise ValueError(f"unknown cost model {model!r}")
    elif order is None:
        raise ValueError(f"cost model {model!r} needs an order")
    elif T <= order + 1:
        raise ValueError(f"series of length {T} too short for order {order}")
    # Centring x (the intercept absorbs it); ar rows are indexed by the
    # time u, means and poly rows by the age t - u.
    xc = x.values - x.values.mean()
    weight = np.ones(T)
    if model == "ar":
        design = lag_matrix(xc, order)
        weight[:order] = 0.0
    else:
        design = np.vander(np.arange(float(T)), order + 1, increasing=True)
    d = design.shape[1]
    wx = weight * xc
    padded_wx = _reversed_padded(wx)
    padded_wxx = _reversed_padded(wx * xc)
    if model == "ar":
        u = design.T
        padded_outer = _reversed_padded(u[:, None, :] * u[None, :, :] * weight)
        padded_rhs = _reversed_padded(u * wx)
    elif d > 1:
        by_length = np.cumsum(design[:, :, None] * design[:, None, :], axis=0)
    # A window [t-i, t] is identified when it has more than d charged rows:
    # when i >= d, at the ends t >= first_end.
    first_end = _admissibility(model, order)[1]
    lengths = np.arange(1.0, T + 1.0)

    by_end = np.zeros((T, T))
    rows = max(1, _CELLS // (T * d))
    for t0 in range(1, T + 1, rows):
        t1 = min(t0 + rows - 1, T)
        unidentified = max(0, first_end - t0)  # the block's ends t < first_end
        cost = _cumsum_by_age(padded_wxx, t0, t1)
        if d == 1:  # the design is [1] and every row is charged
            b = _cumsum_by_age(padded_wx, t0, t1)
            b *= b
            b /= lengths[:t1]
            cost -= b
        else:
            if model == "ar":
                gram = _cumsum_by_age(padded_outer, t0, t1)[:, d:]
                rhs = _cumsum_by_age(padded_rhs, t0, t1)[:, d:]
                # the windows past the series start and the ends without
                # an identified window get the system I c = 0, which the
                # solve passes, instead of a singular one
                skip = np.arange(d, t1) >= np.arange(t0, t1 + 1)[:, None]
                skip[:unidentified] = True
                np.copyto(rhs, 0.0, where=skip[..., None])
                np.copyto(gram, np.eye(d), where=skip[..., None, None])
            else:
                # one Gram matrix per length, positive definite past
                # length d, so the windows past the series start solve
                # without the fallback (and are dropped)
                gram = by_length[d:t1]
                xs = _by_age(padded_wx, t0, t1)[:, None, :] * design[:t1].T
                rhs = np.moveaxis(np.cumsum(xs, axis=-1), -1, 1)[:, d:]
            cost[:, d:] -= _dot(rhs, _solve(gram, rhs))
        cost[:, :d] = 0.0
        cost[:unidentified] = 0.0
        np.maximum(cost, 0.0, out=cost)
        _store_by_start(by_end, cost, t0)

    return CostMatrix(by_end=by_end, model_tag=model, order=order)
