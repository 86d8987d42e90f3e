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
within-segment offset.  :func:`_design` names these rows once.

:func:`build_cost_matrix` fills every table the same way, with anchors at
a = M, 2M, ... (M = ``_M``).  Take the largest anchor a below the end t
(a = 0 when t <= M).  A window [s, t] with s > a lies in the *band*: it
has at most M rows, and its sums are taken over its own rows from t back.
Any other window (s <= a) is the sum of its part [s, a], one cumsum from a
back per anchor, and its part [a+1, t], summed forward from a+1.  So a
short window is never the difference of two long sums, whose cancellation
would lose the digits of a window far from the start of a series.  The
band is computed for all ages below M at every end, and the anchored
windows overwrite it, a tile of ``_M`` ends by ``_CELLS // (_M d)`` starts
(d regressors) at a time.

For means the sums are of x and x^2, and a window costs Q - S^2/n in the
band.  An anchored window is the exact pairwise merge of its two parts
(Chan, Golub and LeVeque 1983, *Am. Stat.* 37(3)):
d[s, t] = d[s, a] + d[a+1, t] + n1 n2 / (n1 + n2) (mean_L - mean_R)^2,
with n1 = a - s + 1 and n2 = t - a, the right part's cost taken from the
band.  The merge adds only nonnegative terms, so no merged window needs a
clamp at 0, and it is five elementwise passes over a tile.

For ar and poly of order >= 1 the sums are of u u', u x and x^2 over the
design rows u.  They solve the Jacobi-scaled normal equations, with no
ridge, by one broadcasting Cholesky solve over the band and over each tile,
and a window's cost is its x^2 sum less c'r, the explained sum of squares
the solve forms anyway; the coefficients themselves are never assembled.
ar's rows are the lag rows everywhere, with the rows that are not charged
set to 0, and as the solve reads only the lower triangle of a Gram matrix,
only that is summed.  poly's band keeps the age design t - u, whose Gram
matrix depends only on the window length and is factored once per length.
Its tiles take the design u - a, which spans the same polynomials: the
Gram matrix is then the Hankel matrix of the 2d - 1 power sums of the
offsets u - a, which depend only on a - s and t - a and are summed once
per table.  The windows whose result is thrown away (flagged ones, and
band windows that a tile overwrites) never reach the solve's
pseudo-inverse.  That is O(T^2 d^2) work for d regressors.

Both segmenters fit a segmentation through :func:`_segment_fits`, on the
same design rows and by the same solve.  Each model also has a
direct evaluator (the slow, obviously-correct form) the tables are checked
against; the ar and poly evaluators raise ``np.linalg.LinAlgError`` on a
window whose design is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import TimeSeries, _freeze

__all__ = [
    "CostMatrix",
    "means_cost_direct",
    "ar_cost_exact",
    "poly_cost",
    "build_cost_matrix",
]

#: Rayleigh quotient below which :func:`_lsq` distrusts a solve (rounding
#: would swamp the residual), and the pseudo-inverse's cutoff relative to
#: the largest eigenvalue.
_RCOND = 1e-8

#: Size of a tile of the table fill, in windows times regressors: large
#: enough that every numpy operation covers many windows, small enough that
#: the solve's working arrays stay near the cache.  A tile is ``_M`` ends by
#: ``_CELLS // (_M d)`` starts for d regressors (1 for means), and the DP
#: fill (:func:`tsseg.dp._run_dp`) takes blocks of min(64, 2 _CELLS / T) ends.
_CELLS = 1 << 16

#: Spacing of the tables' anchors, which is also the width of their band
#: of windows summed over their own rows; see the module docstring.
_M = 32


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
    previous change point.  :attr:`flagged` is the same rule as a mask.
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
    coefficients).  A window whose Gram matrix has a condition number over
    1e12 is singular and raises ``np.linalg.LinAlgError``.

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
        raise np.linalg.LinAlgError(f"singular design on window [{s}, {t}]")
    coef = np.linalg.lstsq(U, w, rcond=None)[0]
    r = w - U @ coef
    return float(r @ r), coef


def poly_cost(
    x: TimeSeries, s: int, t: int, degree: int
) -> tuple[float, np.ndarray]:
    """Least-squares polynomial in the within-segment offset 1..(t-s+1).

    Returns (squared residual, coefficients [a_0, ..., a_degree]).  A
    rank-deficient design raises ``np.linalg.LinAlgError``.
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
        raise np.linalg.LinAlgError(f"singular design on window [{s}, {t}]")
    r = w - design @ coef
    return float(r @ r), coef


# ---------------------------------------------------------------------------
# the least-squares kernel
# ---------------------------------------------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _lsq(
    gram: np.ndarray, rhs: np.ndarray, drop: np.ndarray | None = None
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """The least-squares kernel: solves stacked normal equations gram c = rhs.

    The batch shapes of ``gram`` (..., d, d) and ``rhs`` (..., d) broadcast
    against each other, so one Gram matrix can serve many right-hand sides
    and is factored once for all of them.  Only the lower triangle of
    ``gram`` is read.  Each system is scaled to a unit diagonal (Jacobi)
    and solved by a Cholesky factorisation written entry by entry over the
    whole batch: the Python loops run over d, never over systems.  A system
    the solve cannot be trusted on, because a pivot is not positive (the
    Gram matrix is singular, or rounding made it indefinite) or its scaled
    coefficients lie along a direction the Gram matrix barely spans (a
    Rayleigh quotient under ``_RCOND``), is solved by a pseudo-inverse
    instead: the minimum-norm fit over the directions the Gram matrix
    resolves, which for an exactly singular system still reaches the
    least-squares minimum.  The systems that ``drop`` marks, whose result
    the caller throws away (a flagged window, or a band window that a tile
    overwrites), never take the fallback and may come out NaN.

    Returns the scaled coefficients and the scales, one array per
    regressor (coefficient i is ``c[i] / scale[i]``), and c'r, which is
    rhs . coefficients: the sum of squares the fit explains.
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
    if drop is not None:
        bad &= ~drop
    if bad.any():
        # a single system gives numpy scalars, which cannot be assigned to
        c, cr = [np.asarray(ci) for ci in c], np.asarray(cr)
        s = np.stack([np.broadcast_to(si, bad.shape)[bad] for si in scale], axis=-1)
        g = np.broadcast_to(gram, bad.shape + (d, d))[bad]
        g = np.tril(g) + np.swapaxes(np.tril(g, -1), -1, -2)  # the lower triangle
        g /= s[:, :, None] * s[:, None, :]
        rb = np.stack([np.asarray(ri)[bad] for ri in r], axis=-1)
        pinv = np.linalg.pinv(g, rcond=_RCOND, hermitian=True)
        cb = (pinv @ rb[..., None])[..., 0]
        for i in range(d):
            c[i][bad] = cb[:, i]
        cr[bad] = _dot(cb, rb)
    return c, scale, cr


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of the stacked normal equations
    gram c = rhs, by :func:`_lsq`."""
    c, scale, _ = _lsq(gram, rhs)
    return np.stack(c, axis=-1) / np.stack(scale, axis=-1)


def _design(
    values: np.ndarray, model: str, order: int, time: np.ndarray
) -> tuple[np.ndarray, int]:
    """Design rows of ``model`` at every index of ``values``, and the first
    charged row: [1] for means, :func:`lag_matrix` for ar, whose first
    ``order`` rows (their lags are clamped) are neither fitted nor charged,
    and [1, u, ..., u^order] of ``time`` for poly."""
    if model == "means":
        return np.ones((values.size, 1)), 0
    if model == "ar":
        return lag_matrix(values, order), order
    if model == "poly":
        return np.vander(time, order + 1, increasing=True), 0
    raise ValueError(f"unknown cost model {model!r}")


def _group_fit(
    design: np.ndarray, target: np.ndarray, groups: np.ndarray, n_groups: int
) -> np.ndarray:
    """Least-squares coefficients of ``target`` on ``design``, whose first
    column is the intercept, within each group of rows (``groups`` labels
    rows 0..n_groups-1), by :func:`_solve`, or for the design [1] by the
    closed form, the group mean.

    The target and the other columns are centred on each group's own rows,
    which leaves the slopes to a system without the intercept: a series far
    from zero keeps its precision, and the powers of a short group's time
    offsets stay apart.  A group without rows gets the target's mean.
    """
    centre = target.mean()
    counts = np.bincount(groups, minlength=n_groups)
    if design.shape[1] == 1:  # the design is [1]: the fit is the group mean
        sums = np.bincount(groups, weights=target - centre, minlength=n_groups)
        return (centre + sums / np.maximum(counts, 1))[:, None]
    rows = np.column_stack([target - centre, design[:, 1:]])
    means = np.zeros((n_groups, rows.shape[1]))
    np.add.at(means, groups, rows)
    means /= np.maximum(counts, 1)[:, None]
    rows -= means[groups]
    y, u = rows[:, 0], rows[:, 1:]
    d = u.shape[1]
    gram = np.zeros((n_groups, d, d))
    np.add.at(gram, groups, u[:, :, None] * u[:, None, :])
    rhs = np.zeros((n_groups, d))
    np.add.at(rhs, groups, u * y[:, None])
    slopes = _solve(gram, rhs)
    intercept = centre + means[:, 0] - _dot(slopes, means[:, 1:])
    return np.column_stack([intercept, slopes])


def _segment_fits(
    values: np.ndarray, bounds, model: str, order: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Least-squares fit of ``model`` on each block of a segmentation.

    ``bounds`` holds the K+1 block boundaries 0 = b_0 <= ... <= b_K = T
    (0-based; block k covers [b_k, b_{k+1}) and may be empty).  Returns the
    fitted value at every index, the first charged index (:func:`_design`;
    the fitted values before it are only for display), and the coefficients
    of each block, one row each.  A polynomial is fitted in the within-block
    offset 1..n, as in :func:`poly_cost`.
    """
    bounds = np.asarray(bounds)
    block = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    offset = np.arange(1.0, values.size + 1.0) - bounds[block]
    design, first = _design(values, model, order, offset)
    coefs = _group_fit(design[first:], values[first:], block[first:], bounds.size - 1)
    return np.einsum("ij,ij->i", design, coefs[block]), first, coefs


def _sums_by_age(
    v: np.ndarray, m: int, weight: np.ndarray | None = None
) -> np.ndarray:
    """Sums of the rows u = t, t-1, ..., t-i of ``v`` (time along its last
    axis), added in that order, for the ages i = 0..m-1 (the second-last
    axis) and every end t (the last axis); rows before the start of the
    series add 0.  With ``weight`` (m, ...), row t-i is multiplied by
    ``weight[i]``, broadcast against the leading axes of ``v``, before it
    is added.  One vector add per age: a cumsum along rows this short would
    pay numpy's per-row overhead."""
    padded = np.concatenate([np.zeros(v.shape[:-1] + (m - 1,)), v], axis=-1)
    # rows[i] is v i rows later, padded[..., m-1-i : m-1-i+T], as a view
    step = padded.itemsize
    rows = np.ndarray(
        (m,) + v.shape, padded.dtype, padded, (m - 1) * step, (-step,) + padded.strides
    )
    if weight is not None:
        rows = rows * weight[..., None]
    sums = np.empty(rows.shape)
    sums[0] = rows[0]
    for prev, cur, row in zip(sums, sums[1:], rows[1:]):
        np.add(prev, row, out=cur)
    return sums.swapaxes(0, -2)


def _store_band(by_end: np.ndarray, band: np.ndarray) -> None:
    """Writes ``band[t-1, i]``, the cost of the window [t-i, t], to
    ``by_end[t-1, t-1-i]`` for every end t and age i < min(t, m) (m the
    band's width)."""
    T, m = band.shape
    # a view whose row stride is one element longer than by_end's holds
    # the band's rows m-1.. reversed
    row, col = by_end.strides
    skew = as_strided(by_end[m - 1 :], (T - m + 1, m), (row + col, col))
    skew[...] = band[m - 1 :, ::-1]
    for r in range(m - 1):
        by_end[r, : r + 1] = band[r, r::-1]


def _means_by_end(xc: np.ndarray) -> np.ndarray:
    """The means table of the centred series ``xc``, by window end (the
    band and the anchor merge of the module docstring).

    The band is every window of age i < M at every end, which
    :func:`_sums_by_age` sums; the merge then overwrites the band
    windows that start at or before their end's anchor.  The merged
    windows of one anchor are the rows t = a+1..a+M, columns s = 1..a of
    the table, filled a tile of ``_CELLS // M`` columns at a time.
    """
    T = xc.size
    m = min(_M, T)
    lengths = np.arange(1.0, T + 1.0)
    xx = xc * xc
    sums, band = _sums_by_age(xc, m).T, _sums_by_age(xx, m).T
    # the right part [a+1, t] of each end's merged windows: age (t-1) mod M
    ends = np.arange(T)
    right = ends % _M
    mean_right = sums[ends, right] / lengths[right]
    sums *= sums
    sums /= lengths[:m]
    band -= sums
    band[:, 0] = 0.0
    np.maximum(band, 0.0, out=band)
    cost_right = band[ends, right]

    by_end = np.zeros((T, T))
    _store_band(by_end, band)

    # weight[j, T-n1] = n1 n2 / (n1 + n2) for the right length n2 = j+1
    n1 = lengths[::-1]
    n2 = lengths[:m, None]
    weight = n1 * n2 / (n1 + n2)
    width = max(1, _CELLS // _M)
    tile = np.empty(m * width)
    for a in range(_M, T, _M):
        # the left parts [s, a], s = 1..a, summed from a back
        sum_left, cost_left = np.empty(a), np.empty(a)
        np.cumsum(xc[a - 1 :: -1], out=sum_left[::-1])
        np.cumsum(xx[a - 1 :: -1], out=cost_left[::-1])
        mean_left = sum_left / lengths[a - 1 :: -1]
        cost_left -= sum_left * mean_left
        cost_left[-1] = 0.0
        np.maximum(cost_left, 0.0, out=cost_left)
        rows = slice(a, min(a + _M, T))
        b = rows.stop - a
        for s0 in range(0, a, width):
            s1 = min(s0 + width, a)
            # a contiguous view: numpy passes over a strided one run
            # several times slower
            out = tile[: b * (s1 - s0)].reshape(b, s1 - s0)
            np.subtract(mean_left[s0:s1], mean_right[rows, None], out=out)
            out *= out
            out *= weight[:b, T - a + s0 : T - a + s1]
            out += cost_left[s0:s1]
            np.add(out, cost_right[rows, None], out=by_end[rows, s0:s1])
    return by_end


def _lsq_by_end(
    xc: np.ndarray, model: str, design: np.ndarray, first: int
) -> np.ndarray:
    """The ar or poly table of order >= 1 of the centred series ``xc``, by
    window end (the band and the anchor tiles of the module docstring), from
    the :func:`_design` rows of the model, ar's by the time u and poly's by
    the age t - u, and its first charged row."""
    T, d = design.shape
    m = min(_M, T)
    first_end = _admissibility(model, d - 1)[1]
    lower = np.tril_indices(d)

    # Every stack of sums below holds, along its first axis, ar's lower
    # Gram triangle (poly's Gram matrices are built apart), the right-hand
    # side and x^2.
    def lower_gram(sums: np.ndarray) -> np.ndarray:
        gram = np.empty((d, d) + sums.shape[1:])
        gram[lower] = sums[: lower[0].size]
        return np.moveaxis(gram, (0, 1), (-2, -1))

    def cost(sums: np.ndarray, gram: np.ndarray, drop: np.ndarray) -> np.ndarray:
        explained = _lsq(gram, np.moveaxis(sums[-d - 1 : -1], 0, -1), drop)[2]
        c = sums[-1] - explained
        c[drop] = 0.0
        return np.maximum(c, 0.0, out=c)

    xx = xc * xc
    if model == "ar":
        # the lag rows, 0 on the rows that are not charged
        u = design.T
        terms = np.concatenate([u[lower[0]] * u[lower[1]], u * xc, [xx]])
        terms[:, :first] = 0.0
        sums = _sums_by_age(terms, m)[:, d:]
        gram = lower_gram(sums)
    else:
        # the age design: one Gram matrix per length, positive definite
        # past length d
        rows = design[:m]
        gram = np.cumsum(rows[:, :, None] * rows[:, None, :], axis=0)[d:, None]
        weight = np.column_stack([rows, np.ones(m)])
        sums = _sums_by_age(np.stack([xc] * d + [xx]), m, weight)[:, d:]
        # the tiles' design u - a has power sums that depend only on a - s
        # and t - a: (-v)^k summed over v = 0..a-s and v^k over v = 1..t-a
        left_pow = np.cumsum(np.vander(-np.arange(float(T)), 2 * d - 1, True), 0).T
        right_pow = np.cumsum(np.vander(np.arange(1.0, m + 1.0), 2 * d - 1, True), 0).T

    # The band drops the windows that start at or before their end's anchor
    # (the tiles overwrite them, and past the series start, a = 0, they
    # repeat [1, t]) and the ends before first_end, which have no
    # identified window.
    drop = np.arange(d, m)[:, None] > np.arange(T) % _M
    drop[:, : first_end - 1] = True
    band = np.zeros((m, T))
    band[d:] = cost(sums, gram, drop)
    by_end = np.zeros((T, T))
    _store_band(by_end, band.T)

    width = max(1, _CELLS // (_M * d))
    for a in range(_M, T, _M):
        t0, t1 = max(a + 1, first_end), min(a + _M, T)
        if t0 > t1:
            continue
        if model == "poly":  # the design u - a
            offset = np.vander(np.arange(1.0 - a, t1 - a + 1.0), d, True).T
            terms = np.concatenate([offset * xc[:t1], [xx[:t1]]])
        # the left parts [s, a], s = 1..a, summed from a back, and the right
        # parts [a+1, t], t = t0..t1, summed forward
        left = np.empty((terms.shape[0], a))
        np.cumsum(terms[:, a - 1 :: -1], axis=1, out=left[:, ::-1])
        right = np.cumsum(terms[:, a:t1], axis=1)[:, t0 - a - 1 :]
        for s0 in range(0, a, width):
            s1 = min(s0 + width, a)
            sums = right[:, :, None] + left[:, None, s0:s1]
            if model == "ar":
                gram = lower_gram(sums)
            else:
                # a Hankel matrix: entry (i, j) is the power sum of i + j
                h = right_pow[:, t0 - a - 1 : t1 - a, None]
                h = h + left_pow[:, a - s1 : a - s0][:, None, ::-1]
                power, end, start = h.strides
                gram = as_strided(
                    h, sums.shape[1:] + (d, d), (end, start, power, power),
                    writeable=False,
                )
            # the windows of at most d rows, next to the anchor, are flagged
            drop = np.arange(t0, t1 + 1)[:, None] - np.arange(s0 + 1, s1 + 1) < d
            by_end[t0 - 1 : t1, s0:s1] = cost(sums, gram, drop)
    return by_end


def build_cost_matrix(
    x: TimeSeries, model: str = "means", order: int | None = None
) -> CostMatrix:
    """Cost table of ``model`` in {means, ar, poly}.

    ``order`` is the lag count of ar and the degree of poly.  The windows
    that :class:`CostMatrix`'s rule flags are stored as 0.  Every table takes
    the band-and-anchor fill of the module docstring; ar and poly of order 0
    (design [1]) take the means one, which is their table.
    """
    T = len(x)
    # Centring x (the intercept absorbs it)
    xc = x.values - x.values.mean()
    if model == "means":
        return CostMatrix(by_end=_means_by_end(xc), model_tag=model)
    if order is None:
        raise ValueError(f"cost model {model!r} needs an order")
    if T <= order + 1:
        raise ValueError(f"series of length {T} too short for order {order}")
    design, first = _design(xc, model, order, np.arange(float(T)))
    if design.shape[1] == 1:  # order 0: the design [1] charges every row
        return CostMatrix(by_end=_means_by_end(xc), model_tag=model, order=order)
    by_end = _lsq_by_end(xc, model, design, first)
    return CostMatrix(by_end=by_end, model_tag=model, order=order)
