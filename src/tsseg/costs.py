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
within-segment offset.  One column kernel gives every window ending at t:
sums of u u', u x and x^2 accumulated from t backwards (a short window is
never the difference of two long ones), then one batched solve of the
Jacobi-scaled normal equations, with no ridge; O(T^2 d^2) for d regressors.
:func:`build_cost_matrix` is the only table builder, and the segmenters'
per-segment fits use the same solve.  Each model also has a direct
evaluator (the slow, obviously-correct form) the tables are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TimeSeries, _freeze

__all__ = [
    "CostMatrix",
    "SingularWindowError",
    "means_cost_direct",
    "means_cost_column",
    "ar_cost_exact",
    "poly_cost",
    "build_cost_matrix",
]

#: Rayleigh quotient below which :func:`_solve` distrusts a solve (rounding
#: would swamp the residual), and the pseudo-inverse's cutoff relative to
#: the largest eigenvalue.
_RCOND = 1e-8


class SingularWindowError(Exception):
    """The design matrix of a window [s, t] is singular."""

    def __init__(self, s: int, t: int, message: str | None = None):
        self.window = (s, t)
        super().__init__(message or f"singular design on window [{s}, {t}]")


@dataclass(frozen=True)
class CostMatrix:
    """Triangular table of window costs d[s, t] for 1 <= s <= t <= T.

    Storage is row-major by window end: ``by_end[t-1, s-1]`` holds d[s, t],
    so the dynamic program can read each column d[., t] contiguously.

    ``flagged`` marks under-determined windows (too short to identify the
    model); their stored cost is 0 and segmenters should avoid them unless
    no alternative exists.  ``boundary`` marks windows whose regressors use
    clamped values from before the start of the series (informational).
    """

    by_end: np.ndarray
    model_tag: str
    model_params: dict = field(default_factory=dict)
    flagged: np.ndarray | None = None
    boundary: np.ndarray | None = None

    def __post_init__(self) -> None:
        be = np.asarray(self.by_end, dtype=np.float64)
        if be.ndim != 2 or be.shape[0] != be.shape[1]:
            raise ValueError("cost table must be square")
        object.__setattr__(self, "by_end", _freeze(be))
        for name in ("flagged", "boundary"):
            m = getattr(self, name)
            if m is not None:
                m = np.asarray(m, dtype=bool)
                if m.shape != be.shape:
                    raise ValueError(f"{name} mask must match the cost table shape")
                object.__setattr__(self, name, _freeze(m))

    @property
    def n(self) -> int:
        return int(self.by_end.shape[0])

    @property
    def default_min_segment_length(self) -> int:
        """Shortest window a segmenter should select by default."""
        if self.model_tag == "means":
            return 1
        return int(self.model_params.get("order", 0)) + 2

    def window_cost(self, s: int, t: int) -> float:
        self._check_window(s, t)
        return float(self.by_end[t - 1, s - 1])

    def is_flagged(self, s: int, t: int) -> bool:
        self._check_window(s, t)
        return bool(self.flagged is not None and self.flagged[t - 1, s - 1])

    def column(self, t: int, masked: bool = True) -> np.ndarray:
        """Costs d[s, t] for s = 1..t; flagged windows become +inf if masked."""
        col = self.by_end[t - 1, :t]
        if masked and self.flagged is not None:
            col = np.where(self.flagged[t - 1, :t], np.inf, col)
        return col

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
    """Least-squares autoregression on the window [s, t], via the normal
    equations; returns (squared prediction error, coefficients).

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
        coef = np.linalg.solve(gram, U.T @ w)
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

    Each system is scaled to a unit diagonal (Jacobi) and solved in one
    batched ``np.linalg.solve``.  A system the solve cannot be trusted on,
    because it is singular or its scaled coefficients lie along a direction
    the Gram matrix barely spans (a Rayleigh quotient under ``_RCOND``), is
    solved by a pseudo-inverse instead: the minimum-norm fit over the
    directions the Gram matrix resolves, which for an exactly singular
    system still reaches the least-squares minimum.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    g = gram / (scale[..., :, None] * scale[..., None, :])
    r = rhs / scale
    try:
        c = np.linalg.solve(g, r[..., None])[..., 0]
        bad = ~(_RCOND * _dot(c, c) <= _dot(c, r))  # also catches NaN
    except np.linalg.LinAlgError:
        c = np.empty_like(r)
        bad = np.ones(r.shape[:-1], dtype=bool)
    if bad.any():
        pinv = np.linalg.pinv(g[bad], rcond=_RCOND, hermitian=True)
        c[bad] = (pinv @ r[bad][..., None])[..., 0]
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


class _ColumnKernel:
    """Costs of every window [s, t] ending at a given t, for one series.

    Centring x (the intercept absorbs it), the design rows, their outer
    products and the charged-row weights are worked out once per series.
    ar rows are indexed by the time u; means and poly rows by the age t - u
    (means is the degree-0 polynomial).  A column takes suffix sums over the
    rows u = t, t-1, ..., 1 and one solve for the identified windows; a
    window with at most d charged rows is stored as 0.
    """

    def __init__(self, values: np.ndarray, model: str, order: int):
        x = values - values.mean()
        T = x.size
        weight = np.ones(T)
        if model == "ar":
            design = lag_matrix(x, order)
            weight[:order] = 0.0
        else:
            design = np.vander(np.arange(float(T)), order + 1, increasing=True)
        self.d = design.shape[1]
        self.by_age = model != "ar"
        self.design = design
        self.outer = design[:, :, None] * design[:, None, :] * weight[:, None, None]
        self.wx = weight * x
        self.wxx = self.wx * x
        self.charged = np.concatenate([[0.0], np.cumsum(weight)])
        self.lengths = np.arange(1.0, T + 1.0)

    def column(self, t: int) -> tuple[np.ndarray, int]:
        """Costs d[s, t] for s = 1..t, and the number of under-determined
        windows, which are the last ones (s near t) and are stored as 0."""
        # Sums run over the rows u = t, t-1, ..., 1: entry i is the window
        # [t-i, t], and the result is reversed into s order at the end.
        rows = slice(t - 1, None, -1)
        wx = self.wx[rows]
        cost = np.cumsum(self.wxx[rows])
        lo = t - int(np.searchsorted(self.charged[:t], self.charged[t] - self.d))
        if self.d == 1:  # the design is [1] and every row is charged
            b = np.cumsum(wx)
            cost -= b * b / self.lengths[:t]
        else:
            u = slice(None, t) if self.by_age else rows
            gram = np.cumsum(self.outer[u], axis=0)[lo:]
            rhs = np.cumsum(self.design[u] * wx[:, None], axis=0)[lo:]
            cost[lo:] -= _dot(rhs, _solve(gram, rhs))
        cost[:lo] = 0.0
        np.maximum(cost, 0.0, out=cost)
        return cost[::-1], lo


def means_cost_column(values: np.ndarray, t: int) -> np.ndarray:
    """One column d[s, t], s = 1..t, of the means cost table."""
    values = np.asarray(values, dtype=np.float64)
    return _ColumnKernel(values, "means", 0).column(t)[0]


def build_cost_matrix(
    x: TimeSeries, model: str = "means", order: int | None = None
) -> CostMatrix:
    """Cost table of ``model`` in {means, ar, poly}, one kernel column per t.

    ``order`` is the lag count of ar and the degree of poly.  ar and poly
    tables flag their under-determined windows; ar tables also mark the
    windows that start in the first ``order`` positions as boundary windows.
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
    kernel = _ColumnKernel(x.values, model, order)
    by_end = np.zeros((T, T))
    flagged = None if model == "means" else np.zeros((T, T), dtype=bool)
    for t in range(1, T + 1):
        by_end[t - 1, :t], lo = kernel.column(t)
        if flagged is not None:
            flagged[t - 1, t - lo : t] = True
    boundary = None
    if model == "ar":
        boundary = np.tri(T, dtype=bool)
        boundary[:, order:] = False
    return CostMatrix(
        by_end=by_end,
        model_tag=model,
        model_params={"order": order},
        flagged=flagged,
        boundary=boundary,
    )
