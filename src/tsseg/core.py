"""Domain types and direct segment statistics.

Conventions used throughout the package: a series x has observations
x_1..x_T (1-based in documentation and reports, 0-based in arrays), and a
segmentation of order K is a sequence of change points

    0 = t_0 < t_1 < ... < t_K = T

where segment k covers the indices [t_{k-1}+1, t_k].  State sequences map
one-to-one onto segmentations: segment k is the stretch where the state
sequence takes its k-th distinct value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "Segmentation",
    "SegmentStats",
    "StateSequence",
    "segmentation_from_states",
    "states_from_segmentation",
    "segment_stats",
    "segmentation_cost",
    "global_sigma",
]

#: Floor substituted for a zero standard deviation before dividing by it.
SIGMA_FLOOR = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeries:
    """A univariate series of finite real observations.

    ``labels`` optionally attaches one integer tag per observation (for
    instance calendar years); labels must be strictly increasing.
    """

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if values.size < 1:
            raise ValueError("time series must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("time series values must be finite")
        object.__setattr__(self, "values", _freeze(values))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if labels.size != values.size:
                raise ValueError("labels must have the same length as values")
            if labels.size > 1 and not np.all(np.diff(labels) > 0):
                raise ValueError("labels must be strictly increasing")
            object.__setattr__(self, "labels", _freeze(labels))

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Segmentation:
    """Change points (t_0, ..., t_K) with t_0 = 0 and t_K = T."""

    change_points: tuple[int, ...]

    def __post_init__(self) -> None:
        cps = tuple(int(t) for t in self.change_points)
        if len(cps) < 2:
            raise ValueError("a segmentation needs at least (0, T)")
        if cps[0] != 0:
            raise ValueError("first change point must be 0")
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("change points must be strictly increasing")
        object.__setattr__(self, "change_points", cps)

    @property
    def order(self) -> int:
        """Number of segments K."""
        return len(self.change_points) - 1

    @property
    def length(self) -> int:
        """Total series length T covered by this segmentation."""
        return self.change_points[-1]

    def segments(self) -> list[tuple[int, int]]:
        """1-based inclusive (start, end) pairs, segment k = [t_{k-1}+1, t_k]."""
        cps = self.change_points
        return [(a + 1, b) for a, b in zip(cps, cps[1:])]


@dataclass(frozen=True)
class SegmentStats:
    """Per-segment sample mean, squared deviation around it, and length."""

    mean: float
    deviation: float
    length: int


@dataclass(frozen=True)
class StateSequence:
    """A nondecreasing sequence of positive integer states z_1..z_T."""

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64).reshape(-1)
        if states.size < 1:
            raise ValueError("state sequence must be nonempty")
        if states.min() < 1:
            raise ValueError("states must be >= 1")
        if np.any(np.diff(states) < 0):
            raise ValueError("state sequence must be nondecreasing")
        object.__setattr__(self, "states", _freeze(states))

    def __len__(self) -> int:
        return int(self.states.size)

    @property
    def states_used(self) -> int:
        return int(np.unique(self.states).size)


def segmentation_from_states(z: StateSequence) -> Segmentation:
    """Change points of ``z``: every index where the state value switches.

    The order of the result equals the number of distinct states in ``z``.
    """
    s = z.states
    switches = np.nonzero(s[1:] != s[:-1])[0] + 1
    return Segmentation((0, *switches.tolist(), len(s)))


def states_from_segmentation(t: Segmentation) -> StateSequence:
    """Inverse of :func:`segmentation_from_states`: segment k gets state k."""
    lengths = np.diff(t.change_points)
    return StateSequence(np.repeat(np.arange(1, t.order + 1), lengths))


def _check_compatible(x: TimeSeries, t: Segmentation) -> None:
    if t.length != len(x):
        raise ValueError(
            f"segmentation covers {t.length} points, series has {len(x)}"
        )


def segment_stats(x: TimeSeries, t: Segmentation) -> list[SegmentStats]:
    """Mean, squared deviation and length of every segment of ``x`` under ``t``.

    The deviation is computed two-pass (mean first, then squared residuals)
    to avoid the cancellation of the single-pass variance formula.
    """
    _check_compatible(x, t)
    out = []
    for start, end in t.segments():
        w = x.values[start - 1 : end]
        mu = float(w.mean())
        r = w - mu
        out.append(SegmentStats(mean=mu, deviation=float(r @ r), length=len(w)))
    return out


def segmentation_cost(x: TimeSeries, t: Segmentation) -> float:
    """Total within-segment squared deviation D_K = sum of segment deviations."""
    return float(sum(s.deviation for s in segment_stats(x, t)))


def global_sigma(x: TimeSeries) -> float:
    """Segmentation-independent deviation estimate around the global mean.

    Returns sqrt(sum((x_t - mean)^2) / (T - 1)).  A constant series yields
    0.0; callers that divide by sigma must substitute a floor such as
    :data:`SIGMA_FLOOR` first.
    """
    if len(x) < 2:
        raise ValueError("global sigma needs at least two observations")
    r = x.values - x.values.mean()
    return float(np.sqrt((r @ r) / (len(x) - 1)))
