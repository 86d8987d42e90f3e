"""Synthetic series generation and the accuracy/runtime benchmark harness.

Series are drawn from the same left-to-right chain the segmenter assumes:
the path visits states 1..K in order, each state lasting a geometric
number of steps with mean 1/(1-p), and observations are the state mean
plus Gaussian noise.  The expected series length is K/(1-p), which is how
a target length is translated into p.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Segmentation, TimeSeries
from .costs import build_cost_matrix
from .dp import dp_segment
from .hmm import hmm_segment

__all__ = [
    "GenSpec",
    "BenchRow",
    "BenchTable",
    "generate",
    "p_for_expected_length",
    "accuracy",
    "run_benchmark",
]

DEFAULT_MEANS = (1.0, -1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic series."""

    K: int = 5
    p: float = 0.975
    means: tuple[float, ...] = DEFAULT_MEANS
    sigma: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        if len(self.means) != self.K:
            raise ValueError("means must have length K")
        if not 0.0 <= self.sigma < np.inf:  # also rejects NaN
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")


def generate(spec: GenSpec) -> tuple[TimeSeries, Segmentation]:
    """Draw one (series, true segmentation) pair.

    All K state durations are i.i.d. geometric (support 1, 2, ...) with
    success probability 1-p, so the path always contains exactly K
    segments and the expected length is K/(1-p).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    durations = rng.geometric(1.0 - spec.p, size=spec.K)
    levels = np.repeat(np.asarray(spec.means, dtype=np.float64), durations)
    values = levels + spec.sigma * rng.standard_normal(levels.size)
    return TimeSeries(values), Segmentation((0, *np.cumsum(durations).tolist()))


def p_for_expected_length(T: float, K: int) -> float:
    """Self-transition probability giving expected series length T."""
    if T <= K:
        raise ValueError("expected length must exceed the number of states")
    return 1.0 - K / T


def accuracy(bounds, bounds_hat) -> float:
    """Share of time steps that two paths, each given by its state boundaries,
    put in the same state.  States match by index, so empty ones count too."""
    if bounds[-1] != bounds_hat[-1]:
        raise ValueError("paths must cover the same length")
    pairs = zip(bounds, bounds[1:], bounds_hat, bounds_hat[1:])
    same = sum(max(0, min(b1, c1) - max(b0, c0)) for b0, b1, c0, c1 in pairs)
    return float(same / bounds[-1])


@dataclass(frozen=True)
class BenchRow:
    length: int          # target expected length T
    sigma: float
    mean_accuracy: float
    mean_time_ms: float


@dataclass(frozen=True)
class BenchTable:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        lines = ["T,sigma,mean_accuracy,mean_time_ms"]
        for r in self.rows:
            lines.append(
                f"{r.length},{r.sigma:g},{r.mean_accuracy:.4f},{r.mean_time_ms:.3f}"
            )
        return "\n".join(lines) + "\n"

    def format_time_table(self) -> str:
        """Mean segmentation time per target length, averaged over sigmas."""
        lengths = sorted({r.length for r in self.rows})
        header = ["T".ljust(10)] + [str(t).rjust(10) for t in lengths]
        times = []
        for t in lengths:
            cells = [r.mean_time_ms for r in self.rows if r.length == t]
            times.append(sum(cells) / len(cells))
        row = ["T_e (ms)".ljust(10)] + [f"{v:.2f}".rjust(10) for v in times]
        return "".join(header) + "\n" + "".join(row) + "\n"

    def format_accuracy_table(self) -> str:
        """Mean accuracy as a sigma-by-length grid."""
        lengths = sorted({r.length for r in self.rows})
        sigmas = sorted({r.sigma for r in self.rows})
        cell = {(r.length, r.sigma): r.mean_accuracy for r in self.rows}
        lines = ["sigma\\T".ljust(10) + "".join(str(t).rjust(10) for t in lengths)]
        for s in sigmas:
            lines.append(
                f"{s:g}".ljust(10)
                + "".join(f"{cell[(t, s)]:.4f}".rjust(10) for t in lengths)
            )
        return "\n".join(lines) + "\n"


def _derived_seed(seed: int, *key: int) -> int:
    state = np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)
    return int(state[0])


def run_benchmark(
    lengths,
    sigmas,
    replicates: int,
    algorithm: str = "hmm",
    seed: int = 0,
    *,
    clock=time.perf_counter,
) -> BenchTable:
    """Accuracy and runtime over a (target length x sigma) grid.

    For every cell, ``replicates`` series of the default :class:`GenSpec`
    chain are segmented with its true K (no order selection), the HMM at
    its default p.  Timing covers the segmentation phase only.  Replicate
    seeds are derived independently from (seed, cell, replicate), so
    results do not depend on execution order; ``clock`` is injectable so
    the aggregation itself can be tested deterministically.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if algorithm not in ("hmm", "dp"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    K = GenSpec.K
    rows = []
    for ti, T in enumerate(lengths):
        gen_p = p_for_expected_length(float(T), K)
        for si, sigma in enumerate(sigmas):
            accs = np.empty(replicates)
            times = np.empty(replicates)
            for r in range(replicates):
                x, truth = generate(GenSpec(
                    p=gen_p, sigma=float(sigma), seed=_derived_seed(seed, ti, si, r)
                ))
                start = clock()
                if algorithm == "hmm":
                    _, trace = hmm_segment(x, K)
                    bounds = trace.final.bounds
                else:
                    result = dp_segment(build_cost_matrix(x), K)[K - 1]
                    bounds = result.segmentation.change_points
                elapsed = clock() - start
                accs[r] = accuracy(truth.change_points, bounds)
                times[r] = 1000.0 * elapsed
            rows.append(
                BenchRow(
                    length=int(T),
                    sigma=float(sigma),
                    mean_accuracy=float(accs.mean()),
                    mean_time_ms=float(times.mean()),
                )
            )
    return BenchTable(rows=tuple(rows))
