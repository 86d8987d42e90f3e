"""Synthetic series generation and the accuracy/runtime benchmark harness.

Series are drawn from the same left-to-right chain the segmenter assumes:
the path visits states 1..K in order, each state lasting a geometric
number of steps with mean 1/(1-p), and observations are the state mean
plus Gaussian noise.  The expected series length is K/(1-p), which is how
a target length is translated into p.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import StateSequence, TimeSeries, states_from_segmentation
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
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")


def generate(spec: GenSpec) -> tuple[TimeSeries, StateSequence]:
    """Draw one (series, true state path) pair.

    All K state durations are i.i.d. geometric (support 1, 2, ...) with
    success probability 1-p, so the path always contains exactly K
    segments and the expected length is K/(1-p).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    durations = rng.geometric(1.0 - spec.p, size=spec.K)
    states = np.repeat(np.arange(1, spec.K + 1), durations)
    means = np.asarray(spec.means)
    values = means[states - 1] + spec.sigma * rng.standard_normal(states.size)
    return TimeSeries(values), StateSequence(states)


def p_for_expected_length(T: float, K: int) -> float:
    """Self-transition probability giving expected series length T."""
    if T <= K:
        raise ValueError("expected length must exceed the number of states")
    return 1.0 - K / T


def accuracy(z: StateSequence, z_hat: StateSequence) -> float:
    """Fraction of positions where the two state sequences agree."""
    if len(z) != len(z_hat):
        raise ValueError("state sequences must have the same length")
    return float(np.mean(z.states == z_hat.states))


@dataclass(frozen=True)
class BenchRow:
    length: int          # target expected length T
    sigma: float
    mean_accuracy: float
    mean_time_ms: float


@dataclass(frozen=True)
class BenchTable:
    rows: tuple[BenchRow, ...]
    replicates: int
    algorithm: str

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
    K: int = 5,
    means: tuple[float, ...] = DEFAULT_MEANS,
    segment_p: float = 0.9,
    epsilon: float = 1e-9,
    clock=time.perf_counter,
) -> BenchTable:
    """Accuracy and runtime over a (target length x sigma) grid.

    For every cell, ``replicates`` series are generated and segmented with
    the true K (no order selection).  Timing covers the segmentation phase
    only.  Replicate seeds are derived independently from (seed, cell,
    replicate), so results do not depend on execution order; ``clock`` is
    injectable so the aggregation itself can be tested deterministically.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if algorithm not in ("hmm", "dp"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    rows = []
    for ti, T in enumerate(lengths):
        gen_p = p_for_expected_length(float(T), K)
        for si, sigma in enumerate(sigmas):
            accs = np.empty(replicates)
            times = np.empty(replicates)
            for r in range(replicates):
                x, z_true = generate(
                    GenSpec(K=K, p=gen_p, means=means, sigma=float(sigma),
                            seed=_derived_seed(seed, ti, si, r))
                )
                start = clock()
                if algorithm == "hmm":
                    _, trace = hmm_segment(x, K, segment_p, epsilon=epsilon)
                    z_hat = trace.final_states
                else:
                    matrix = build_cost_matrix(x)
                    result = dp_segment(matrix, K)[K - 1]
                    z_hat = states_from_segmentation(result.segmentation)
                elapsed = clock() - start
                accs[r] = accuracy(z_true, z_hat)
                times[r] = 1000.0 * elapsed
            rows.append(
                BenchRow(
                    length=int(T),
                    sigma=float(sigma),
                    mean_accuracy=float(accs.mean()),
                    mean_time_ms=float(times.mean()),
                )
            )
    return BenchTable(rows=tuple(rows), replicates=replicates, algorithm=algorithm)
