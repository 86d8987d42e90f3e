"""Seeded inputs and job lists of the benchmark workloads.

A workload is a tuple of series, each with its true change points, and a
tuple of jobs, each one ``tsseg segment`` invocation on one series.  The
same seed gives the same series and jobs.  ``small=True`` gives toy sizes
for the smoke test; the benchmark itself always runs the full sizes.

The series are drawn here, not by ``tsseg.simgen``, so that a change to the
program's own generator cannot change the benchmark's inputs.  The paper
grid draw below is the one ``tsseg.simgen.generate`` makes: a PCG64 stream
that gives K geometric state durations and then the Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAPER_MEANS = (1.0, -1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class Series:
    values: np.ndarray
    truth: tuple[int, ...]  # true change points 0 = t_0 < ... < t_K = T
    model: str              # cost model of the jobs on this series
    order: int = 0          # AR lag count or polynomial degree

    @property
    def K(self) -> int:
        return len(self.truth) - 1


@dataclass(frozen=True)
class Job:
    series: int             # index into Workload.series
    kind: str               # "dp", "hmm", "dp-select" or "hmm-select"
    args: tuple[str, ...]   # segment options that follow the input path


@dataclass(frozen=True)
class Workload:
    name: str
    series: tuple[Series, ...]
    jobs: tuple[Job, ...]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _cuts(lengths) -> tuple[int, ...]:
    return (0, *np.cumsum(lengths).tolist())


def means_dp_long(seed: int, small: bool = False) -> Workload:
    """Long piecewise-constant series, K = 10, means +-1, one DP job each."""
    T, K, min_len = (400, 10, 20) if small else (4000, 10, 50)
    sigmas = (0.25, 0.5, 1.0)
    n_series = 3 if small else 6
    series = []
    for i in range(n_series):
        rng = _rng(seed, 1, i)
        slack = T - K * min_len
        gaps = np.diff([0, *np.sort(rng.integers(0, slack + 1, K - 1)), slack])
        lengths = min_len + gaps
        means = np.where(np.arange(K) % 2 == 0, 1.0, -1.0)
        sigma = sigmas[i % len(sigmas)]
        values = np.repeat(means, lengths) + sigma * rng.standard_normal(T)
        series.append(Series(values, _cuts(lengths), "means"))
    jobs = tuple(
        Job(i, "dp", ("--algo", "dp", "--cost", "means", "--K", str(K)))
        for i in range(n_series)
    )
    return Workload("means-dp-long", tuple(series), jobs)


def paper_grid(seed: int, small: bool = False) -> Workload:
    """The paper's grid: K = 5, target T x sigma cells, three jobs a series.

    Durations are geometric with mean T/K, so segments of one point occur;
    they are kept, as in the paper.
    """
    K = 5
    lengths = (60,) if small else (200, 500, 1000)
    sigmas = (0.0, 1.0) if small else (0.0, 0.5, 1.0, 2.0)
    # 48 replicates (576 series): with 12, job_s.p90 spread 12 % over five
    # seeds and the one-pass accuracy 2.6 %; with 48, 5-7 % and 1.3 %.
    replicates = 1 if small else 48
    series = []
    for r in range(replicates):
        for ti, target in enumerate(lengths):
            for si, sigma in enumerate(sigmas):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence([seed, 2, ti, si, r])
                ))
                p = 1.0 - K / target  # self-transition giving mean length target
                durations = rng.geometric(1.0 - p, size=K)
                states = np.repeat(np.arange(K), durations)
                values = (
                    np.asarray(PAPER_MEANS)[states]
                    + sigma * rng.standard_normal(states.size)
                )
                series.append(Series(values, _cuts(durations), "means"))
    # DP first: job 0 is the set-up warm-up, and the DP job's time varies
    # least with the series.
    kinds = (
        ("dp", ("--algo", "dp", "--K", str(K))),
        ("hmm", ("--algo", "hmm", "--K", str(K))),
        ("hmm-select", ("--algo", "hmm", "--select-order", "--K-max", "8")),
    )
    jobs = tuple(
        Job(i, kind, args) for i in range(len(series)) for kind, args in kinds
    )
    return Workload("paper-grid", tuple(series), jobs)


def _ar_series(rng: np.random.Generator, regime: int, K: int) -> Series:
    # AR(1) noise, phi = 0.6, around regime means that shift by 1 to 2.
    phi, sd = 0.6, 0.5
    shifts = rng.uniform(1.0, 2.0, K - 1) * np.where(np.arange(K - 1) % 2, -1, 1)
    means = np.concatenate([[0.0], np.cumsum(shifts)])
    T = K * regime
    eps = sd * rng.standard_normal(T)
    e = np.empty(T)
    e[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, T):
        e[t] = phi * e[t - 1] + eps[t]
    values = np.repeat(means, regime) + e
    return Series(values, _cuts([regime] * K), "ar", 2)


def _poly_series(rng: np.random.Generator, regime: int, K: int) -> Series:
    # Piecewise-linear: levels jump by 1 to 2, slopes alternate in sign.
    sign = np.where(np.arange(K) % 2, -1.0, 1.0)
    levels = np.cumsum(rng.uniform(1.0, 2.0, K) * sign)
    slopes = rng.uniform(0.01, 0.03, K) * -sign
    offsets = np.arange(regime)
    values = np.concatenate(
        [levels[k] + slopes[k] * offsets for k in range(K)]
    ) + 0.3 * rng.standard_normal(K * regime)
    return Series(values, _cuts([regime] * K), "poly", 1)


def regression_select(seed: int, small: bool = False) -> Workload:
    """Three 80-point regimes; DP order selection with ar(2) and poly(1).

    Two AR jobs run for every poly job.  With an even mix the median job
    time would fall in the gap between the two kinds and jump with the
    parity of the job count; at 2:1 it falls inside the AR cluster.
    """
    K, regime = 3, (20 if small else 80)
    groups = 1 if small else 6
    series = []
    jobs = []
    ar_args = ("--algo", "dp", "--cost", "ar(2)", "--select-order", "--K-max", "6")
    poly_args = ("--algo", "dp", "--cost", "poly(1)", "--select-order", "--K-max", "6")
    for g in range(groups):
        for j, (make, args) in enumerate(
            ((_ar_series, ar_args), (_ar_series, ar_args), (_poly_series, poly_args))
        ):
            series.append(make(_rng(seed, 3, g, j), regime, K))
            jobs.append(Job(len(series) - 1, "dp-select", args))
    return Workload("regression-select", tuple(series), tuple(jobs))


BUILDERS = {
    "means-dp-long": means_dp_long,
    "paper-grid": paper_grid,
    "regression-select": regression_select,
}
