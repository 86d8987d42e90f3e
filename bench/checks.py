"""Output checks and quality scores of one benchmark job.

A job fails on a nonzero exit code or on any check below:

* the JSON report parses and carries the ``result``, ``config`` and
  ``input`` keys, and its change points form a valid segmentation of T;
* a repeated job writes a byte-identical SVG;
* for a DP job, the change points re-scored with the direct oracles
  (``means_cost_direct``, ``ar_cost_exact``, ``poly_cost``) sum to the DP
  objective, and the DP objective at the true order is no larger than the
  cost of the true segmentation, both within ``RTOL``.

Known defects are counted, not failed: a report whose ``result.cost``
differs from the DP objective is a ``report_cost_mismatch``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

#: Relative tolerance of cost comparisons.  The AR table is built by
#: recursive least squares seeded with a ridge delta of 1e-6, so it agrees
#: with the exact fit to O(1e-6) relative; the other models to rounding.
RTOL = 1e-6


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def oracle_cost(costs_module, x, change_points, model: str, order: int) -> float:
    """Sum of the direct window costs over the segments of ``change_points``."""
    total = 0.0
    for a, b in zip(change_points, change_points[1:]):
        if model == "means":
            total += costs_module.means_cost_direct(x, a + 1, b)
        elif model == "ar":
            total += costs_module.ar_cost_exact(x, a + 1, b, order)[0]
        else:
            total += costs_module.poly_cost(x, a + 1, b, order)[0]
    return total


def state_accuracy(truth, change_points) -> float:
    """Share of positions whose segment index matches the true one."""
    true_states = np.repeat(np.arange(len(truth) - 1), np.diff(truth))
    states = np.repeat(np.arange(len(change_points) - 1), np.diff(change_points))
    return float(np.mean(true_states == states))


@dataclass
class Outcome:
    """What the checks found for one job run."""

    errors: list[str] = field(default_factory=list)
    order: int = 0
    change_points: tuple[int, ...] = ()
    accuracy: float = math.nan
    accuracy_true_k: float = math.nan  # of the segmentation at the true K
    report_cost: float = math.nan
    dp_cost: float = math.nan       # DP objective at the reported order
    cost_mismatch: bool = False
    svg_digest: str = ""
    svg_bytes: int = 0
    orders_tried: int = 0


def check_job(tsseg, job, series, x, rc, json_path, svg_path, calls) -> Outcome:
    """Check one job's exit code, report, SVG and, for DP jobs, its cost.

    ``x`` is the series as a ``tsseg`` TimeSeries; ``calls`` are the
    segmenter calls captured while the job ran.
    """
    out = Outcome()
    if rc != 0:
        out.errors.append(f"exit code {rc}")
        return out
    try:
        with open(json_path, encoding="utf-8") as fh:
            report = json.load(fh)
        with open(svg_path, "rb") as fh:
            svg = fh.read()
    except (OSError, ValueError) as exc:
        out.errors.append(f"unreadable output: {exc}")
        return out
    missing = [k for k in ("result", "config", "input") if k not in report]
    if missing:
        out.errors.append(f"report lacks {missing}")
        return out
    out.svg_digest = hashlib.sha256(svg).hexdigest()
    out.svg_bytes = len(svg)
    out.orders_tried = len(report.get("selection", {}).get("attempts", []))
    cps = tuple(report["result"].get("change_points") or ())
    T = len(series.values)
    if len(cps) < 2 or cps[0] != 0 or cps[-1] != T or any(
        b <= a for a, b in zip(cps, cps[1:])
    ):
        out.errors.append(f"invalid change points {cps}")
        return out
    out.change_points = cps
    out.order = len(cps) - 1
    out.accuracy = state_accuracy(series.truth, cps)
    if not job.kind.endswith("-select"):
        out.accuracy_true_k = out.accuracy
    out.report_cost = float(report["result"]["cost"])
    if job.kind.startswith("dp"):
        _check_dp(tsseg, job, series, x, out, calls)
    return out


def _check_dp(tsseg, job, series, x, out: Outcome, calls) -> None:
    dp_calls = [c for c in calls if c.name.endswith(".dp_segment")]
    if len(dp_calls) != 1:
        out.errors.append(f"expected one dp_segment call, saw {len(dp_calls)}")
        return
    results = dp_calls[0].result
    if len(results) < out.order:
        out.errors.append(f"DP returned {len(results)} orders, job reports {out.order}")
        return
    chosen = results[out.order - 1]
    if tuple(chosen.segmentation.change_points) != out.change_points:
        out.errors.append("report change points differ from the DP's")
        return
    out.dp_cost = chosen.cost
    out.cost_mismatch = not close(out.report_cost, chosen.cost)
    rescored = oracle_cost(tsseg.costs, x, out.change_points, series.model, series.order)
    if not close(rescored, chosen.cost):
        out.errors.append(f"oracle cost {rescored!r} != DP objective {chosen.cost!r}")
    if len(results) >= series.K:
        truth_cost = oracle_cost(tsseg.costs, x, series.truth, series.model, series.order)
        best = results[series.K - 1].cost
        if job.kind == "dp-select":
            out.accuracy_true_k = state_accuracy(
                series.truth, results[series.K - 1].segmentation.change_points)
        if best > truth_cost and not close(best, truth_cost):
            out.errors.append(
                f"DP objective {best!r} at K={series.K} exceeds the truth's {truth_cost!r}"
            )
