"""tsseg benchmark: closed-loop ``tsseg segment`` jobs in one process.

Run from the repository root:

    python3 bench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 1

One client, one job at a time: each job is one in-process call to
``tsseg.cli.main(["segment", ...])`` with ``--json`` and ``--svg``
outputs, and the next job starts when it returns.  There are no threads
and no subprocesses.  Inputs are generated from ``--seed`` at set-up and
written as CSV files; the program sees only those files.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
twice, once with layer spans and once without, prints the per-layer
metrics and writes the spans to ``.bench_traces/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from checks import Outcome, check_job, oracle_cost
from probes import CAPTURED, Probes
from workloads import BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "points_per_s": "1/s",
    "accuracy": "share",
}
LAYER_UNITS = {
    "cli.ingest_csv.s": "s",
    "cli.cmd_segment.self_s": "s",
    "costs.build_cost_matrix.s": "s",
    "costs.cells_per_s": "1/s",
    "dp.dp_segment.s": "s",
    "core.segment_stats.s": "s",
    "svg.segmentation_svg.s": "s",
    "trace.overhead_s": "s",
    "peak_rss_mb": "MB",
    "costs.cells": "count",
    "costs.table_bytes": "B",
    "dp.candidates": "count",
    "dp.used_flagged": "count",
    "hmm.iterations": "count",
    "hmm.collapsed": "count",
    "selection.segmenter_calls": "count",
    "selection.orders_tried": "count",
    "selection.residual_fits.calls": "count",
    "svg.bytes": "B",
    "cli.report_cost_mismatch": "count",
}
# Layer times that are 0 on the workloads that never call the layer.  They
# are printed by the traced run but kept out of its JSON line.
PARTIAL_LAYER_TIMES = (
    "costs.means.s", "costs.ar.s", "costs.poly.s", "hmm.hmm_segment.s",
    "hmm.s_per_iter", "selection.select_order.self_s", "selection.tests.s",
    "selection.residual_fits.s",
)


def load_tsseg():
    """Import tsseg afresh from ``src/`` (set-up time includes the import)."""
    for name in [m for m in sys.modules if m == "tsseg" or m.startswith("tsseg.")]:
        del sys.modules[name]
    importlib.import_module("tsseg.cli")
    tsseg = importlib.import_module("tsseg")
    if not Path(tsseg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"tsseg was imported from {tsseg.__file__}, not {SRC}")
    return tsseg


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def work_counts(calls) -> Counter:
    """Exact-repeat work counts of one job, from its captured calls.

    Every cost table a job builds is handed to ``dp_segment``, so the
    table counts are taken from that call; this keeps them identical in
    traced and untraced runs.
    """
    c = Counter()
    for call in calls:
        ns, fn = call.name.split(".", 1)
        if fn == "dp_segment":
            table, k_max = call.args[0], call.args[1]
            min_len = call.args[2] if len(call.args) > 2 else call.kwargs.get(
                "min_segment_length")
            min_len = (table.default_min_segment_length if min_len is None
                       else max(1, int(min_len)))
            n = table.n
            c["costs.cells"] += n * (n + 1) // 2
            c["costs.table_bytes"] += sum(
                a.nbytes for a in (table.by_end, table.flagged, table.boundary)
                if a is not None)
            m = max(0, n - min_len + 1)
            c["dp.candidates"] += k_max * m * (m + 1) // 2
            if any(r.used_flagged for r in call.result):
                c["dp.used_flagged"] += 1
                c["dp.candidates"] += k_max * n * (n + 1) // 2  # permissive pass
        elif fn == "hmm_segment":
            c["hmm.iterations"] += call.result[1].iterations
            c["hmm.collapsed"] += int(call.result[1].collapsed)
        elif fn == "_segment_residuals":
            c["selection.residual_fits.calls"] += 1
        if ns == "selection" and fn in CAPTURED:
            c["selection.segmenter_calls"] += 1
    return c


class Runner:
    """Runs and checks jobs of one workload; keeps every tally of the run."""

    def __init__(self, tsseg, workload, io_dir: Path, tally: dict):
        self.tsseg = tsseg
        self.workload = workload
        self.io_dir = io_dir
        self.tally = tally
        self.probes = Probes({"cli": tsseg.cli, "selection": tsseg.selection})
        self.probes.install(traced=False)
        self.traced = False
        self.stderr = io.StringIO()
        self.series_ts = [tsseg.TimeSeries(s.values) for s in workload.series]
        io_dir.mkdir(parents=True)
        self.inputs = []
        for i, s in enumerate(workload.series):
            path = io_dir / f"series{i:04d}.csv"
            path.write_text("".join(f"{float(v)!r}\n" for v in s.values))
            self.inputs.append(path)

    def run(self, j: int, traced: bool) -> tuple[float, Outcome, Counter]:
        """Run job ``j`` once; return its wall time, outcome and work counts."""
        job = self.workload.jobs[j]
        series = self.workload.series[job.series]
        self.tally["attempted"] += 1
        stem = self.io_dir / f"job{self.tally['attempted']:07d}"
        argv = ["segment", str(self.inputs[job.series]), *job.args,
                "--json", f"{stem}.json", "--svg", f"{stem}.svg"]
        if traced != self.traced:
            self.probes.install(traced)
            self.traced = traced
        self.probes.start_job(self.tally["attempted"], traced,
                              {"job": j, "kind": job.kind})
        with contextlib.redirect_stderr(self.stderr):
            start = time.perf_counter()
            try:
                rc = self.tsseg.cli.main(argv)
            except Exception:  # the loop goes on; the job counts as failed
                rc = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        self.probes.end_job(start, start + elapsed)
        outcome = check_job(self.tsseg, job, series, self.series_ts[job.series], rc,
                            f"{stem}.json", f"{stem}.svg", self.probes.calls)
        digests = self.tally["svg"]
        if outcome.svg_digest:
            if digests.setdefault(j, outcome.svg_digest) != outcome.svg_digest:
                outcome.errors.append("SVG differs from an earlier run of the job")
        if outcome.errors:
            self.tally["failed"] += 1
            err = self.stderr.getvalue().strip()
            self.tally["errors"].append(
                f"job {j} ({' '.join(job.args)}): {'; '.join(outcome.errors)}"
                + (f" [stderr: {err}]" if err else ""))
        self.stderr.seek(0)
        self.stderr.truncate()
        counts = work_counts(self.probes.calls)
        self.probes.calls = []  # drop the job's cost table before the next job
        return elapsed, outcome, counts


def quality(runner: Runner, outcomes: dict[int, Outcome]) -> dict:
    """Quality scores over one pass of the job list (first occurrence each)."""
    wl = runner.workload
    by_kind: dict[str, list] = {}
    for j, o in outcomes.items():
        by_kind.setdefault(wl.jobs[j].kind, []).append((j, o))

    def mean(values):
        values = [v for v in values if not math.isnan(v)]
        return sum(values) / len(values) if values else None

    q = {
        "accuracy": mean([o.accuracy_true_k for o in outcomes.values()]),
        "accuracy.hmm": mean([o.accuracy for _, o in by_kind.get("hmm", [])]),
        "accuracy.dp": mean([o.accuracy for _, o in by_kind.get("dp", [])]),
    }
    dp_cost = {wl.jobs[j].series: o.dp_cost for j, o in by_kind.get("dp", [])}
    gaps = []
    for j, o in by_kind.get("hmm", []):
        s = wl.jobs[j].series
        if s in dp_cost and o.change_points:
            x = runner.series_ts[s]
            d_hmm = oracle_cost(runner.tsseg.costs, x, o.change_points, "means", 0)
            total = runner.tsseg.costs.means_cost_direct(x, 1, len(x))
            gaps.append((d_hmm - dp_cost[s]) / total)
    q["hmm_cost_gap"] = mean(gaps)
    selects = [(j, o) for j, o in outcomes.items() if wl.jobs[j].kind.endswith("-select")]
    q["order_hit_rate"] = (
        sum(o.order == wl.series[wl.jobs[j].series].K for j, o in selects) / len(selects)
        if selects else None)
    return q


def layer_metrics(spans, n_jobs: int) -> dict:
    """Mean seconds per traced job for each layer, from the spans."""
    child = Counter()
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    total, own, cells, iters = Counter(), Counter(), 0, 0
    for s in spans:
        dur = s.end - s.start
        fn = s.name.split(".", 1)[-1]
        total[fn] += dur
        own[fn] += dur - child[s.id]
        if fn == "build_cost_matrix" and s.attrs:
            total["costs." + s.attrs["model"]] += dur
            cells += s.attrs["cells"]
        elif fn == "hmm_segment" and s.attrs:
            iters += s.attrs["iterations"]
    per_job = {
        "cli.ingest_csv.s": total["ingest_csv"],
        "cli.cmd_segment.self_s": own["cmd_segment"],
        "costs.build_cost_matrix.s": total["build_cost_matrix"],
        "costs.means.s": total["costs.means"],
        "costs.ar.s": total["costs.ar"],
        "costs.poly.s": total["costs.poly"],
        "dp.dp_segment.s": total["dp_segment"],
        "hmm.hmm_segment.s": total["hmm_segment"],
        "selection.select_order.self_s": own["select_order"],
        "selection.tests.s": total["scheffe_significant"] + total["residual_whiteness"],
        "selection.residual_fits.s": total["_segment_residuals"],
        "core.segment_stats.s": total["segment_stats"],
        "svg.segmentation_svg.s": total["segmentation_svg"],
    }
    out = {k: v / n_jobs for k, v in per_job.items()}
    out["costs.cells_per_s"] = cells / total["build_cost_matrix"]
    out["hmm.s_per_iter"] = total["hmm_segment"] / iters if iters else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, io_root: Path,
        trace_dir: Path = ROOT / ".bench_traces", small: bool = False) -> dict:
    """One benchmark run; returns the result line and the report to print."""
    run_dir = io_root / f"{workload}-seed{seed}-{os.getpid()}"
    tally = {"attempted": 0, "failed": 0, "errors": [], "svg": {}}
    setup_times = []
    try:
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            tsseg = load_tsseg()
            wl = BUILDERS[workload](seed, small)
            runner = Runner(tsseg, wl, run_dir / f"setup{rep}", tally)
            runner.run(0, traced=False)  # warm-up
            setup_times.append(time.perf_counter() - start)

        n = len(wl.jobs)
        first: dict[int, Outcome] = {}
        counts = Counter()
        times = {False: [], True: []}
        points = 0
        visit = 0
        deadline = time.perf_counter() + seconds
        while visit < n or time.perf_counter() < deadline:
            j = visit % n
            # Traced runs time each visit both ways, alternating which goes first.
            modes = ((True, False) if visit % 2 == 0 else (False, True)) if trace else (False,)
            for traced in modes:
                elapsed, outcome, job_counts = runner.run(j, traced)
                times[traced].append(elapsed)
                if traced == trace and j not in first:
                    first[j] = outcome
                    counts += job_counts
                    counts["selection.orders_tried"] += outcome.orders_tried
                    counts["svg.bytes"] += outcome.svg_bytes
                    counts["cli.report_cost_mismatch"] += int(outcome.cost_mismatch)
            if not trace:
                points += len(wl.series[wl.jobs[j].series].values)
            visit += 1
        runner.probes.restore()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        plain = times[False]
        q = quality(runner, first)
        report = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "io_dir": str(run_dir), "jobs_timed": len(plain), "jobs_traced": len(times[True]),
            "passes": visit / n, "job_list": n, "peak_rss_mb": peak_mb,
            "conditions": {
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_threads": blas_threads(),
                "seed": seed,
            },
            "counts_per_pass": {
                k: counts[k] for k in LAYER_UNITS
                if LAYER_UNITS[k] in ("count", "B")
                # only traced runs see the residual fits
                and (trace or k != "selection.residual_fits.calls")},
            "quality": q,
            "fail_rate": tally["failed"] / tally["attempted"],
            "errors": tally["errors"][:10],
        }
        if trace:
            spans = [s for s in runner.probes.spans if s.name != "job"]
            layers = layer_metrics(spans, len(times[True]))
            layers["trace.overhead_s"] = (statistics.median(times[True])
                                          - statistics.median(plain))
            layers["peak_rss_mb"] = peak_mb
            report["layers"] = layers
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{workload}-seed{seed}.jsonl"
            with open(trace_path, "w", encoding="utf-8") as fh:
                for s in runner.probes.spans:
                    fh.write(json.dumps({"job": s.job, "id": s.id, "parent": s.parent,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         "attrs": s.attrs}) + "\n")
            report["spans_file"] = str(trace_path)
            metrics = {k: layers[k] if k in layers else counts[k] for k in LAYER_UNITS}
            units = LAYER_UNITS
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "job_s.p50": statistics.median(plain),
                "job_s.p90": statistics.quantiles(plain, n=10, method="inclusive")[8],
                "points_per_s": points / sum(plain),
                "accuracy": q["accuracy"],
            }
            units = E2E_UNITS
        result = {
            "correct": tally["failed"] == 0 and len(first) == n,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return {"result": result, "report": report}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            io_root.rmdir()  # only if no other run is using it


def format_report(report: dict, result: dict) -> str:
    lines = [
        f"tsseg benchmark: workload {report['workload']}, seed {report['seed']}, "
        f"trace {report['trace']}",
        f"io dir {report['io_dir']} (removed after the run)",
        "conditions " + " ".join(f"{k}={v}" for k, v in report["conditions"].items()),
        f"jobs: {report['jobs_timed']} untraced, {report['jobs_traced']} traced, "
        f"{report['passes']:.2f} passes over {report['job_list']} jobs; "
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"fail_rate {report['fail_rate']:.4g}",
        f"peak RSS of the process {report['peak_rss_mb']:.1f} MB",
    ]
    lines.append("metrics:")
    for k, m in result["metrics"].items():
        lines.append(f"  {k:32s} {m['value']:.6g} {m['unit']}")
    lines.append("quality over one pass (n/a: the workload has no such job):")
    for k, v in report["quality"].items():
        lines.append(f"  {k:32s} " + ("n/a" if v is None else f"{v:.6g} share"))
    if "layers" in report:
        lines.append("layer times that only some workloads exercise (s per traced job):")
        for k in PARTIAL_LAYER_TIMES:
            lines.append(f"  {k:32s} {report['layers'][k]:.6g} s")
        lines.append(f"spans written to {report['spans_file']}")
    else:
        lines.append("work counts per pass (exact repeat for a seed):")
        for k, v in report["counts_per_pass"].items():
            lines.append(f"  {k:32s} {v}")
    for e in report["errors"]:
        lines.append(f"FAILED {e}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--io-dir", type=Path, default=ROOT / ".bench_io",
                        help="where inputs and job outputs go; a RAM-backed "
                             "directory such as /dev/shm keeps disk latency "
                             "out of the job times")
    args = parser.parse_args(argv)
    if not (SRC / "tsseg" / "__init__.py").is_file():
        print(f"tsseg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.io_dir)
    print(format_report(out["report"], out["result"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
