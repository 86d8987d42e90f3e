"""Command-line front end.

Two subcommands:

* ``segment``: read a CSV/TSV series, segment it with either the iterative
  HMM algorithm or the exact dynamic program, and write a JSON report plus
  optional SVG overlay and cost-matrix dump.
* ``benchmark``: run the synthetic accuracy/runtime grid and emit a CSV
  table plus aligned text tables.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
JSON and CSV outputs are deterministic for a fixed configuration and seed
(except for measured wall-clock times in the benchmark CSV, which are real
timings by design).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from . import __version__
from .core import Segmentation, TimeSeries, segment_stats
from .costs import CostMatrix, SingularWindowError, build_cost_matrix
from .dp import dp_segment
from .hmm import EmTrace, hmm_segment
from .selection import (
    SelectionReport,
    _segment_fits,
    _segment_residuals,  # noqa: F401  bench/probes.py wraps the name here
    select_order,
)
from .simgen import run_benchmark
from .svg import segmentation_svg

__all__ = ["ingest_csv", "cmd_segment", "cmd_benchmark", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _parse_cost_model(text: str) -> tuple[str, int]:
    """(model, order) from means, ar(L) or poly(L); L defaults to 3 for ar
    and to 1 otherwise."""
    m = re.fullmatch(r"(means|ar|poly)(?:[:(](\d+)\)?)?", text.strip())
    if not m:
        raise UsageError(
            f"bad cost model {text!r}; expected means, ar(L) or poly(L)"
        )
    tag, order = m.group(1), m.group(2)
    return tag, (int(order) if order is not None else (3 if tag == "ar" else 1))


def ingest_csv(
    path: str, value_column: int = 1, label_column: int | None = None
) -> TimeSeries:
    """Read a comma- or tab-separated series; columns are 1-based.

    A single leading row whose selected cells do not parse as numbers is
    treated as a header and skipped.  Any other non-numeric cell is a data
    error reported with its line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [
        (lineno, line.rstrip("\n"))
        for lineno, line in enumerate(raw_lines, start=1)
        if line.strip()
    ]
    if not rows:
        raise DataError(f"{path}: no data rows")
    delimiter = "\t" if "\t" in rows[0][1] else ","

    values: list[float] = []
    labels: list[int] = []
    for pos, (lineno, line) in enumerate(rows):
        cells = [c.strip() for c in line.split(delimiter)]
        wanted = [value_column] + ([label_column] if label_column else [])
        if max(wanted) > len(cells):
            raise DataError(
                f"{path}:{lineno}: expected at least {max(wanted)} columns, "
                f"found {len(cells)}"
            )
        try:
            value = float(cells[value_column - 1])
            label = float(cells[label_column - 1]) if label_column else None
        except ValueError:
            if pos == 0:
                continue  # header row
            raise DataError(
                f"{path}:{lineno}: non-numeric cell "
                f"{cells[value_column - 1]!r}"
            ) from None
        values.append(value)
        if label is not None:
            labels.append(int(label))
    if not values:
        raise DataError(f"{path}: no numeric rows")
    try:
        return TimeSeries(
            np.array(values), np.array(labels) if label_column else None
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _label_for(x: TimeSeries, cp: int) -> int | None:
    """Report label for a change point: the label of x_{t_k}; the leading
    change point t_0 = 0 maps to (first label - 1)."""
    if x.labels is None:
        return None
    if cp == 0:
        return int(x.labels[0]) - 1
    return int(x.labels[cp - 1])


def _segment_payload(
    x: TimeSeries, seg: Segmentation, model: str, fits: np.ndarray
) -> list[dict]:
    """One entry per segment; ar and poly entries carry the segment's row
    of ``fits``, the coefficients from :func:`_segment_fits`."""
    payload = []
    stats = segment_stats(x, seg)
    coefs: list[list[float]] | None = None
    if model in ("ar", "poly"):
        coefs = [[float(c) for c in coef] for coef in fits]
    for k, ((start, end), st) in enumerate(zip(seg.segments(), stats), start=1):
        entry = {
            "index": k,
            "start": start,
            "end": end,
            "length": st.length,
            "mean": st.mean,
            "deviation": st.deviation,
        }
        if x.labels is not None:
            entry["start_label"] = int(x.labels[start - 1])
            entry["end_label"] = int(x.labels[end - 1])
        if coefs is not None:
            entry["coefficients"] = coefs[k - 1]
        payload.append(entry)
    return payload


def _trace_payload(trace: EmTrace) -> list[dict]:
    return [
        {
            "iteration": r.iteration,
            "log_likelihood": r.log_likelihood,
            "cost": r.cost,
            "states_used": r.states_used,
            "change_points": list(r.segmentation.change_points),
        }
        for r in trace.records
    ]


def _selection_payload(report: SelectionReport) -> dict:
    return {
        "chosen_order": report.chosen_order,
        "attempts": [
            {
                "order": r.order,
                "significant": r.significant,
                "statistic": r.statistic,
                "threshold": r.threshold,
                "cost": r.cost,
                "collapsed": r.collapsed,
                "change_points": list(r.segmentation.change_points),
            }
            for r in report.records
        ],
    }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def cmd_segment(args: argparse.Namespace) -> int:
    """Runs ``segment`` on the arguments :func:`build_parser` parsed."""
    model, order = _parse_cost_model(args.cost)
    x = ingest_csv(args.input, args.value_col, args.label_col)
    if args.algo not in ("hmm", "dp"):
        raise UsageError(f"unknown algorithm {args.algo!r}")
    if args.algo == "hmm" and model == "poly":
        raise UsageError(
            "cost model poly is only available with --algo dp "
            "(the HMM has no polynomial emission model)"
        )

    started = time.perf_counter()
    trace: EmTrace | None = None
    selection: SelectionReport | None = None
    matrix: CostMatrix | None = None

    if args.select_order:
        selection = select_order(
            x,
            args.algo,
            model,
            order=order,
            p=args.p,
            alpha=args.alpha,
            k_max=args.k_max,
            min_segment_length=args.min_seg_len,
        )
        chosen = selection.chosen_order
        if chosen == 1:
            seg = Segmentation((0, len(x)))
        else:
            seg = next(
                r.segmentation for r in selection.records if r.order == chosen
            )
    elif args.algo == "hmm":
        if args.K is None:
            raise UsageError("--K is required unless --select-order is given")
        seg, trace = hmm_segment(x, args.K, args.p, model=model, order=order)
    else:
        if args.K is None:
            raise UsageError("--K is required unless --select-order is given")
        matrix = build_cost_matrix(x, model, order=order)
        seg = dp_segment(matrix, args.K, args.min_seg_len)[args.K - 1].segmentation
    elapsed_ms = 1000.0 * (time.perf_counter() - started)

    fitted, charged, fits = _segment_fits(x, seg, model, order)
    residuals = (x.values - fitted)[charged]
    cost = float(residuals @ residuals)

    report = {
        "tool": {"name": "tsseg", "version": __version__},
        "input": {
            "path": args.input,
            "length": len(x),
            "value_column": args.value_col,
            "label_column": args.label_col,
        },
        "config": {
            "algorithm": args.algo,
            "cost_model": model,
            "order": order if model != "means" else None,
            "K": args.K,
            "k_max": args.k_max if args.select_order else None,
            "select_order": args.select_order,
            "p": args.p,
            "alpha": args.alpha,
            "min_segment_length": args.min_seg_len,
        },
        "result": {
            "order": seg.order,
            "change_points": list(seg.change_points),
            "change_point_labels": (
                [_label_for(x, cp) for cp in seg.change_points]
                if x.labels is not None
                else None
            ),
            "cost": cost,
            "segments": _segment_payload(x, seg, model, fits),
        },
    }
    if trace is not None:
        report["iterations"] = _trace_payload(trace)
        report["result"]["converged"] = trace.converged
        report["result"]["states_used"] = trace.final.states_used
    if selection is not None:
        report["selection"] = _selection_payload(selection)

    text = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(
                segmentation_svg(
                    x, seg, fitted=fitted,
                    title=f"{args.algo}/{model} order {seg.order}",
                )
            )
    if args.dump_cost_matrix:
        if matrix is None:
            matrix = build_cost_matrix(x, model, order=order)
        with open(args.dump_cost_matrix, "w", encoding="utf-8") as fh:
            fh.write(matrix.to_tsv())

    boundaries = ", ".join(str(cp) for cp in seg.change_points)
    print(
        f"order {seg.order} segmentation, cost {cost:.6g}, "
        f"change points [{boundaries}] ({elapsed_ms:.1f} ms)",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_benchmark(args: argparse.Namespace) -> int:
    lengths = [int(v) for v in args.lengths.split(",") if v]
    sigmas = [float(v) for v in args.sigmas.split(",") if v]
    if not lengths or not sigmas:
        raise UsageError("empty benchmark grid")
    table = run_benchmark(
        lengths,
        sigmas,
        args.replicates,
        algorithm=args.algo,
        seed=args.seed,
    )
    csv_text = table.to_csv()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        sys.stdout.write(table.format_accuracy_table())
        sys.stdout.write("\n")
        sys.stdout.write(table.format_time_table())
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a series from a CSV/TSV file")
    seg.add_argument("input", help="path to the input file")
    seg.add_argument("--value-col", type=int, default=1,
                     help="1-based column of the values (default 1)")
    seg.add_argument("--label-col", type=int, default=None,
                     help="1-based column of integer labels such as years")
    seg.add_argument("--algo", choices=("hmm", "dp"), default="hmm")
    seg.add_argument("--cost", default="means",
                     help="cost model: means, ar(L) or poly(L)")
    seg.add_argument("--K", type=int, default=None,
                     help="number of segments (fixed-order run)")
    seg.add_argument("--K-max", type=int, default=10, dest="k_max",
                     help="largest order to try with --select-order")
    seg.add_argument("--select-order", action="store_true",
                     help="pick the order by significance testing")
    seg.add_argument("--p", type=float, default=0.9,
                     help="self-transition probability (default 0.9)")
    seg.add_argument("--alpha", type=float, default=0.05,
                     help="significance level (default 0.05)")
    seg.add_argument("--min-seg-len", type=int, default=None,
                     dest="min_seg_len",
                     help="minimum segment length, at least 1 (--algo dp "
                          "only; the HMM ignores it)")
    seg.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON report here instead of stdout")
    seg.add_argument("--svg", default=None, metavar="PATH",
                     help="write an SVG overlay of the segmentation")
    seg.add_argument("--dump-cost-matrix", default=None, metavar="PATH",
                     help="write the cost matrix as tab-separated text")

    bench = sub.add_parser("benchmark", help="synthetic accuracy/runtime grid")
    bench.add_argument("--lengths", default="200,250,500,750,1000,1250,1500",
                       help="comma-separated target lengths")
    bench.add_argument(
        "--sigmas",
        default="0.0,0.1,0.2,0.3,0.5,0.75,1.0,1.25,1.5,1.75,2.0",
        help="comma-separated noise levels",
    )
    bench.add_argument("--replicates", type=int, default=20)
    bench.add_argument("--algo", choices=("hmm", "dp"), default="hmm")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--csv", default=None, metavar="PATH",
                       help="write the CSV here (and print text tables); "
                            "otherwise the CSV goes to stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "segment":
            return cmd_segment(args)
        return cmd_benchmark(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SingularWindowError, np.linalg.LinAlgError, FloatingPointError,
            RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
