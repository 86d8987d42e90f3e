"""Command-line front end.

Two subcommands:

* ``segment``: read a CSV/TSV series, segment it with either the iterative
  HMM algorithm or the exact dynamic program under any of the cost models
  means, ar(L) and poly(L), and write a JSON report plus optional SVG
  overlay and cost-matrix dump.
* ``benchmark``: run the synthetic accuracy/runtime grid and emit a CSV
  table plus aligned text tables.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
JSON and CSV outputs are deterministic for a fixed configuration and seed
(except for measured wall-clock times in the benchmark CSV, which are real
timings by design).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .core import Segmentation, TimeSeries, segment_stats
from .costs import CostMatrix, _segment_fits, build_cost_matrix
from .dp import dp_segment
from .hmm import EmTrace, hmm_segment
from .selection import (
    SelectionReport,
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
    m = re.fullmatch(r"(ar|poly)(?:\((\d+)\)|:(\d+))?|means", text.strip())
    if not m:
        raise UsageError(
            f"bad cost model {text!r}; expected means, ar(L) or poly(L)"
        )
    tag, order = m.group(1) or "means", m.group(2) or m.group(3)
    return tag, (int(order) if order is not None else (3 if tag == "ar" else 1))


def _row_problem(cells: list[str], wanted: list[int]) -> str | None:
    """Why a split row does not parse: too few cells, or the first of the
    ``wanted`` (1-based) cells that is not a number; None if it parses."""
    if max(wanted) > len(cells):
        return f"expected at least {max(wanted)} columns, found {len(cells)}"
    for column in wanted:
        try:
            float(cells[column - 1])
        except ValueError:
            return f"non-numeric cell {cells[column - 1].strip()!r}"
    return None


def ingest_csv(
    path: str, value_column: int = 1, label_column: int | None = None
) -> TimeSeries:
    """Read a comma- or tab-separated series; columns are 1-based.

    A first row whose selected cells do not all parse as numbers is a
    header and is skipped; a first row too short to hold them is a data
    error.  Every other row is a data error, named by its line number and
    its stripped cell, when it is short or holds a cell that is not a
    number, a value that is not finite, or a label that is not finite, not
    an integer or outside int64.  When a file breaks several of these
    rules, the first rule in that order that any row breaks is reported,
    at the first row that breaks it; a short row and a non-numeric cell
    count as one rule.
    """
    for name, column in (("value", value_column), ("label", label_column)):
        if column is not None and column < 1:
            raise UsageError(f"--{name}-col must be at least 1, got {column}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [line for line in raw_lines if line.strip()]
    if not lines:
        raise DataError(f"{path}: no data rows")
    delimiter = "\t" if "\t" in lines[0] else ","
    wanted = [value_column] + ([label_column] if label_column else [])

    split = [line.split(delimiter) for line in lines]
    first = split[0]
    header = len(first) >= max(wanted) and _row_problem(first, wanted) is not None
    rows = split[header:]

    def bad_row(i: int, problem: str) -> DataError:
        linenos = [n for n, line in enumerate(raw_lines, start=1) if line.strip()]
        return DataError(f"{path}:{linenos[header + i]}: {problem}")

    # float() ignores the whitespace around a cell, so the cells need no strip
    try:
        values = np.array([float(cells[value_column - 1]) for cells in rows])
        labels = np.array(
            [float(cells[label_column - 1]) for cells in rows] if label_column else []
        )
    except (ValueError, IndexError):
        for i, cells in enumerate(rows):
            if problem := _row_problem(cells, wanted):
                raise bad_row(i, problem) from None
        raise
    for problem, column, bad in (
        ("non-finite value", value_column, ~np.isfinite(values)),
        ("non-finite label", label_column, ~np.isfinite(labels)),
        ("non-integer label", label_column, labels != np.round(labels)),
        ("out-of-range label", label_column, np.abs(labels) >= 2.0**63),  # not int64
    ):
        if bad.any():
            i = int(bad.argmax())
            raise bad_row(i, f"{problem} {rows[i][column - 1].strip()!r}")
    if not values.size:
        raise DataError(f"{path}: no numeric rows")
    try:
        return TimeSeries(values, labels.astype(int) if label_column else None)
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
            "states_used": r.segmentation.order,
            "change_points": list(r.segmentation.change_points),
        }
        for r in trace.records
    ]


def _selection_payload(report: SelectionReport) -> dict:
    """The attempts of order selection; a statistic or threshold that is
    not finite (an order with no contrast to test, or an infinite
    contrast) is written as null."""
    def finite(v: float) -> float | None:
        return v if math.isfinite(v) else None

    return {
        "chosen_order": report.chosen_order,
        "attempts": [
            {
                "order": r.order,
                "significant": r.significant,
                "statistic": finite(r.statistic),
                "threshold": finite(r.threshold),
                "cost": r.cost,
                "collapsed": r.collapsed,
                "change_points": list(r.segmentation.change_points),
            }
            for r in report.records
        ],
    }


def cmd_segment(args: argparse.Namespace) -> int:
    """Runs ``segment`` on the arguments :func:`build_parser` parsed."""
    model, order = _parse_cost_model(args.cost)
    for name, value in (("p", args.p), ("alpha", args.alpha)):
        if not 0.0 < value < 1.0:
            raise UsageError(
                f"--{name} must lie strictly between 0 and 1, got {value}"
            )
    x = ingest_csv(args.input, args.value_col, args.label_col)
    if args.K is None and not args.select_order:
        raise UsageError("--K is required unless --select-order is given")

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
        seg, trace = hmm_segment(x, args.K, args.p, model=model, order=order)
    else:
        matrix = build_cost_matrix(x, model, order=order)
        seg = dp_segment(matrix, args.K, args.min_seg_len)[args.K - 1].segmentation
    elapsed_ms = 1000.0 * (time.perf_counter() - started)

    fitted, first, fits = _segment_fits(x.values, seg.change_points, model, order)
    residuals = (x.values - fitted)[first:]
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
        report["result"]["states_used"] = trace.final.segmentation.order
    if selection is not None:
        report["selection"] = _selection_payload(selection)

    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # a fit overflowed: JSON has no inf or nan
        raise RuntimeError(f"a number in the report is not finite: {exc}") from exc

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
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
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
                     help="cost model of either algorithm: means, ar(L) "
                          "(L lags, default 3) or poly(L) (degree L, "
                          "default 1)")
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


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Runs one command line and returns its exit code.

    The parser is built on the first call and reused by every later call
    in the process (building it costs more than a parse); ``parse_args``
    keeps no state between calls.
    """
    try:
        args = _parser().parse_args(argv)
        if args.command == "segment":
            return cmd_segment(args)
        return cmd_benchmark(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
