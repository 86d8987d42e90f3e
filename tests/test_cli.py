import json

import numpy as np
import pytest

from tsseg import (
    Segmentation,
    TimeSeries,
    build_cost_matrix,
    dp_segment,
    poly_cost,
    run_benchmark,
    segment_stats,
)
from tsseg.cli import ingest_csv, main


def ar1_series(seed, levels, n=120, phi=0.6, noise=0.3):
    """AR(1) regimes x_t = c + phi x_{t-1} + e_t, one intercept c per regime."""
    rng = np.random.default_rng(seed)
    out, prev = [], 0.0
    for c in levels:
        for _ in range(n):
            prev = c + phi * prev + noise * rng.standard_normal()
            out.append(prev)
    return np.array(out)


def segment(tmp_path, values, *args):
    csv = tmp_path / "series.csv"
    csv.write_text("".join(f"{float(v)!r}\n" for v in values))
    out = tmp_path / "report.json"
    rc = main(["segment", str(csv), *args, "--json", str(out)])
    assert rc == 0
    return json.loads(out.read_text())


def test_ar_report_cost_is_the_dp_objective(tmp_path):
    values = ar1_series(3, [0.0, 2.0, -1.0])
    report = segment(tmp_path, values, "--algo", "dp", "--cost", "ar(1)", "--K", "3")
    results = dp_segment(build_cost_matrix(TimeSeries(values), "ar", order=1), 3)
    assert report["result"]["change_points"] == list(
        results[2].segmentation.change_points
    )
    assert report["result"]["cost"] == pytest.approx(results[2].cost, rel=1e-6)


@pytest.mark.parametrize("algo", ["dp", "hmm"])
def test_means_report_cost_is_the_segmentation_cost(tmp_path, algo):
    rng = np.random.default_rng(8)
    values = 1e3 + np.repeat([0.0, 3.0, -1.0], 40) + 0.5 * rng.standard_normal(120)
    report = segment(tmp_path, values, "--algo", algo, "--K", "3")
    seg = Segmentation(tuple(report["result"]["change_points"]))
    expected = sum(s.deviation for s in segment_stats(TimeSeries(values), seg))
    assert report["result"]["cost"] == pytest.approx(expected, rel=1e-12)


def test_select_order_reports_order_one(tmp_path):
    values = ar1_series(0, [1.0])
    report = segment(
        tmp_path, values, "--algo", "dp", "--cost", "ar(1)", "--select-order",
        "--K-max", "6",
    )
    assert report["selection"]["chosen_order"] == 1
    assert report["result"]["change_points"] == [0, len(values)]
    assert [a["order"] for a in report["selection"]["attempts"]] == [1]


def run(tmp_path, text, *args):
    csv = tmp_path / "series.csv"
    csv.write_text(text)
    return main(["segment", str(csv), *args])


def two_levels(n=20):
    return "".join(f"{v}\n" for v in [0.0] * n + [5.0] * n)


def test_exit_0_on_success(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run(tmp_path, two_levels(), "--K", "2", "--json", str(out))
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["result"]["change_points"] == [0, 20, 40]
    assert "order 2 segmentation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--K", "2", "--cost", "wavelet"], "bad cost model"),
        (["--K", "2", "--algo", "annealing"], "invalid choice: 'annealing'"),
        (["--algo", "dp"], "--K is required"),
        (["--algo", "hmm"], "--K is required"),
        # hard EM stops exactly, so there is no convergence tolerance to set
        (["--K", "2", "--epsilon", "1e-6"], "unrecognized arguments: --epsilon"),
        (["--algo", "dp", "--K", "2", "--min-seg-len", "0"], "at least 1"),
        # columns are 1-based: 0 and -1 would index from the end of a row
        (["--K", "2", "--value-col", "0"], "--value-col must be at least 1"),
        (["--K", "2", "--value-col", "-1"], "--value-col must be at least 1"),
        (["--K", "2", "--label-col", "0"], "--label-col must be at least 1"),
        # an unbalanced bracket, or an order that means has none of
        (["--K", "2", "--cost", "ar(2"], "bad cost model"),
        (["--K", "2", "--cost", "poly(1"], "bad cost model"),
        (["--K", "2", "--cost", "means(3)"], "bad cost model"),
        (["--K", "2", "--cost", "means:3"], "bad cost model"),
        # checked even where the run does not read them
        (["--algo", "dp", "--K", "2", "--p", "nan"], "--p must lie strictly between"),
        (["--algo", "dp", "--K", "2", "--p", "1"], "--p must lie strictly between"),
        (["--algo", "dp", "--K", "2", "--alpha", "0"],
         "--alpha must lie strictly between"),
    ],
)
def test_exit_1_on_usage_errors(tmp_path, capsys, args, message):
    assert run(tmp_path, two_levels(), *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err


def test_exit_2_on_missing_file(tmp_path, capsys):
    assert main(["segment", str(tmp_path / "absent.csv"), "--K", "2"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_exit_2_on_non_numeric_cell_names_its_line(tmp_path, capsys):
    assert run(tmp_path, "1.0\n2.0\n\n3.0\noops\n4.0\n", "--K", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "series.csv:5:" in err and "'oops'" in err


#: (file text, delimiter, value column, label column, has a header row)
INGEST_FILES = {
    "repr floats": (
        "".join(f"{float(v)!r}\n" for v in np.random.default_rng(7).normal(0, 1e3, 60)),
        ",", 1, None, False,
    ),
    "whitespace": ("  1.5 \n\t2.25\n3e-3  \x0c\n -4 \n", ",", 1, None, False),
    "crlf": ("1.0\r\n2.5\r\n-3.75\r\n", ",", 1, None, False),
    "blank lines": ("\n1.0\n\n  \n2.0\n\n\n3.0", ",", 1, None, False),
    "header": ("year,flow\n1990,0.5\n1991,1.5\n1992,-2.5\n", ",", 2, 1, True),
    "tsv": ("1\t10.5\t7\n2\t11.25\t8\n3\t9.0\t9\n", "\t", 2, 3, False),
    "labels": ("1990, 0.5\r\n1991 ,1.5\r\n\r\n1992,2.5\r\n", ",", 2, 1, False),
}


def parse_rows(raw_lines, delimiter, value_col, label_col, header):
    """The reference parse, one row at a time: values and labels of the
    non-blank rows, less the first one if it is a header."""
    values, labels = [], []
    rows = [line.split(delimiter) for line in raw_lines if line.strip()]
    for cells in rows[header:]:
        values.append(float(cells[value_col - 1].strip()))
        if label_col:
            labels.append(int(float(cells[label_col - 1].strip())))
    return values, labels


@pytest.mark.parametrize("name", list(INGEST_FILES))
def test_ingest_matches_the_row_by_row_parse(tmp_path, name):
    text, delimiter, value_col, label_col, header = INGEST_FILES[name]
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    values, labels = parse_rows(raw_lines, delimiter, value_col, label_col, header)
    x = ingest_csv(str(path), value_col, label_col)
    assert x.values.tobytes() == np.array(values).tobytes()
    if label_col is None:
        assert x.labels is None
    else:
        assert x.labels.tobytes() == np.array(labels).tobytes()


@pytest.mark.parametrize(
    "text, label_col, message",
    [
        ("flow\n1.0\r\n2.0\r\n 1e \r\n", None, "series.csv:4: non-numeric cell '1e'"),
        ("1.0,1990\n2.0\n", 2, "series.csv:2: expected at least 2 columns, found 1"),
        ("1.0,1990\n2.0,oops\n", 2, "series.csv:2: non-numeric cell 'oops'"),
        ("1.0,1990\n2.0,inf\n", 2, "series.csv:2: non-finite label 'inf'"),
        ("1.0,1990\n2.0,nan\n", 2, "series.csv:2: non-finite label 'nan'"),
        ("1.0\n2.0\ninf\n4.0\n", None, "series.csv:3: non-finite value 'inf'"),
        ("1.0,1990.7\n2.0,1991\n3.0,1992\n4.0,1993\n", 2,
         "series.csv:1: non-integer label '1990.7'"),
        ("1.0,1e19\n2.0,2e19\n", 2, "series.csv:1: out-of-range label '1e19'"),
        # a first row too short to be a header is a short row
        ("flow\n1.0,1990\n", 2, "series.csv:1: expected at least 2 columns, found 1"),
        # several bad rows: the first rule that any row breaks is reported,
        # in the order short or non-numeric, value, label, at its first row
        ("1.0,1e19\n2.0,1990.5\n3.0,inf\ninf,1992\n5.0,oops\n", 2,
         "series.csv:5: non-numeric cell 'oops'"),
        ("1.0,1e19\n2.0,1990.5\n3.0,inf\ninf,1992\n", 2,
         "series.csv:4: non-finite value 'inf'"),
        ("1.0,1e19\n2.0,1990.5\n3.0,inf\n", 2, "series.csv:3: non-finite label 'inf'"),
        ("1.0,1e19\n2.0,1990.5\n", 2, "series.csv:2: non-integer label '1990.5'"),
    ],
)
def test_ingest_names_the_line_of_a_bad_cell(tmp_path, text, label_col, message):
    from tsseg.cli import DataError

    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError, match=message):
        ingest_csv(str(path), 1, label_col)


def test_exit_2_on_an_infinite_label_names_its_line(tmp_path, capsys):
    assert run(tmp_path, "1.0,1990\n2.0,inf\n", "--K", "2", "--label-col", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "series.csv:2:" in err and "'inf'" in err


def test_exit_2_on_an_infinite_value_names_its_line(tmp_path, capsys):
    assert run(tmp_path, "1.0\n2.0\ninf\n4.0\n", "--K", "2") == 2
    assert capsys.readouterr().err == (
        "data error: " + str(tmp_path / "series.csv") + ":3: non-finite value 'inf'\n"
    )


def test_the_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    import tsseg.cli

    csv = tmp_path / "series.csv"
    csv.write_text("".join(
        f"{year},{v}\n" for year, v in zip(range(1901, 1941), [0.0] * 20 + [5.0] * 20)
    ))
    calls = [
        ["--algo", "dp", "--select-order", "--K-max", "3", "--value-col", "2"],
        ["--algo", "dp", "--K", "2", "--value-col", "2"],
        ["--algo", "nope", "--K", "2"],
        ["--algo", "dp", "--K", "2", "--value-col", "2"],
        ["--algo", "dp", "--K", "2", "--value-col", "2", "--label-col", "1"],
        ["--algo", "dp", "--K", "2"],
    ]

    def run_all(tag):
        outcomes = []
        for i, args in enumerate(calls):
            out = tmp_path / f"{tag}{i}.json"
            rc = main(["segment", str(csv), *args, "--json", str(out)])
            outcomes.append((rc, out.read_text() if rc == 0 else None))
        return outcomes

    parser = tsseg.cli._parser()
    reused = run_all("reused")
    assert tsseg.cli._parser() is parser
    monkeypatch.setattr(tsseg.cli, "_parser", tsseg.cli.build_parser)
    assert reused == run_all("fresh")

    assert [rc for rc, _ in reused] == [0, 0, 1, 0, 0, 0]
    reports = [json.loads(text) if text else None for _, text in reused]
    assert reports[0]["config"]["select_order"] and reports[0]["config"]["k_max"] == 3
    assert not reports[1]["config"]["select_order"]
    assert reports[1]["config"]["k_max"] is None and "selection" not in reports[1]
    assert reports[4]["input"]["label_column"] == 1
    assert reports[5]["input"] == {
        "path": str(csv), "length": 40, "value_column": 1, "label_column": None,
    }
    # the default column holds the years
    assert reports[5]["result"]["segments"][0]["mean"] >= 1901


def test_exit_3_on_singular_window(tmp_path, capsys, monkeypatch):
    import tsseg.cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular design on window [3, 9]")

    monkeypatch.setattr(tsseg.cli, "build_cost_matrix", singular)
    assert run(tmp_path, two_levels(), "--algo", "dp", "--K", "2") == 3
    assert "numerical failure: singular design on window [3, 9]" in (
        capsys.readouterr().err
    )


def test_header_row_skipped_and_labels_reported(tmp_path):
    years = range(1901, 1941)
    values = [0.0] * 20 + [5.0] * 20
    text = "year,flow\n" + "".join(f"{y},{v}\n" for y, v in zip(years, values))
    out = tmp_path / "report.json"
    rc = run(tmp_path, text, "--value-col", "2", "--label-col", "1",
             "--algo", "dp", "--K", "2", "--json", str(out))
    assert rc == 0
    result = json.loads(out.read_text())["result"]
    assert result["change_points"] == [0, 20, 40]
    # t_0 = 0 maps to the label before the first one
    assert result["change_point_labels"] == [1900, 1920, 1940]
    assert [s["start_label"] for s in result["segments"]] == [1901, 1921]


TOP_KEYS = {"tool", "input", "config", "result"}
RESULT_KEYS = {"order", "change_points", "change_point_labels", "cost", "segments"}
SEGMENT_KEYS = {"index", "start", "end", "length", "mean", "deviation"}
CONFIG_KEYS = {
    "algorithm", "cost_model", "order", "K", "k_max", "select_order", "p",
    "alpha", "min_segment_length",
}


def check_common_keys(report, extra_top=(), extra_result=(), extra_segment=()):
    assert set(report) == TOP_KEYS | set(extra_top)
    assert set(report["tool"]) == {"name", "version"}
    assert set(report["input"]) == {"path", "length", "value_column", "label_column"}
    assert set(report["config"]) == CONFIG_KEYS
    assert set(report["result"]) == RESULT_KEYS | set(extra_result)
    for entry in report["result"]["segments"]:
        assert set(entry) == SEGMENT_KEYS | set(extra_segment)


def test_report_keys_of_a_poly_dp_run(tmp_path):
    values = np.concatenate([np.linspace(0.0, 3.0, 30), np.linspace(5.0, 1.0, 30)])
    values = values + 0.1 * np.random.default_rng(0).standard_normal(60)
    report = segment(tmp_path, values, "--algo", "dp", "--cost", "poly(1)", "--K", "2")
    check_common_keys(report, extra_segment={"coefficients"})
    assert all(len(s["coefficients"]) == 2 for s in report["result"]["segments"])
    dp = dp_segment(build_cost_matrix(TimeSeries(values), "poly", order=1), 2)[1]
    assert report["result"]["change_points"] == list(dp.segmentation.change_points)
    assert report["result"]["cost"] == pytest.approx(dp.cost, rel=1e-9)


def test_poly_hmm_report_cost_is_its_fit(tmp_path):
    # the HMM takes every cost model the DP takes; its report fit and its
    # own cost are the sum of the poly window costs of its segments
    values = np.concatenate([np.linspace(0.0, 3.0, 30), np.linspace(5.0, 1.0, 30)])
    values = values + 0.1 * np.random.default_rng(0).standard_normal(60)
    report = segment(tmp_path, values, "--algo", "hmm", "--cost", "poly(1)", "--K", "2")
    check_common_keys(
        report, extra_top={"iterations"}, extra_result={"converged", "states_used"},
        extra_segment={"coefficients"},
    )
    seg = Segmentation(tuple(report["result"]["change_points"]))
    x = TimeSeries(values)
    exact = sum(poly_cost(x, s, t, 1)[0] for s, t in seg.segments())
    assert report["result"]["cost"] == pytest.approx(exact, rel=1e-9)
    assert report["iterations"][-1]["cost"] == pytest.approx(exact, rel=1e-9)


def test_report_keys_of_an_hmm_run(tmp_path):
    values = np.repeat([0.0, 3.0, -1.0], 20)
    report = segment(tmp_path, values, "--algo", "hmm", "--K", "3")
    check_common_keys(
        report, extra_top={"iterations"}, extra_result={"converged", "states_used"}
    )
    for it in report["iterations"]:
        assert set(it) == {
            "iteration", "log_likelihood", "cost", "states_used", "change_points",
        }


def test_report_keys_of_a_select_order_run(tmp_path):
    values = ar1_series(1, [0.0, 3.0])
    report = segment(
        tmp_path, values, "--algo", "dp", "--cost", "ar(1)", "--select-order",
        "--K-max", "4",
    )
    check_common_keys(report, extra_top={"selection"}, extra_segment={"coefficients"})
    assert set(report["selection"]) == {"chosen_order", "attempts"}
    for attempt in report["selection"]["attempts"]:
        assert set(attempt) == {
            "order", "significant", "statistic", "threshold", "cost", "collapsed",
            "change_points",
        }


def test_report_is_strict_json_with_an_infinite_statistic_as_null(tmp_path):
    # the order-2 split [0, 0 | 5] has no within-segment spread, so its
    # contrast statistic is infinite
    out = tmp_path / "report.json"
    rc = run(tmp_path, "0\n0\n5\n", "--algo", "dp", "--select-order",
             "--K-max", "3", "--json", str(out))
    assert rc == 0

    def no_constants(name):
        raise AssertionError(f"the report holds {name}, which JSON does not allow")

    report = json.loads(out.read_text(), parse_constant=no_constants)
    attempt = report["selection"]["attempts"][0]
    assert attempt["order"] == 2 and attempt["change_points"] == [0, 2, 3]
    assert attempt["statistic"] is None and attempt["threshold"] > 0


@pytest.mark.parametrize(
    "args",
    [
        ("--algo", "dp", "--cost", "ar(2)", "--K", "3"),
        ("--algo", "hmm", "--select-order", "--K-max", "5"),
    ],
    ids=["dp-ar2", "hmm-select"],
)
def test_identical_runs_write_identical_files(tmp_path, args):
    csv = tmp_path / "series.csv"
    csv.write_text(
        "".join(f"{float(v)!r}\n" for v in ar1_series(2, [0.0, 2.0, -1.0], n=40))
    )
    outputs = []
    for run_index in (1, 2):
        json_path = tmp_path / f"report{run_index}.json"
        svg_path = tmp_path / f"plot{run_index}.svg"
        rc = main(["segment", str(csv), *args, "--json", str(json_path),
                   "--svg", str(svg_path)])
        assert rc == 0
        outputs.append((json_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"<svg" in outputs[0][1]


def test_exit_3_on_a_runtime_error(tmp_path, capsys, monkeypatch):
    import tsseg.cli

    def diverged(*args, **kwargs):
        raise RuntimeError("did not converge")

    monkeypatch.setattr(tsseg.cli, "hmm_segment", diverged)
    assert run(tmp_path, two_levels(), "--K", "2") == 3
    assert "numerical failure: did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "algo, cost, model, order", [("dp", "ar(1)", "ar", 1), ("hmm", "means", "means", None)]
)
def test_dump_cost_matrix_is_the_table(tmp_path, algo, cost, model, order):
    # the DP run dumps the table it segmented with; the HMM run builds it
    values = ar1_series(4, [0.0, 2.0], n=15)
    dump = tmp_path / "table.tsv"
    segment(tmp_path, values, "--algo", algo, "--cost", cost, "--K", "2",
            "--dump-cost-matrix", str(dump))
    text = dump.read_text()
    assert text == build_cost_matrix(TimeSeries(values), model, order=order).to_tsv()
    lines = text.splitlines()
    assert len(lines) == len(values)
    assert [len(line.split("\t")) for line in lines] == list(range(1, len(values) + 1))


BENCH_GRID = ("--lengths", "30,40", "--sigmas", "0,0.5", "--replicates", "2")


def without_times(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def test_benchmark_writes_one_csv_row_per_cell(capsys):
    assert main(["benchmark", *BENCH_GRID]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T,sigma,mean_accuracy,mean_time_ms"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["30", "0"], ["30", "0.5"], ["40", "0"], ["40", "0.5"],
    ]
    expected = run_benchmark([30, 40], [0.0, 0.5], 2).to_csv()
    assert without_times("\n".join(lines)) == without_times(expected)


def test_benchmark_csv_option_writes_the_file_and_prints_tables(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["benchmark", *BENCH_GRID, "--algo", "dp", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    expected = run_benchmark([30, 40], [0.0, 0.5], 2, algorithm="dp").to_csv()
    assert without_times(csv.read_text()) == without_times(expected)
    assert out.startswith("sigma\\T") and "\nT_e (ms)" in out
    assert "mean_accuracy" not in out


@pytest.mark.parametrize(
    "args, message",
    [
        (["--lengths", ""], "empty benchmark grid"),
        (["--lengths", "30", "--replicates", "0"], "replicates must be >= 1"),
        (["--lengths", "5"], "expected length must exceed the number of states"),
        (["--lengths", "30", "--sigmas", "nan"], "sigma must be finite"),
        (["--lengths", "30", "--sigmas", "0.5,inf"], "sigma must be finite"),
        (["--lengths", "30", "--seed", "-1"], "--seed must be nonnegative"),
    ],
    ids=["empty-lengths", "no-replicates", "length-at-K", "nan-sigma",
         "infinite-sigma", "negative-seed"],
)
def test_benchmark_exit_1_on_a_bad_grid(capsys, args, message):
    assert main(["benchmark", "--sigmas", "0", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and message in err
