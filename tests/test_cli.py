import json

import numpy as np
import pytest

from tsseg import (
    Segmentation,
    TimeSeries,
    build_cost_matrix,
    dp_segment,
    segmentation_cost,
)
from tsseg.cli import main


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
    expected = segmentation_cost(TimeSeries(values), seg)
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
        (["--K", "2", "--algo", "hmm", "--cost", "poly(1)"], "only available with --algo dp"),
        (["--algo", "dp"], "--K is required"),
        (["--algo", "hmm"], "--K is required"),
        # hard EM stops exactly, so there is no convergence tolerance to set
        (["--K", "2", "--epsilon", "1e-6"], "unrecognized arguments: --epsilon"),
        (["--algo", "dp", "--K", "2", "--min-seg-len", "0"], "at least 1"),
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


def test_exit_3_on_singular_window(tmp_path, capsys, monkeypatch):
    import tsseg.cli
    from tsseg import SingularWindowError

    def singular(*args, **kwargs):
        raise SingularWindowError(3, 9)

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
