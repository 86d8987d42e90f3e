"""Toy-size smoke test of the benchmark: every workload, both modes.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from workloads import BUILDERS  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_toy_run_is_correct_and_complete(tmp_path, workload, trace):
    out = run.run(workload, seed=7, seconds=0.2, trace=trace, io_root=tmp_path / "io",
                  trace_dir=tmp_path / "traces", small=True)
    result = out["result"]
    assert result["correct"], out["report"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    assert not (tmp_path / "io").exists()
    assert (tmp_path / "traces").exists() == trace


def test_same_seed_gives_same_inputs():
    for build in BUILDERS.values():
        a, b = build(3, small=True), build(3, small=True)
        assert a.jobs == b.jobs
        for sa, sb in zip(a.series, b.series):
            assert sa.truth == sb.truth and (sa.values == sb.values).all()


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(BUILDERS)
