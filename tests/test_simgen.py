import numpy as np
import pytest

from tsseg import (
    BenchTable,
    GenSpec,
    accuracy,
    generate,
    p_for_expected_length,
    run_benchmark,
)


class TestGenerate:
    def test_noiseless_values_are_the_means(self):
        x, _ = generate(GenSpec(K=5, p=0.9, sigma=0.0, seed=0))
        assert set(np.unique(x.values)) <= {1.0, -1.0}
        signs = np.sign(x.values)
        assert int(np.count_nonzero(signs[1:] != signs[:-1])) == 4

    def test_exactly_k_segments_and_nondecreasing(self):
        for seed in range(25):
            x, truth = generate(GenSpec(K=5, p=0.95, sigma=0.7, seed=seed))
            assert truth.order == 5
            assert truth.length == len(x)

    def test_deterministic_given_seed(self):
        a = generate(GenSpec(K=5, p=0.97, sigma=1.0, seed=123))
        b = generate(GenSpec(K=5, p=0.97, sigma=1.0, seed=123))
        assert np.array_equal(a[0].values, b[0].values)
        assert a[1] == b[1]

    def test_expected_length(self):
        lengths = [
            len(generate(GenSpec(K=5, p=0.975, sigma=0.0, seed=s))[0])
            for s in range(1000)
        ]
        mean = float(np.mean(lengths))
        assert abs(mean - 200.0) / 200.0 <= 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(K=3, p=0.9, means=(1.0, -1.0), sigma=0.5, seed=0)
        with pytest.raises(ValueError):
            GenSpec(K=5, p=1.0, sigma=0.5, seed=0)


class TestPForExpectedLength:
    def test_paper_grid_values(self):
        assert p_for_expected_length(200, 5) == pytest.approx(0.975)
        assert p_for_expected_length(500, 5) == pytest.approx(0.99)

    def test_short_series_boundary(self):
        assert p_for_expected_length(5.5, 5) == pytest.approx(1 - 5 / 5.5)
        with pytest.raises(ValueError):
            p_for_expected_length(5, 5)


class TestAccuracy:
    """Paths are given by their state boundaries (0, b_1, ..., T)."""

    def test_identical(self):
        assert accuracy((0, 2, 3, 4), (0, 2, 3, 4)) == 1.0

    def test_half(self):
        # states 1 1 2 2 against 1 1 3 3, whose state 2 is empty
        assert accuracy((0, 2, 4), (0, 2, 2, 4)) == pytest.approx(0.5)

    def test_two_thirds(self):
        assert accuracy((0, 2, 3), (0, 1, 3)) == pytest.approx(2 / 3)

    def test_symmetric(self):
        a, b = (0, 1, 3, 5), (0, 2, 4, 5)
        assert accuracy(a, b) == accuracy(b, a)

    def test_one_iff_identical(self):
        assert accuracy((0, 1, 2, 3), (0, 1, 2, 2, 3)) < 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy((0, 2), (0, 2, 3))

    def test_collapsed_path_is_scored_by_state_index(self):
        # the path skips state 2; scored as the segmentation of the states
        # it uses, (0, 1, 3, 4), it would get 2/4
        assert accuracy((0, 1, 2, 3, 4), (0, 1, 1, 3, 4)) == 0.75
        assert accuracy((0, 1, 2, 3, 4), (0, 1, 3, 4)) == 0.5

    def test_is_the_share_of_equal_state_labels(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            T = int(rng.integers(1, 12))
            a, b = (
                np.concatenate([[0], np.sort(rng.integers(0, T + 1, k)), [T]])
                for k in rng.integers(0, 5, 2)
            )
            labels = [np.repeat(np.arange(len(c) - 1), np.diff(c)) for c in (a, b)]
            assert accuracy(a, b) == np.mean(labels[0] == labels[1])


class TestBenchmark:
    def test_deterministic_with_injected_clock(self):
        kwargs = dict(
            lengths=[100, 200], sigmas=[0.0, 1.0], replicates=3, seed=5,
            clock=lambda: 0.0,
        )
        a = run_benchmark(**kwargs)
        b = run_benchmark(**kwargs)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_csv_shape(self):
        table = run_benchmark([100, 200], [0.0, 1.0], 2, seed=1)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "T,sigma,mean_accuracy,mean_time_ms"
        assert len(lines) == 5

    def test_noiseless_accuracy_is_high(self):
        table = run_benchmark([200], [0.0], 10, seed=2)
        assert table.rows[0].mean_accuracy >= 0.99

    def test_monotone_degradation(self):
        # accuracy decays with noise, up to 2 points of sampling slack
        sigmas = [0.1, 0.5, 1.0, 2.0]
        table = run_benchmark([200], sigmas, 100, seed=3)
        acc = [r.mean_accuracy for r in table.rows]
        for lo, hi in zip(acc[1:], acc[:-1]):
            assert lo <= hi + 0.02

    def test_dp_algorithm_supported(self):
        # The DP is exact, but a generated series can hold a 1-point segment
        # that no segmentation recovers (one missed boundary relabels every
        # later position), so the claim is about the mean over many series.
        table = run_benchmark([80], [0.5], 100, algorithm="dp", seed=4)
        assert table.rows[0].mean_accuracy >= 0.9

    def test_text_tables(self):
        table = run_benchmark([100, 150], [0.0, 0.5], 2, seed=6)
        acc_table = table.format_accuracy_table()
        assert "100" in acc_table and "150" in acc_table
        assert acc_table.count("\n") == 3
        time_table = table.format_time_table()
        assert time_table.startswith("T")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_benchmark([100], [0.5], 0)
        with pytest.raises(ValueError):
            run_benchmark([100], [0.5], 1, algorithm="magic")
