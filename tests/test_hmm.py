import math
from dataclasses import dataclass

import numpy as np
import pytest

from tsseg import (
    GenSpec,
    Segmentation,
    TimeSeries,
    build_cost_matrix,
    dp_segment,
    generate,
    hmm_segment,
    segment_stats,
)
from tsseg.costs import ar_cost_exact, poly_cost
from tsseg.hmm import _decode


# ---------------------------------------------------------------------------
# oracles: the means HMM written out term by term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HmmParams:
    """Parameters (K, p, per-state means, shared sigma)."""

    K: int
    p: float
    means: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        means = np.asarray(self.means, dtype=np.float64).reshape(-1)
        if means.size != self.K:
            raise ValueError("means must have length K")
        object.__setattr__(self, "means", means)
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


def transition_matrix(K, p):
    """K x K matrix with p on the diagonal, 1-p above it, absorbing last row."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    P = np.zeros((K, K))
    for k in range(K - 1):
        P[k, k] = p
        P[k, k + 1] = 1.0 - p
    P[K - 1, K - 1] = 1.0
    return P


def transition_neg_log_likelihood(states, K, p):
    # Path starts from the implicit state 1 before the first observation.
    path = np.concatenate([[1], states])
    steps = path[1:] - path[:-1]
    if np.any((steps < 0) | (steps > 1)) or path.max() > K:
        return math.inf
    transitions = int(np.count_nonzero(steps))
    # Self-transitions out of the absorbing last state cost nothing.
    stays = int(np.count_nonzero((steps == 0) & (path[:-1] < K)))
    return -(stays * math.log(p) + transitions * math.log(1.0 - p))


def joint_neg_log_likelihood(states, x, params):
    """Negative log of the joint likelihood of a state path (1-based labels)
    and the series: -log P over the path's transitions (starting from state
    1) plus (x_t - mean[z_t])^2 / (2 sigma^2); +inf for a forbidden
    transition."""
    states = np.asarray(states)
    if len(states) != len(x):
        raise ValueError("state sequence and series must have the same length")
    if states.max() > params.K:
        raise ValueError("state sequence uses states beyond K")
    trans = transition_neg_log_likelihood(states, params.K, params.p)
    if math.isinf(trans):
        return math.inf
    dev = x.values - params.means[states - 1]
    return trans + float(dev @ dev) / (2.0 * params.sigma**2)


def bounds_to_states(bounds):
    """0-based state of every time step of the path with these boundaries."""
    return np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))


def viterbi(x, params):
    """Most likely state path (1-based) and its joint log-likelihood."""
    dev = x.values[:, None] - params.means[None, :]
    bounds, loglik = _decode(-(dev * dev) / (2.0 * params.sigma**2), params.p)
    return bounds_to_states(bounds) + 1, loglik


def enumerate_paths(T, K):
    """All state paths reachable from the implicit start state 1: the first
    state is 1 or 2 and each step stays or moves up by one, capped at K."""
    paths = [[1], [2]] if K >= 2 else [[1]]
    for _ in range(T - 1):
        paths = [
            p + [n]
            for p in paths
            for n in ([p[-1], p[-1] + 1] if p[-1] < K else [p[-1]])
        ]
    return [p for p in paths if len(p) == T]


def product_form_likelihood(states, x, params):
    """Independent oracle: multiply transition entries and unnormalized
    Gaussian factors directly."""
    P = transition_matrix(params.K, params.p)
    prob = 1.0
    prev = 1
    for t, k in enumerate(states, start=1):
        prob *= P[prev - 1, k - 1]
        prob *= math.exp(
            -((x.values[t - 1] - params.means[k - 1]) ** 2)
            / (2 * params.sigma**2)
        )
        prev = k
    return prob


def time_major_decode(log_emissions, p):
    """Reference Viterbi: one iteration per time step over the K-vector of
    scores, with back pointers; entering wins ties, then the lowest state."""
    T, K = log_emissions.shape
    log_stay = np.full(K, math.log(p))
    log_stay[K - 1] = 0.0
    log_next = math.log(1.0 - p)
    idx = np.arange(K)
    q = np.full(K, -np.inf)
    q[0] = 0.0
    back = np.empty((T + 1, K), dtype=np.int32)
    enter = np.empty(K)
    for t in range(1, T + 1):
        enter[0] = -np.inf
        enter[1:] = q[:-1] + log_next
        stay = q + log_stay
        take_enter = enter >= stay
        back[t] = np.where(take_enter, idx - 1, idx)
        q = np.where(take_enter, enter, stay) + log_emissions[t - 1]
    last = int(np.argmax(q))
    states = np.empty(T, dtype=np.int64)
    states[T - 1] = last
    for t in range(T, 1, -1):
        states[t - 2] = back[t, states[t - 1]]
    return states, float(q[last])


def path_log_likelihood(log_emissions, states, p):
    """Joint log-likelihood of a 0-based path, summed exactly (math.fsum)."""
    T, K = log_emissions.shape
    path = np.concatenate([[0], states])
    steps = np.diff(path)
    assert np.all((steps == 0) | (steps == 1)) and path.max() < K
    stays = int(np.count_nonzero((steps == 0) & (path[:-1] < K - 1)))
    moves = int(np.count_nonzero(steps))
    return math.fsum(
        [*log_emissions[np.arange(T), states], stays * math.log(p),
         moves * math.log(1.0 - p)]
    )


class TestTransitionMatrix:
    def test_structure_k2(self):
        P = transition_matrix(2, 0.9)
        assert P == pytest.approx(np.array([[0.9, 0.1], [0.0, 1.0]]))
        assert P[1, 0] == 0.0 and P[1, 1] == 1.0

    def test_single_state(self):
        assert transition_matrix(1, 0.3).tolist() == [[1.0]]

    def test_rows_sum_to_one(self):
        P = transition_matrix(3, 0.5)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert P[0, 1] == P[1, 2] == 0.5
        assert P[0, 2] == P[1, 0] == P[2, 0] == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            transition_matrix(2, p)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            transition_matrix(0, 0.9)


class TestJointLikelihood:
    def test_single_state_reduces_to_deviations(self):
        x = TimeSeries([1.0, 2.0, 3.0])
        params = HmmParams(1, 0.9, [2.0], 1.0)
        z = [1, 1, 1]
        expected = (1.0 + 0.0 + 1.0) / 2.0
        assert joint_neg_log_likelihood(z, x, params) == pytest.approx(expected)

    def test_pure_transition_terms(self):
        x = TimeSeries([0.0, 0.0])
        params = HmmParams(2, 0.9, [0.0, 5.0], 1.0)
        z = [1, 1]
        assert joint_neg_log_likelihood(z, x, params) == pytest.approx(
            -2 * math.log(0.9)
        )

    def test_forbidden_transition_is_infinite(self):
        x = TimeSeries([0.0, 0.0])
        params = HmmParams(3, 0.9, [0.0, 1.0, 2.0], 1.0)
        assert joint_neg_log_likelihood([1, 3], x, params) == math.inf

    def test_matches_product_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            T = int(rng.integers(2, 7))
            K = int(rng.integers(1, 4))
            x = TimeSeries(rng.normal(0, 2, T))
            params = HmmParams(K, 0.85, rng.normal(0, 2, K), 1.3)
            for states in enumerate_paths(T, K):
                nll = joint_neg_log_likelihood(states, x, params)
                oracle = product_form_likelihood(states, x, params)
                assert math.exp(-nll) == pytest.approx(oracle, rel=1e-12)

    def test_transition_count_on_full_order_paths(self):
        # a path with K segments starting in state 1 makes K-1 up-steps,
        # so on those paths the transition part is a constant
        x = TimeSeries(np.zeros(6))
        params = HmmParams(3, 0.9, [0.0, 0.0, 0.0], 1.0)
        c = -(3 * math.log(0.9) + 2 * math.log(0.1))
        for states in ([1, 1, 2, 2, 3, 3], [1, 2, 2, 2, 3, 3], [1, 1, 1, 2, 3, 3]):
            # stays in state 3 are free (absorbing row), hence 3 paid stays
            nll = joint_neg_log_likelihood(states, x, params)
            assert nll == pytest.approx(c)


class TestViterbi:
    def test_obvious_split(self):
        x = TimeSeries([0.0, 0.0, 10.0, 10.0])
        z, _ = viterbi(x, HmmParams(2, 0.9, [0.0, 10.0], 1.0))
        assert z.tolist() == [1, 1, 2, 2]

    def test_single_state(self):
        x = TimeSeries([5.0, -1.0, 3.0])
        z, loglik = viterbi(x, HmmParams(1, 0.9, [0.0], 2.0))
        assert z.tolist() == [1, 1, 1]

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            T = int(rng.integers(2, 13))
            K = int(rng.integers(1, 4))
            x = TimeSeries(rng.normal(0, 1.5, T))
            params = HmmParams(K, 0.88, rng.normal(0, 1.5, K), 0.9)
            z, loglik = viterbi(x, params)
            best = max(
                -joint_neg_log_likelihood(p, x, params)
                for p in enumerate_paths(T, K)
            )
            assert loglik == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_reported_value_matches_backtracked_path(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            T = int(rng.integers(3, 40))
            K = int(rng.integers(2, 5))
            x = TimeSeries(rng.normal(0, 1, T))
            params = HmmParams(K, 0.9, rng.normal(0, 1, K), 1.1)
            z, loglik = viterbi(x, params)
            assert -joint_neg_log_likelihood(z, x, params) == pytest.approx(
                loglik, rel=1e-9, abs=1e-9
            )

    def test_tie_break_prefers_low_states(self):
        # p = 0.5 with equal means produces exact score ties between the
        # non-absorbing states; the lowest state index must win
        x = TimeSeries([0.0, 0.0])
        z, _ = viterbi(x, HmmParams(3, 0.5, [0.0, 0.0, 0.0], 1.0))
        assert z.tolist() == [1, 1]

    def test_absorbing_state_stays_are_free(self):
        # reaching the last state early is strictly better with equal means,
        # because self-transitions there cost nothing
        x = TimeSeries([1.0, 1.0, 1.0])
        z, loglik = viterbi(x, HmmParams(2, 0.5, [1.0, 1.0], 1.0))
        assert z.tolist() == [2, 2, 2]
        assert loglik == pytest.approx(math.log(0.5))


class TestStateMajorDecode:
    """The state-major decoder against the time-major reference loop."""

    def test_matches_time_major_reference(self):
        rng = np.random.default_rng(2024)
        for case in range(20_000):
            T = int(rng.integers(1, 81))
            K = int(rng.integers(1, 7))
            p = float(rng.choice([0.5, 0.88, 0.9, 0.99]))
            log_em = -rng.exponential(2.0, (T, K))
            if case % 4 == 0:
                # coarse emissions make exact ties between paths common
                log_em = np.round(log_em)
            bounds, loglik = _decode(log_em, p)
            states = bounds_to_states(bounds)
            ref_states, ref_loglik = time_major_decode(log_em, p)
            assert loglik == pytest.approx(ref_loglik, rel=1e-9, abs=1e-12)
            assert path_log_likelihood(log_em, states, p) == pytest.approx(
                ref_loglik, rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("layout", ["wrong-states-everywhere", "late-states"])
    def test_extreme_emission_scales(self, layout):
        # Wrong-state emissions up to 1e21 in size: a scan over cumulative
        # emission sums would lose the O(1) stay and emission terms next to
        # them.  The decoded path must never score worse than the reference's.
        rng = np.random.default_rng(7 if layout == "late-states" else 8)
        for _ in range(1000):
            T = int(rng.integers(2, 81))
            K = int(rng.integers(2, 7))
            p = float(rng.choice([0.5, 0.88, 0.9, 0.99]))
            scale = 10.0 ** rng.uniform(10, 21)
            log_em = -rng.exponential(1.0, (T, K))
            if layout == "late-states":
                # only state 1 fits before the cut; after it all states compete
                cut = int(rng.integers(1, T))
                log_em[:cut, 1:] *= scale
            else:
                truth = np.sort(rng.integers(0, K, T))
                wrong = np.arange(K)[None, :] != truth[:, None]
                log_em[wrong] *= scale
            states = bounds_to_states(_decode(log_em, p)[0])
            ref_states, _ = time_major_decode(log_em, p)
            ours = path_log_likelihood(log_em, states, p)
            ref = path_log_likelihood(log_em, ref_states, p)
            assert ours >= ref - 1e-9 * abs(ref)


class TestHmmSegment:
    def test_clean_split_converges_fast(self):
        x = TimeSeries([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        seg, trace = hmm_segment(x, 2, 0.9)
        assert seg.change_points == (0, 3, 6)
        assert trace.iterations <= 2
        assert trace.converged

    def test_constant_series_collapses_or_splits_freely(self):
        x = TimeSeries([3.0] * 12)
        seg, trace = hmm_segment(x, 2, 0.9)
        assert trace.collapsed or trace.final.cost == pytest.approx(0.0)

    def test_monotone_likelihood_and_cost(self):
        # Hard EM never lowers the joint likelihood.  The squared-deviation
        # cost alone is not monotone: stays in the absorbing last state are
        # free, so on paths that keep all K states a longer last segment
        # lowers the transition term, and the cost may rise by as much.  A
        # rise in cost therefore always comes with a longer last segment.
        rng = np.random.default_rng(501)
        for i in range(40):
            spec = GenSpec(K=5, p=0.97, sigma=1.0, seed=int(rng.integers(2**32)))
            x, _ = generate(spec)
            if len(x) < 5:
                continue
            seg, trace = hmm_segment(x, 5, 0.9)
            if any(r.segmentation.order < 5 for r in trace.records):
                continue
            lls = [r.log_likelihood for r in trace.records]
            costs = [r.cost for r in trace.records]
            last = [
                r.segmentation.change_points[-1] - r.segmentation.change_points[-2]
                for r in trace.records
            ]
            assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
            for i in range(1, len(costs)):
                if last[i] <= last[i - 1]:
                    assert costs[i] <= costs[i - 1] + 1e-9

    def test_cost_identity_with_recorded_params(self):
        # the recorded cost is both the segmentation cost and the squared
        # deviation around the recorded per-state means
        spec = GenSpec(K=4, p=0.95, means=(0, 3, -3, 6), sigma=0.8, seed=9)
        x, _ = generate(spec)
        seg, trace = hmm_segment(x, 4, 0.9)
        for rec in trace.records:
            direct = sum(s.deviation for s in segment_stats(x, rec.segmentation))
            assert rec.cost == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_means_params_are_the_state_sample_means(self):
        # a means run is the order-0 least-squares model: every record's
        # first coefficient is the sample mean of each state on its path
        rng = np.random.default_rng(77)
        for _ in range(10):
            spec = GenSpec(K=5, p=0.97, sigma=1.0, seed=int(rng.integers(2**32)))
            x, _ = generate(spec)
            if len(x) < 5:
                continue
            _, trace = hmm_segment(x, 5, 0.9)
            for rec in trace.records:
                z = bounds_to_states(rec.bounds)
                counts = np.bincount(z, minlength=5)
                sums = np.bincount(z, weights=x.values, minlength=5)
                used = counts > 0
                assert rec.params.shape == (5, 1)
                np.testing.assert_allclose(
                    rec.params[used, 0], sums[used] / counts[used], rtol=1e-12
                )

    def test_p_insensitivity(self):
        # typical decoded paths barely move across p in [0.85, 0.95]; rare
        # fixtures with a near-invisible tiny segment can relabel every
        # later state, so the guarantee is about the median fixture
        from itertools import combinations

        agreements = []
        for seed in range(20):
            x, _ = generate(GenSpec(K=5, p=0.975, sigma=0.25, seed=seed))
            decoded = {}
            for p in (0.85, 0.90, 0.95):
                _, trace = hmm_segment(x, 5, p)
                decoded[p] = bounds_to_states(trace.final.bounds)
            for a, b in combinations((0.85, 0.90, 0.95), 2):
                agreements.append(float(np.mean(decoded[a] == decoded[b])))
        assert np.median(agreements) >= 0.95

    def test_collapse_reported_not_raised(self):
        # K far above the number of real regimes often loses states
        x = TimeSeries(np.concatenate([np.zeros(6), np.full(6, 8.0)]))
        seg, trace = hmm_segment(x, 6, 0.9)
        assert seg.order == np.count_nonzero(np.diff(trace.final.bounds))
        assert trace.collapsed == (seg.order < 6)

    def test_parameter_validation(self):
        x = TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            hmm_segment(x, 1, 0.9)
        with pytest.raises(ValueError):
            hmm_segment(x, 4, 0.9)
        with pytest.raises(ValueError):
            hmm_segment(x, 2, 1.0)
        with pytest.raises(ValueError):
            hmm_segment(x, 2, 0.9, model="wavelet")

    def test_ar_model_segments_switching_dynamics(self):
        rng = np.random.default_rng(88)
        a = np.empty(80)
        a[0] = 0.0
        for t in range(1, 80):
            a[t] = 0.9 * a[t - 1] + 0.1 * rng.standard_normal()
        b = np.empty(80)
        b[0] = a[-1]
        for t in range(1, 80):
            b[t] = -0.9 * b[t - 1] + 0.1 * rng.standard_normal()
        x = TimeSeries(np.concatenate([a, b]))
        seg, trace = hmm_segment(x, 2, 0.9, model="ar", order=1)
        assert seg.order == 2
        assert abs(seg.change_points[1] - 80) <= 3

    def test_ar_cost_is_the_dp_objective(self):
        # the HMM charges AR fits on the rows the DP cost tables use, so its
        # final cost is the sum of the exact window costs of its segments
        rng = np.random.default_rng(12)
        x = TimeSeries(np.concatenate([
            np.cumsum(rng.normal(0.0, 0.3, 60)),
            5.0 + rng.normal(0.0, 0.3, 60),
        ]))
        seg, trace = hmm_segment(x, 2, 0.9, model="ar", order=1)
        exact = sum(
            ar_cost_exact(x, s, t, 1)[0] for s, t in seg.segments()
        )
        assert trace.final.cost == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_poly_cost_is_the_dp_objective(self, degree):
        # each state's polynomial is refit in its own block's offset, so the
        # final cost is the sum of the exact window costs of its segments
        rng = np.random.default_rng(40 + degree)
        u = np.arange(70.0) / 70.0
        x = TimeSeries(np.concatenate([
            2.0 + 3.0 * u - 4.0 * u**2,
            -1.0 + 5.0 * u**3,
            1.5 - 2.0 * u,
        ]) + 0.1 * rng.standard_normal(210))
        seg, trace = hmm_segment(x, 3, 0.9, model="poly", order=degree)
        assert trace.final.params.shape == (3, degree + 1)
        assert min(t - s + 1 for s, t in seg.segments()) > degree + 1
        exact = sum(poly_cost(x, s, t, degree)[0] for s, t in seg.segments())
        assert trace.final.cost == pytest.approx(exact, rel=1e-9)


@pytest.fixture(scope="module")
def em_runs():
    """Means, ar(1), poly(1) and poly(2) runs at K = 2..8 on 48 generated
    series (T about 50, sigma 0 to 2), collapsed runs and paths that start in
    state 2 included."""
    runs = []
    for seed in range(48):
        sigma = (0.0, 0.5, 1.0, 2.0)[seed % 4]
        x, _ = generate(GenSpec(K=5, p=0.9, sigma=sigma, seed=seed))
        for K in range(2, min(8, len(x)) + 1):
            for model, order in (("means", 0), ("ar", 1), ("poly", 1), ("poly", 2)):
                _, trace = hmm_segment(x, K, 0.9, model=model, order=order)
                runs.append((x, K, (model, order), trace))
    for model in (("means", 0), ("ar", 1)):
        assert any(trace.collapsed for *_, m, trace in runs if m == model)
    return runs


class TestExactStop:
    """Hard EM stops at the first iteration that does not raise the joint
    log-likelihood; no iteration lowers it, so that stop needs no tolerance."""

    def test_likelihood_never_falls(self, em_runs):
        for *_, trace in em_runs:
            lls = [r.log_likelihood for r in trace.records]
            assert all(b >= a for a, b in zip(lls, lls[1:]))

    def test_converged_trace_rises_strictly_until_its_last_step(self, em_runs):
        for *_, trace in em_runs:
            assert trace.converged
            lls = [r.log_likelihood for r in trace.records]
            assert len(lls) >= 2
            assert all(b > a for a, b in zip(lls[:-2], lls[1:-1]))
            assert lls[-1] == lls[-2]

    def test_final_log_likelihood_is_the_joint_likelihood(self, em_runs):
        starts_in_state_2 = 0
        for x, K, model, trace in em_runs:
            if model != ("means", 0):
                continue
            final = trace.final
            params = HmmParams(K, 0.9, final.params[:, 0], trace.sigma)
            states = bounds_to_states(final.bounds) + 1
            nll = joint_neg_log_likelihood(states, x, params)
            assert nll == pytest.approx(-final.log_likelihood, rel=1e-12)
            starts_in_state_2 += int(states[0] == 2)
        assert starts_in_state_2 > 0

    def test_never_below_the_dp_optimum(self, em_runs):
        # A path whose segments the DP admits is one of the segmentations the
        # DP minimizes over, so its cost cannot be below the DP's optimum at
        # the same order (K, or fewer for a collapsed run).
        compared = 0
        tables = {}
        for x, K, (model, order), trace in em_runs:
            key = (id(x), model, order)
            if key not in tables:
                table = build_cost_matrix(x, model, order=order)
                tables[key] = table, table.flagged
            table, flagged = tables[key]
            seg = trace.final.segmentation
            if flagged is not None and any(
                flagged[t - 1, s - 1] for s, t in seg.segments()
            ):
                continue
            optimum = dp_segment(table, seg.order)[-1].cost
            total = float(np.sum((x.values - x.values.mean()) ** 2))
            assert trace.final.cost >= optimum - 1e-9 * total
            compared += 1
        assert compared >= len(em_runs) // 2
