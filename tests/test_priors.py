"""Spatial selection prior and truncated-distribution samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaincc, gammainccinv, log_ndtr

import oracles
from cnvlink.model import RegressionHyper, ValidationError
from cnvlink.priors import (
    _robert_tail,
    dirichlet_logpdf,
    gap_decay,
    log_assoc_prior,
    mixture_weights,
    persistence_weights,
    sample_truncated_gamma,
    sample_truncated_normal,
    site_log_probs,
    truncated_gamma_logpdf,
    truncated_normal_logpdf,
)


def make_hyper(**kw):
    base = dict(incl_a=0.001, incl_b=0.999, alpha=2.0)
    base.update(kw)
    return RegressionHyper(**base)


# ---------------- distance decay and adjacency scores ----------------


class TestGapDecay:
    def test_zero_gap_gives_exactly_one(self):
        # Exactly 1.0: anything above would be rejected downstream as an
        # adjacency score outside [0, 1].
        assert gap_decay(np.array([0.0]), 10.0)[0] == 1.0

    def test_zero_gap_full_persistence_feeds_mixture_weights(self):
        states = np.array([[2, 2], [3, 3]])
        s = persistence_weights(states, np.array([5.0, 5.0]), 10.0)
        fresh, _, _ = mixture_weights(s, 1.0)
        assert np.all(fresh > 0)

    def test_full_fragment_gap_gives_zero(self):
        assert gap_decay(np.array([10.0]), 10.0)[0] == 0.0

    def test_strictly_decreasing_in_gap(self):
        gaps = np.linspace(0.0, 10.0, 25)
        vals = gap_decay(gaps, 10.0)
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_oversized_gap_rejected(self):
        with pytest.raises(ValidationError, match="gap 1 .* exceeds fragment_length"):
            gap_decay(np.array([1.0, 11.0]), 10.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValidationError, match="gap 0 is negative"):
            gap_decay(np.array([-0.5]), 10.0)


class TestPersistenceWeights:
    def test_all_rows_persist_at_zero_gap(self):
        states = np.array([[2, 2, 2], [4, 4, 4], [1, 1, 1], [3, 3, 3]])
        s = persistence_weights(states, np.zeros(3), 10.0)
        assert np.allclose(s, 1.0, atol=1e-15)

    def test_half_the_rows_persist_at_zero_gap(self):
        states = np.array([[2, 2], [2, 2], [1, 3], [4, 2]])
        s = persistence_weights(states, np.zeros(2), 10.0)
        assert s[0] == pytest.approx(0.5, abs=1e-15)

    def test_persistence_times_decay(self):
        states = np.array([[2, 2], [1, 2], [3, 3], [4, 4]])
        pos = np.array([0.0, 5.0])
        s = persistence_weights(states, pos, 10.0)
        assert s[0] == pytest.approx(0.75 * gap_decay(np.array([5.0]), 10.0)[0], rel=1e-14)

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        states = rng.integers(1, 5, size=(6, 8))
        pos = np.sort(rng.uniform(0, 40, size=8))
        got = persistence_weights(states, pos, 50.0)
        want = oracles.persistence_oracle(states, pos, 50.0)
        assert np.allclose(got, want, atol=1e-14)

    def test_position_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"one coordinate per probe \(3\)"):
            persistence_weights(np.ones((2, 3), dtype=int), np.zeros(4), 10.0)


class TestMixtureWeights:
    def test_balanced_interior_column(self):
        fresh, copy_left, copy_right = mixture_weights(np.array([0.65, 0.65]), 1.3)
        assert fresh[1] == pytest.approx(0.5, rel=1e-14)
        assert copy_left[1] == pytest.approx(0.25, rel=1e-14)
        assert copy_right[1] == pytest.approx(0.25, rel=1e-14)

    def test_boundary_columns_draw_fresh(self):
        fresh, copy_left, copy_right = mixture_weights(np.array([0.9, 0.1]), 0.5)
        assert fresh[0] == 1.0 and copy_left[0] == 0.0 and copy_right[0] == 0.0
        assert fresh[2] == 1.0 and copy_left[2] == 0.0 and copy_right[2] == 0.0

    def test_infinite_coupling_scale_disables_copying(self):
        fresh, copy_left, copy_right = mixture_weights(np.array([0.9, 0.8, 0.7]), math.inf)
        assert np.all(fresh == 1.0)
        assert np.all(copy_left == 0.0)
        assert np.all(copy_right == 0.0)

    def test_two_probe_layout_has_no_interior(self):
        fresh, _, _ = mixture_weights(np.array([0.9]), 0.01)
        assert np.all(fresh == 1.0)

    def test_weights_sum_to_one_per_column(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, size=9)
        fresh, copy_left, copy_right = mixture_weights(s, 0.7)
        assert np.allclose(fresh + copy_left + copy_right, 1.0, atol=1e-12)

    def test_fresh_weight_increases_with_alpha(self):
        s = np.array([0.6, 0.4, 0.8])
        lo, _, _ = mixture_weights(s, 1.0)
        hi, _, _ = mixture_weights(s, 3.0)
        assert np.all(hi[1:-1] > lo[1:-1])

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0, 1, size=6)
        for alpha in (0.5, 2.0, math.inf):
            got = mixture_weights(s, alpha)
            want = oracles.site_weights_oracle(s, alpha, 7)
            for g, w in zip(got, want):
                assert np.allclose(g, w, atol=1e-14)


# ---------------- one-site conditionals ----------------


def _oracle_site_logprobs(assoc, s, hyper):
    """Every site of ``assoc`` through the scalar oracles."""
    n_genes, n_probes = assoc.shape
    fresh, copy_left, copy_right = oracles.site_weights_oracle(s, hyper.alpha, n_probes)
    out = np.empty((n_genes, n_probes))
    for g in range(n_genes):
        for m in range(n_probes):
            left = int(assoc[g, m - 1]) if m > 0 else None
            right = int(assoc[g, m + 1]) if m < n_probes - 1 else None
            out[g, m] = math.log(oracles.site_prob_oracle(
                int(assoc[g, m]), left, right,
                float(fresh[m]), float(copy_left[m]), float(copy_right[m]),
                hyper.incl_a, hyper.incl_b,
            ))
    return out


class TestSiteInclusionProb:
    def test_fresh_only_inclusion(self):
        got = site_log_probs(np.array([[1, 0]]), np.array([0]), np.array([0.5]), make_hyper())
        assert got[0, 0] == pytest.approx(math.log(0.001), rel=1e-12)

    def test_balanced_base_with_agreeing_neighbors(self):
        # alpha : s_left : s_right = 1.3 : 0.65 : 0.65 gives weights 1/2, 1/4, 1/4
        hyper = make_hyper(incl_a=1.0, incl_b=1.0, alpha=1.3)
        got = site_log_probs(np.ones((1, 3)), np.array([1]), np.array([0.65, 0.65]), hyper)
        assert got[0, 0] == pytest.approx(math.log(0.75), rel=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = rng.uniform(0.0, 1.0, size=2)
            left, right = (int(v) for v in rng.integers(0, 2, size=2))
            a, b = rng.uniform(0.1, 5.0, size=2)
            hyper = make_hyper(incl_a=a, incl_b=b, alpha=float(rng.uniform(0.05, 3.0)))
            rows = np.array([[left, 0, right], [left, 1, right]])
            total = np.exp(site_log_probs(rows, np.array([1]), s, hyper)).sum()
            assert total == pytest.approx(1.0, rel=1e-12)

    def test_boundary_site_sums_to_one(self):
        hyper = make_hyper(incl_a=2.0, incl_b=3.0, alpha=0.6)
        for m in (0, 2):
            rows = np.ones((2, 3), dtype=np.int8)
            rows[0, m] = 0
            total = np.exp(site_log_probs(rows, np.array([m]), np.array([0.9, 0.8]), hyper)).sum()
            assert total == pytest.approx(1.0, rel=1e-14)

    def test_zero_probability_maps_to_minus_inf(self):
        # the fresh weight times the base odds underflows to zero, and
        # neither neighbor agrees with the flag
        hyper = make_hyper(incl_a=1e-300, incl_b=1.0, alpha=1e-300)
        with np.errstate(divide="ignore"):
            got = site_log_probs(np.array([[0, 1, 0]]), np.array([1]), np.array([0.5, 0.5]), hyper)
        assert got[0, 0] == float("-inf")

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n_probes = int(rng.integers(2, 7))
            assoc = rng.integers(0, 2, size=(3, n_probes))
            s = rng.uniform(0.0, 1.0, size=n_probes - 1)
            a, b = rng.uniform(0.1, 5.0, size=2)
            alpha = math.inf if rng.random() < 0.2 else float(rng.uniform(0.05, 3.0))
            hyper = make_hyper(incl_a=a, incl_b=b, alpha=alpha)
            got = site_log_probs(assoc, np.arange(n_probes), s, hyper)
            assert np.allclose(got, _oracle_site_logprobs(assoc, s, hyper), rtol=0, atol=1e-13)


class TestColumnSiteProbs:
    def test_matches_scalar_route_per_gene(self):
        # one gene at one column gives the same value as that entry of the
        # whole-matrix evaluation, boundary columns included
        rng = np.random.default_rng(14)
        assoc = rng.integers(0, 2, size=(5, 6))
        s = rng.uniform(0, 1, size=5)
        hyper = make_hyper(incl_a=0.3, incl_b=2.7, alpha=1.7)
        full = site_log_probs(assoc, np.arange(6), s, hyper)
        for m in range(6):
            for g in range(5):
                got = site_log_probs(assoc[g : g + 1], np.array([m]), s, hyper)
                assert got[0, 0] == full[g, m]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_column_by_slices_matches_the_indexed_route(self, data):
        # the whole-matrix evaluation (cols=None) takes slices in place of
        # np.arange(M) indexing; values and their row-major sum are unchanged
        n_genes = data.draw(st.integers(1, 5))
        n_probes = data.draw(st.integers(1, 8))
        cells = data.draw(st.lists(
            st.integers(0, 1), min_size=n_genes * n_probes, max_size=n_genes * n_probes))
        assoc = np.array(cells, dtype=np.int8).reshape(n_genes, n_probes)
        s = np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=n_probes - 1, max_size=n_probes - 1)))
        alpha = data.draw(st.one_of(st.just(math.inf), st.floats(0.05, 50.0)))
        hyper = make_hyper(
            incl_a=data.draw(st.floats(0.01, 5.0)), incl_b=data.draw(st.floats(0.01, 5.0)),
            alpha=alpha,
        )
        whole = site_log_probs(assoc, None, s, hyper)
        indexed = site_log_probs(assoc, np.arange(n_probes), s, hyper)
        assert np.array_equal(whole, indexed)
        assert whole.sum() == indexed.sum()


class TestLogAssocPrior:
    def test_independent_prior_over_empty_matrix(self):
        hyper = make_hyper(alpha=math.inf)
        assoc = np.zeros((4, 6), dtype=np.int8)
        states = np.random.default_rng(0).integers(1, 5, size=(3, 6))
        pos = np.linspace(0, 20, 6)
        got = log_assoc_prior(assoc, states, pos, 30.0, hyper)
        assert got == pytest.approx(24 * math.log(0.999), rel=1e-12)

    def test_independent_prior_counts_ones(self):
        hyper = make_hyper(alpha=math.inf, incl_a=0.2, incl_b=0.8)
        assoc = np.zeros((2, 5), dtype=np.int8)
        assoc[0, 1] = assoc[1, 4] = 1
        states = np.ones((3, 5), dtype=np.int8)
        got = log_assoc_prior(assoc, states, np.arange(5.0), 10.0, hyper)
        assert got == pytest.approx(2 * math.log(0.2) + 8 * math.log(0.8), rel=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n, g, m = 4, 3, 7
            assoc = rng.integers(0, 2, size=(g, m))
            states = rng.integers(1, 5, size=(n, m))
            pos = np.sort(rng.uniform(0, 25, size=m))
            hyper = make_hyper(alpha=float(rng.uniform(0.5, 4.0)))
            got = log_assoc_prior(assoc, states, pos, 40.0, hyper)
            want = oracles.assoc_logprior_oracle(
                assoc, states, pos, 40.0,
                incl_a=hyper.incl_a, incl_b=hyper.incl_b, alpha=hyper.alpha,
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_state_change_only_touches_adjacent_columns(self):
        rng = np.random.default_rng(16)
        n, g, m_total = 5, 4, 8
        assoc = rng.integers(0, 2, size=(g, m_total))
        states = rng.integers(1, 5, size=(n, m_total))
        pos = np.arange(m_total, dtype=float)
        changed = states.copy()
        changed[:, 4] = 1 + (states[:, 4] % 4)
        hyper = make_hyper(incl_a=0.3, incl_b=1.7, alpha=1.5)
        cols = np.arange(m_total)
        p_old = site_log_probs(assoc, cols, persistence_weights(states, pos, 20.0), hyper)
        p_new = site_log_probs(assoc, cols, persistence_weights(changed, pos, 20.0), hyper)
        for m in range(m_total):
            if m in (3, 4, 5):
                continue
            assert np.array_equal(p_old[:, m], p_new[:, m])

    def test_stronger_coupling_raises_prior_of_contiguous_runs(self):
        # A run of identical flags gains mass when neighbor copying gets
        # weight, relative to the same flags under the independent prior.
        assoc = np.zeros((1, 6), dtype=np.int8)
        assoc[0, 2:5] = 1
        states = np.tile(np.array([1, 1, 3, 3, 3, 2]), (4, 1))
        pos = np.arange(6.0)
        coupled = log_assoc_prior(assoc, states, pos, 20.0, make_hyper(alpha=0.5))
        independent = log_assoc_prior(assoc, states, pos, 20.0, make_hyper(alpha=math.inf))
        assert coupled > independent


# ---------------- truncated samplers ----------------


class TestTruncatedNormalSampler:
    def test_half_normal_mean(self):
        rng = np.random.default_rng(100)
        draws = np.array(
            [sample_truncated_normal(2.0, 1.5, 2.0, math.inf, rng) for _ in range(20_000)]
        )
        expected = 2.0 + 1.5 * math.sqrt(2.0 / math.pi)
        se = 1.5 * math.sqrt((1.0 - 2.0 / math.pi) / draws.size)
        assert abs(draws.mean() - expected) < 3 * se
        assert draws.min() > 2.0

    def test_tiny_interval_containment(self):
        rng = np.random.default_rng(101)
        lo, hi = 0.1, 0.100001
        draws = [sample_truncated_normal(0.0, 1.0, lo, hi, rng) for _ in range(500)]
        assert all(lo < d < hi for d in draws)

    def test_far_tail_moments(self):
        rng = np.random.default_rng(102)
        draws = np.array(
            [sample_truncated_normal(0.0, 1.0, 6.0, math.inf, rng) for _ in range(5_000)]
        )
        assert draws.min() > 6.0
        expected = stats.norm.pdf(6.0) / stats.norm.sf(6.0)
        var = 1.0 + 6.0 * expected - expected**2
        assert abs(draws.mean() - expected) < 3 * math.sqrt(var / draws.size)

    def test_distribution_matches_reference(self):
        rng = np.random.default_rng(103)
        mean, sd, lo, hi = 0.7, 1.3, -1.0, 2.0
        draws = np.array(
            [sample_truncated_normal(mean, sd, lo, hi, rng) for _ in range(4_000)]
        )
        a, b = (lo - mean) / sd, (hi - mean) / sd
        res = stats.kstest(draws, stats.truncnorm(a, b, loc=mean, scale=sd).cdf)
        assert res.pvalue > 1e-4

    def test_negative_interval_distribution(self):
        rng = np.random.default_rng(104)
        draws = np.array(
            [sample_truncated_normal(0.0, 1.0, -5.0, -0.5, rng) for _ in range(4_000)]
        )
        res = stats.kstest(draws, stats.truncnorm(-5.0, -0.5).cdf)
        assert res.pvalue > 1e-4

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError, match="need low < high"):
            sample_truncated_normal(0.0, 1.0, 1.0, 1.0, np.random.default_rng(0))

    def test_massless_interval_rejected(self):
        # an interval around the mean too narrow to carry mass in doubles
        with pytest.raises(ValidationError, match="degenerate truncation"):
            sample_truncated_normal(0.0, 1.0, -1e-310, 1e-310, np.random.default_rng(0))

    @staticmethod
    def tail_cdf(lo, hi):
        """CDF of N(0, 1) restricted to (lo, hi), lo >= 0, in log space."""
        la, lb = log_ndtr(-lo), log_ndtr(-hi)
        return lambda x: np.expm1(log_ndtr(-np.asarray(x)) - la) / np.expm1(lb - la)

    @pytest.mark.parametrize("lo,hi", [
        (71.0, 159.0), (3.0, 3.5), (6.0, math.inf), (10.0, 10.05), (40.0, 40.005),
    ])
    def test_tail_sampler_matches_truncated_law(self, lo, hi):
        # the first three take the exponential proposal (which overshoots
        # 3.5 often), the last two are narrower than the crossover width and
        # take the uniform one
        rng = np.random.default_rng(105)
        draws = np.array([_robert_tail(lo, hi, rng) for _ in range(4_000)])
        assert draws.min() >= lo and draws.max() <= hi
        assert stats.kstest(draws, self.tail_cdf(lo, hi)).pvalue > 1e-4

    def test_massless_lower_tail_interval_is_sampled(self):
        # the gain-mean conditional that stopped a fit: (0.1, 0.3885) lies
        # 71 to 159 sds below the mean
        mean, sd, lo, hi = 0.6242, 0.0033, 0.1, 0.3885
        rng = np.random.default_rng(106)
        draws = np.array([sample_truncated_normal(mean, sd, lo, hi, rng) for _ in range(4_000)])
        assert draws.min() > lo and draws.max() < hi
        mirrored = (mean - draws) / sd
        cdf = self.tail_cdf((mean - hi) / sd, (mean - lo) / sd)
        assert stats.kstest(mirrored, cdf).pvalue > 1e-4

    def test_bad_scale_rejected(self):
        with pytest.raises(ValidationError, match="sd must be positive"):
            sample_truncated_normal(0.0, 0.0, 0.0, 1.0, np.random.default_rng(0))

    def test_infinite_mean_rejected(self):
        with pytest.raises(ValidationError, match="mean must be finite"):
            sample_truncated_normal(math.inf, 1.0, 0.0, 1.0, np.random.default_rng(0))


class TestTruncatedGammaSampler:
    def test_zero_bound_is_plain_gamma(self):
        rng = np.random.default_rng(110)
        draws = np.array(
            [sample_truncated_gamma(3.0, 2.0, 0.0, rng) for _ in range(20_000)]
        )
        se = math.sqrt(3.0 / 4.0 / draws.size)
        assert abs(draws.mean() - 1.5) < 3 * se

    def test_unit_exponential_memorylessness(self):
        rng = np.random.default_rng(111)
        draws = np.array(
            [sample_truncated_gamma(1.0, 1.0, 6.0, rng) for _ in range(20_000)]
        )
        assert draws.min() > 6.0
        assert abs(draws.mean() - 7.0) < 3 * math.sqrt(1.0 / draws.size)

    def test_extreme_quantile_bound_respected(self):
        shape, rate = 2.5, 1.7
        bound = float(gammainccinv(shape, 1e-4)) / rate
        rng = np.random.default_rng(112)
        draws = np.array(
            [sample_truncated_gamma(shape, rate, bound, rng) for _ in range(2_000)]
        )
        assert draws.min() > bound

    def test_distribution_matches_conditional_cdf(self):
        shape, rate, bound = 4.0, 0.8, 3.0
        rng = np.random.default_rng(113)
        draws = np.array(
            [sample_truncated_gamma(shape, rate, bound, rng) for _ in range(4_000)]
        )
        tail = float(gammaincc(shape, rate * bound))

        def cdf(x):
            return 1.0 - gammaincc(shape, rate * np.asarray(x)) / tail

        res = stats.kstest(draws, cdf)
        assert res.pvalue > 1e-4

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError, match="shape and rate must be positive"):
            sample_truncated_gamma(0.0, 1.0, 0.0, np.random.default_rng(0))

    def test_infinite_bound_rejected(self):
        with pytest.raises(ValidationError, match="lower_bound must be finite"):
            sample_truncated_gamma(1.0, 1.0, math.inf, np.random.default_rng(0))

    def test_massless_bound_rejected(self):
        with pytest.raises(ValidationError, match="degenerate truncation"):
            sample_truncated_gamma(2.0, 1.0, 800.0, np.random.default_rng(0))


class TestLogDensities:
    def test_truncated_normal_logpdf_matches_reference(self):
        mean, sd, lo, hi = 0.4, 0.8, -0.5, 1.5
        ref = stats.truncnorm((lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
        for x in (-0.2, 0.4, 1.2):
            got = truncated_normal_logpdf(x, mean, sd, lo, hi)
            assert got == pytest.approx(ref.logpdf(x), rel=1e-10)

    def test_truncated_normal_logpdf_far_tail(self):
        got = truncated_normal_logpdf(40.5, 0.0, 1.0, 40.0, 41.0)
        ref = stats.truncnorm(40.0, 41.0).logpdf(40.5)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_truncated_normal_logpdf_outside_support(self):
        assert truncated_normal_logpdf(2.0, 0.0, 1.0, -1.0, 1.0) == float("-inf")
        assert truncated_normal_logpdf(-1.0, 0.0, 1.0, -1.0, 1.0) == float("-inf")

    def test_truncated_gamma_logpdf_matches_reference(self):
        shape, rate, bound = 3.0, 2.0, 1.0
        tail = float(gammaincc(shape, rate * bound))
        for x in (1.2, 2.0, 4.5):
            got = truncated_gamma_logpdf(x, shape, rate, bound)
            want = stats.gamma(shape, scale=1.0 / rate).logpdf(x) - math.log(tail)
            assert got == pytest.approx(want, rel=1e-10)

    def test_truncated_gamma_logpdf_outside_support(self):
        assert truncated_gamma_logpdf(0.5, 3.0, 2.0, 1.0) == float("-inf")
        assert truncated_gamma_logpdf(-1.0, 3.0, 2.0, 0.0) == float("-inf")

    def test_dirichlet_logpdf_matches_reference(self):
        x = np.array([0.2, 0.3, 0.5])
        conc = np.array([2.0, 3.0, 4.0])
        got = dirichlet_logpdf(x, conc)
        assert got == pytest.approx(stats.dirichlet(conc).logpdf(x), rel=1e-12)

    def test_dirichlet_logpdf_zero_component(self):
        assert dirichlet_logpdf(np.array([0.0, 1.0]), np.ones(2)) == float("-inf")
