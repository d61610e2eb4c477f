"""Collapsed marginal likelihood, emission and chain densities, stationary law."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cnvlink.likelihood import (
    collapsed_loglik_from_parts,
    initial_counts,
    log_emission,
    log_marginal_likelihood,
    log_state_prior,
    precompute_responses,
    residual_ssq,
    stationary_distribution,
    sweep_intercept,
    transition_counts,
)
from cnvlink.model import NumericalError, RegressionHyper, ValidationError
from cnvlink.sampler import tally_states
from helpers import emission_of, hyper_kwargs, state_prior_of

BASE_HYPER = RegressionHyper(
    slab_prec=10.0, intercept_prec=1e-6, resid_df=3.0, resid_scale=0.05
)

# Oracle value computed from the closed form with n=3, zero responses, no
# selected columns (so the residual quadratic form vanishes); frozen before
# the implementation existed.
EMPTY_MODEL_LOGLIK = -3.8666285902307536


def random_instance(seed: int, n: int | None = None, k: int | None = None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) if n is None else n
    k = int(rng.integers(0, 4)) if k is None else k
    y = rng.normal(size=n)
    z = rng.integers(1, 5, size=(n, k)).astype(float)
    return y, z


# ---------------- the collapsed marginal likelihood ----------------


class TestCollapsedLoglik:
    def test_frozen_empty_model_value(self):
        y = np.zeros(3)
        states = np.array([[1, 2], [2, 3], [2, 2]])
        r = np.zeros(2, dtype=np.int8)
        got = log_marginal_likelihood(y, states, r, BASE_HYPER)
        assert got == pytest.approx(EMPTY_MODEL_LOGLIK, abs=1e-12)

    def test_frozen_value_matches_displayed_closed_form(self):
        # n=3, zero responses: the quadratic form is exactly 0, so the value
        # reduces to normalizing constants alone.
        n, c_mu, df, d = 3, 1e-6, 3.0, 0.05
        expected = (
            -0.5 * n * math.log(2 * math.pi)
            + 0.5 * math.log(c_mu / (c_mu + n))
            + math.lgamma((n + df) / 2)
            - math.lgamma(df / 2)
            + (df / 2) * math.log(d / 2)
            - ((n + df) / 2) * math.log(d / 2)
        )
        assert expected == pytest.approx(EMPTY_MODEL_LOGLIK, abs=1e-12)

    def test_no_selection_is_independent_of_states(self):
        y = np.array([0.3, -1.2, 0.5, 2.0])
        r = np.zeros(3, dtype=np.int8)
        a = log_marginal_likelihood(y, np.array([[1, 2, 3]] * 4), r, BASE_HYPER)
        b = log_marginal_likelihood(y, np.array([[4, 4, 4]] * 4), r, BASE_HYPER)
        assert a == b

    def test_no_selection_closed_form_random_response(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=6)
        n, c_mu, df, d = 6, BASE_HYPER.intercept_prec, BASE_HYPER.resid_df, BASE_HYPER.resid_scale
        quad = float(y @ (y - y.sum() / (n + c_mu)))
        expected = (
            -0.5 * n * math.log(2 * math.pi)
            + 0.5 * math.log(c_mu / (c_mu + n))
            + math.lgamma((n + df) / 2)
            - math.lgamma(df / 2)
            + (df / 2) * math.log(d / 2)
            - ((n + df) / 2) * math.log((d + quad) / 2)
        )
        got = log_marginal_likelihood(y, np.full((6, 2), 2), np.zeros(2, dtype=int), BASE_HYPER)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_no_selection_ignores_slab_precision(self):
        y = np.array([0.1, 0.9, -0.4])
        states = np.array([[1, 2], [2, 2], [3, 2]])
        r = np.zeros(2, dtype=int)
        tight = RegressionHyper(slab_prec=1e6, intercept_prec=1e-6, resid_df=3.0, resid_scale=0.05)
        assert log_marginal_likelihood(y, states, r, BASE_HYPER) == log_marginal_likelihood(
            y, states, r, tight
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_covariance_route(self, seed):
        y, z = random_instance(seed)
        swept = sweep_intercept(y, BASE_HYPER.intercept_prec)
        got = collapsed_loglik_from_parts(z, swept, float(y @ swept), BASE_HYPER)
        want = oracles.exact_marginal_loglik(y, z, **hyper_kwargs(BASE_HYPER))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize(
        "slab,intercept,df,scale,rel",
        [
            (0.5, 0.01, 5.0, 1.3, 1e-10),
            (3.0, 1.0, 8.0, 0.5, 1e-10),
            # A nearly-flat intercept prior makes the dense covariance matrix
            # of the reference route ill-conditioned (kappa ~ n/intercept_prec),
            # so the reference itself only carries ~7 digits there.
            (100.0, 1e-8, 2.5, 0.01, 1e-6),
        ],
    )
    def test_matches_covariance_route_across_hyperparameters(
        self, slab, intercept, df, scale, rel
    ):
        hyper = RegressionHyper(
            slab_prec=slab, intercept_prec=intercept, resid_df=df, resid_scale=scale
        )
        for seed in range(40, 44):
            y, z = random_instance(seed)
            swept = sweep_intercept(y, intercept)
            got = collapsed_loglik_from_parts(z, swept, float(y @ swept), hyper)
            want = oracles.exact_marginal_loglik(y, z, **hyper_kwargs(hyper))
            assert got == pytest.approx(want, rel=rel, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_covariance_route_property(self, seed):
        y, z = random_instance(seed)
        swept = sweep_intercept(y, BASE_HYPER.intercept_prec)
        got = collapsed_loglik_from_parts(z, swept, float(y @ swept), BASE_HYPER)
        want = oracles.exact_marginal_loglik(y, z, **hyper_kwargs(BASE_HYPER))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_invariant_to_column_order(self):
        y, z = random_instance(7, n=6, k=3)
        swept = sweep_intercept(y, BASE_HYPER.intercept_prec)
        quad = float(y @ swept)
        a = collapsed_loglik_from_parts(z, swept, quad, BASE_HYPER)
        b = collapsed_loglik_from_parts(z[:, ::-1], swept, quad, BASE_HYPER)
        assert a == pytest.approx(b, abs=1e-12)

    def test_unresolved_resid_scale_rejected(self):
        with pytest.raises(ValidationError, match="resid_scale is unresolved"):
            log_marginal_likelihood(
                np.zeros(3), np.full((3, 2), 2), np.zeros(2, dtype=int), RegressionHyper()
            )

    def test_mismatched_row_flags_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("r_row must have one flag per probe (2)")):
            log_marginal_likelihood(np.zeros(3), np.full((3, 2), 2), np.zeros(3, dtype=int), BASE_HYPER)

    def test_sample_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="y has 3 samples but states has 4 rows"):
            log_marginal_likelihood(np.zeros(3), np.full((4, 2), 2), np.zeros(2, dtype=int), BASE_HYPER)


def loglik(y, z, hyper):
    swept = sweep_intercept(y, hyper.intercept_prec)
    return collapsed_loglik_from_parts(z, swept, float(y @ swept), hyper)


def residual_quad(y, z, hyper):
    """The residual quadratic form inside the collapsed likelihood, read off
    its value: for a fixed design the value depends on the response only
    through ``-(n + df) / 2 * log((scale + quad) / 2)``, and a zero response
    has ``quad = 0``."""
    drop = loglik(y, z, hyper) - loglik(np.zeros_like(y), z, hyper)
    scale = hyper.resid_scale
    return scale * math.exp(-2.0 * drop / (y.size + hyper.resid_df)) - scale


class TestGeneLikelihoodWork:
    """The intermediate quantities of one gene's collapsed likelihood: the
    regularized Gram matrix of the selected columns and the residual
    quadratic form."""

    def test_duplicated_column_leaves_quadratic_form_unchanged(self):
        # With a vanishing ridge the projection onto span{z, z} equals the
        # projection onto span{z}, so the residual quadratic form is stable.
        rng = np.random.default_rng(11)
        y = rng.normal(size=8)
        col = rng.integers(1, 5, size=8).astype(float)
        hyper = RegressionHyper(
            slab_prec=1e-9, intercept_prec=1e-6, resid_df=3.0, resid_scale=0.05
        )
        single = residual_quad(y, col[:, None], hyper)
        doubled = residual_quad(y, np.column_stack([col, col]), hyper)
        assert doubled == pytest.approx(single, abs=1e-8)

    def test_quad_matches_explicit_inverse(self):
        rng = np.random.default_rng(12)
        y = rng.normal(size=7)
        states = rng.integers(1, 5, size=(7, 4))
        z = states[:, np.flatnonzero([1, 0, 1, 1])].astype(float)
        swept_y = sweep_intercept(y, BASE_HYPER.intercept_prec)
        gram = BASE_HYPER.slab_prec * np.eye(3) + z.T @ sweep_intercept(z, BASE_HYPER.intercept_prec)
        v = z.T @ swept_y
        quad_inv = float(y @ swept_y) - float(v @ np.linalg.inv(gram) @ v)
        assert residual_quad(y, z, BASE_HYPER) == pytest.approx(quad_inv, rel=1e-8)

    def test_quad_nonnegative(self):
        for seed in range(6):
            y, z = random_instance(seed, n=5, k=2)
            # the value falls as the quadratic form grows from its zero at y = 0
            assert loglik(y, z, BASE_HYPER) <= loglik(np.zeros_like(y), z, BASE_HYPER)
            assert loglik(y, z, BASE_HYPER) == pytest.approx(
                oracles.exact_marginal_loglik(y, z, **hyper_kwargs(BASE_HYPER)), rel=1e-10
            )

    def test_gram_is_ridge_plus_swept_cross_product(self):
        # at y = 0 the value holds the Gram matrix only through its determinant
        rng = np.random.default_rng(13)
        n = 5
        z = rng.integers(1, 5, size=(n, 2)).astype(float)
        h = np.eye(n) - np.ones((n, n)) / (n + BASE_HYPER.intercept_prec)
        gram = BASE_HYPER.slab_prec * np.eye(2) + z.T @ h @ z
        at_zero = oracles.exact_marginal_loglik(np.zeros(n), np.empty((n, 0)), **hyper_kwargs(BASE_HYPER))
        expected = at_zero + math.log(BASE_HYPER.slab_prec) - 0.5 * np.linalg.slogdet(gram)[1]
        assert loglik(np.zeros(n), z, BASE_HYPER) == pytest.approx(expected, abs=1e-10)
        assert loglik(np.zeros(n), z, BASE_HYPER) == pytest.approx(
            oracles.exact_marginal_loglik(np.zeros(n), z, **hyper_kwargs(BASE_HYPER)), abs=1e-8
        )


class TestInterceptSweep:
    def test_matches_explicit_projection_matrix(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(6, 3))
        c_mu = 0.37
        h = np.eye(6) - np.ones((6, 6)) / (6 + c_mu)
        assert np.allclose(sweep_intercept(values, c_mu), h @ values, atol=1e-12)

    def test_precompute_quad_is_swept_self_product(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(5, 3))
        pre = precompute_responses(y, 1e-6)
        for g in range(3):
            assert pre.quad[g] == pytest.approx(float(y[:, g] @ pre.swept[:, g]), rel=1e-14)
        h = np.eye(5) - np.ones((5, 5)) / (5 + 1e-6)
        expected = np.einsum("ij,ij->j", y, h @ y)
        assert np.allclose(pre.quad, expected, atol=1e-10)


# ---------------- Monte-Carlo cross-check (small but real) ----------------


class TestMonteCarloAgreement:
    def test_one_instance_against_prior_sampling(self):
        # Hyperparameters whose prior predictive puts real mass on the data,
        # so prior sampling converges at a feasible draw count.
        hyper = RegressionHyper(
            slab_prec=2.0, intercept_prec=1.0, resid_df=5.0, resid_scale=1.0
        )
        y, z = random_instance(21, n=4, k=1)
        swept = sweep_intercept(y, hyper.intercept_prec)
        got = collapsed_loglik_from_parts(z, swept, float(y @ swept), hyper)
        approx = oracles.mc_marginal_loglik(
            y, z, **hyper_kwargs(hyper), n_draws=2_000_000, seed=99
        )
        assert got == pytest.approx(approx, abs=0.05)


# ---------------- emission and state-chain densities ----------------


class TestLogEmission:
    def test_single_cell_closed_form(self):
        got = emission_of(
            np.array([[0.0]]),
            np.array([[2]]),
            np.array([-0.65, 0.0, 0.65, 1.5]),
            np.array([0.1, 0.1, 0.1, 0.2]),
        )
        expected = math.log(1.0 / (0.1 * math.sqrt(2 * math.pi)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.3836, abs=5e-5)

    def test_density_at_the_mean_everywhere(self):
        means = np.array([-0.65, 0.0, 0.65, 1.5])
        sds = np.array([0.1, 0.1, 0.1, 0.2])
        x = np.full((3, 4), means[0])
        states = np.ones((3, 4), dtype=int)
        got = emission_of(x, states, means, sds)
        assert got == pytest.approx(12 * math.log(1.0 / (0.1 * math.sqrt(2 * math.pi))), rel=1e-12)

    def test_additive_over_rows(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        states = rng.integers(1, 5, size=(4, 3))
        means = np.array([-0.65, 0.0, 0.65, 1.5])
        sds = np.array([0.1, 0.12, 0.1, 0.2])
        whole = emission_of(x, states, means, sds)
        parts = sum(
            emission_of(x[i : i + 1], states[i : i + 1], means, sds) for i in range(4)
        )
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="does not match states shape"):
            emission_of(np.zeros((2, 3)), np.ones((3, 2), dtype=int), np.zeros(4), np.ones(4))


class TestLogStatePrior:
    def setup_method(self):
        self.trans = np.array(
            [
                [0.7, 0.1, 0.1, 0.1],
                [0.05, 0.8, 0.1, 0.05],
                [0.1, 0.2, 0.6, 0.1],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        self.stat = stationary_distribution(self.trans)

    def test_uniform_chain(self):
        uniform = np.full((4, 4), 0.25)
        stat = np.full(4, 0.25)
        row = np.array([1, 3, 2, 4, 2])
        assert state_prior_of(row, uniform, stat) == pytest.approx(5 * math.log(0.25), rel=1e-12)

    def test_single_probe_row_contributes_initial_term_only(self):
        row = np.array([3])
        assert state_prior_of(row, self.trans, self.stat) == pytest.approx(
            math.log(self.stat[2]), rel=1e-12
        )

    def test_constant_row_direct_product(self):
        row = np.array([2, 2, 2])
        expected = math.log(self.stat[1]) + 2 * math.log(self.trans[1, 1])
        assert state_prior_of(row, self.trans, self.stat) == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_step_gives_minus_inf(self):
        trans = self.trans.copy()
        trans[0, 3] = 0.0
        got = state_prior_of(np.array([1, 4]), trans, self.stat)
        assert got == float("-inf")

    def test_additive_over_rows(self):
        rng = np.random.default_rng(9)
        states = rng.integers(1, 5, size=(5, 6))
        whole = state_prior_of(states, self.trans, self.stat)
        parts = sum(state_prior_of(states[i], self.trans, self.stat) for i in range(5))
        assert whole == pytest.approx(parts, rel=1e-12)


class TestDensitiesFromTallies:
    """The emission and state-chain densities and the sds move's residual
    sum of squares work from the state matrix's tallies. They match a direct
    per-cell evaluation and the cell-by-cell oracles."""

    @staticmethod
    def draw_states(data, n, n_probes):
        cells = data.draw(st.lists(
            st.integers(1, 4), min_size=n * n_probes, max_size=n * n_probes))
        return np.array(cells, dtype=np.int8).reshape(n, n_probes)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_emission_and_residual_ssq_match_direct_evaluation(self, data):
        # The moment form's rounding error scales with (x / sd)^2 per cell, so
        # log-ratios and sds stay within the model's range.
        n, n_probes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        states = self.draw_states(data, n, n_probes)
        x = np.array(data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=n * n_probes, max_size=n * n_probes
        ))).reshape(n, n_probes)
        means = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)))
        sds = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4)))
        counts, sums, sumsq = tally_states(x, states).totals()
        for j in range(4):
            cells = x[states == j + 1]
            direct = float(np.square(cells - means[j]).sum())
            scale = float(np.square(cells).sum() + cells.size * means[j] ** 2)
            got = residual_ssq(counts[j], sums[j], sumsq[j], float(means[j]))
            assert got == pytest.approx(direct, rel=1e-12, abs=1e-12 * scale)
        idx = states - 1
        terms = -0.5 * math.log(2 * math.pi) - np.log(sds[idx]) - 0.5 * np.square(
            (x - means[idx]) / sds[idx]
        )
        got = log_emission(counts, sums, sumsq, means, sds)
        tol = 1e-12 * float(np.abs(terms).sum())
        assert got == pytest.approx(float(terms.sum()), rel=1e-12, abs=tol)
        oracle = oracles.emission_oracle(x, states, means, sds)
        assert got == pytest.approx(oracle, rel=1e-12, abs=tol)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_state_prior_matches_direct_evaluation(self, data):
        # zero probabilities are drawn often, so both a used one (-inf) and
        # an unused one (0 log 0 = 0) occur
        n, n_probes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
        states = self.draw_states(data, n, n_probes)

        def law(size):
            w = np.array(data.draw(st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=size, max_size=size)))
            w = w.reshape(-1, 4)
            w[w.sum(axis=1) == 0.0] = 1.0
            return w / w.sum(axis=1, keepdims=True)

        trans, stat = law(16), law(4)[0]
        got = log_state_prior(initial_counts(states), transition_counts(states), trans, stat)
        first = stat[states[:, 0] - 1]
        steps = trans[states[:, :-1] - 1, states[:, 1:] - 1]
        want = oracles.state_prior_oracle(states, trans, stat)
        if np.any(first == 0.0) or np.any(steps == 0.0):
            assert got == want == -math.inf
        else:
            direct = float(np.log(first).sum() + np.log(steps).sum())
            assert got == pytest.approx(direct, rel=1e-12)
            assert got == pytest.approx(want, rel=1e-12)

    def test_unused_zero_probabilities_contribute_nothing(self):
        trans = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
            [0.25, 0.25, 0.25, 0.25],
        ])
        stat = np.array([0.0, 1.0, 0.0, 0.0])
        states = np.array([[2, 2, 2], [2, 2, 2]], dtype=np.int8)
        got = log_state_prior(initial_counts(states), transition_counts(states), trans, stat)
        assert got == 0.0
        first_used = np.array([[1, 2]], dtype=np.int8)
        assert log_state_prior(
            initial_counts(first_used), transition_counts(first_used), trans, stat
        ) == -math.inf


class TestStationaryDistribution:
    def test_uniform_rows(self):
        got = stationary_distribution(np.full((4, 4), 0.25))
        assert np.allclose(got, 0.25, atol=1e-12)

    def test_two_state_closed_form(self):
        got = stationary_distribution(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert np.allclose(got, [2 / 3, 1 / 3], atol=1e-12)

    def test_doubly_stochastic_is_uniform(self):
        trans = np.array(
            [
                [0.4, 0.3, 0.2, 0.1],
                [0.3, 0.4, 0.1, 0.2],
                [0.2, 0.1, 0.4, 0.3],
                [0.1, 0.2, 0.3, 0.4],
            ]
        )
        got = stationary_distribution(trans)
        assert np.allclose(got, 0.25, atol=1e-10)

    def test_fixed_point_residual_small(self):
        from cnvlink.simulate import DEFAULT_TRANS

        got = stationary_distribution(DEFAULT_TRANS)
        assert float(np.max(np.abs(got @ DEFAULT_TRANS - got))) < 1e-10
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(got > 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="trans must be square"):
            stationary_distribution(np.ones((2, 3)) / 3)

    def test_non_stochastic_rejected(self):
        with pytest.raises(NumericalError, match="matrix is not stochastic"):
            stationary_distribution(np.diag([1.2, 0.7]))

    def test_result_is_read_only(self):
        got = stationary_distribution(np.full((4, 4), 0.25))
        assert not got.flags.writeable
