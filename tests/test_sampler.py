"""The five Metropolis/Gibbs moves, chain driver, and checkpointing.

Exactness of the Metropolis moves is tested by bracketing: the acceptance
threshold implied by an independently computed joint-density difference is
approached from below (must accept) and above (must reject) with scripted
acceptance uniforms.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import gammaincc

import oracles
from cnvlink.config import (
    resolve,
    to_hmm_hyper,
    to_regression_hyper,
    to_sampler_config,
    to_scenario_spec,
)
from cnvlink.likelihood import log_marginal_likelihood, stationary_distribution
from cnvlink.model import (
    HmmHyper,
    NumericalError,
    RegressionHyper,
    SamplerConfig,
    ValidationError,
    validate,
)
from cnvlink.priors import log_assoc_prior, persistence_counts
import cnvlink.sampler as sampler
from cnvlink.sampler import INIT_THRESHOLDS, Kernel, Tallies, run_chain, tally_states
from cnvlink.simulate import simulate_dataset
from helpers import (
    ScriptedRNG,
    build_kernel_state,
    copy_state,
    density_kwargs,
    joint_log_density,
    make_cfg,
    make_ctx,
    proposal_u,
    raw_context,
)

UNIFORM_TRANS = np.full((4, 4), 0.25)


def wide_hmm_hyper(**kw):
    """Bounds far from the action, so truncation is statistically invisible."""
    base = dict(
        eta_loc=(-1.0, 0.0, 0.58, 1.0),
        eta_scale=(1.0, 1.0, 1.0, 2.0),
        eta_low=(-math.inf, -40.0, -30.0, -math.inf),
        eta_high=(-35.0, 40.0, 50.0, math.inf),
        prec_shape=(1.0, 1.0, 1.0, 1.0),
        prec_rate=(1.0, 1.0, 1.0, 1.0),
        sd_cap=(100.0, 100.0, 100.0, 100.0),
        trans_conc=(1.0, 1.0, 1.0, 1.0),
        amp_floor_tracks_gain=False,
    )
    base.update(kw)
    return HmmHyper(**base)


def bracket_instance():
    """A frozen miniature problem whose moves have computable totals."""
    rng = np.random.default_rng(77)
    n, n_genes, n_probes = 4, 3, 5
    means = np.array([-1.2, 0.0, 0.8, 1.7])
    sds = np.array([0.35, 0.3, 0.3, 0.45])
    states = rng.integers(1, 5, size=(n, n_probes)).astype(np.int8)
    x = means[states - 1] + 0.3 * rng.normal(size=states.shape)
    y = rng.normal(size=(n, n_genes))
    hyper = RegressionHyper(
        slab_prec=4.0, intercept_prec=0.5, resid_df=4.0, resid_scale=0.8,
        incl_a=0.3, incl_b=2.7, alpha=2.0,
    )
    hmm_hyper = HmmHyper(
        eta_loc=(-1.0, 0.0, 0.7, 1.5),
        eta_scale=(1.0, 1.0, 1.0, 2.0),
        eta_low=(-math.inf, -2.0, -1.5, -math.inf),
        eta_high=(-0.5, 2.0, 2.5, math.inf),
        prec_shape=(1.0, 1.0, 1.0, 1.0),
        prec_rate=(1.0, 1.0, 1.0, 1.0),
        sd_cap=(1.0, 1.0, 1.0, 2.0),
        trans_conc=(1.0, 1.0, 1.0, 1.0),
        amp_floor_tracks_gain=False,
    )
    cfg = make_cfg(neutral_mask_frac=1.0, flip_prob=0.5)
    ctx = raw_context(y, x, hyper=hyper, hmm_hyper=hmm_hyper, cfg=cfg)
    assoc = np.zeros((n_genes, n_probes), dtype=np.int8)
    assoc[0, 2] = 1
    assoc[1, 0] = 1
    assoc[2, 4] = 1
    trans = np.array(
        [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ]
    )
    return ctx, assoc, states, trans, means, sds


def fresh_kernel(instance):
    ctx, assoc, states, trans, means, sds = instance
    return build_kernel_state(
        ctx, assoc=assoc, states=states, trans=trans, means=means, sds=sds
    )


def state_move_total(kernel, state, i, m, new):
    """Independent Metropolis log threshold for a single-element state move."""
    old = int(state.states[i, m])
    trial = copy_state(state)
    trial.states[i, m] = new
    delta = joint_log_density(kernel, trial, oracles) - joint_log_density(
        kernel, state, oracles
    )
    if m == 0:
        prop_row = state.stat_dist
    else:
        prop_row = state.trans[int(state.states[i, m - 1]) - 1]
    return delta + math.log(prop_row[old - 1]) - math.log(prop_row[new - 1])


def assoc_move_total(kernel, state, g, changes):
    trial = copy_state(state)
    for c, v in changes:
        trial.assoc[g, c] = v
    return joint_log_density(kernel, trial, oracles) - joint_log_density(
        kernel, state, oracles
    )


def assert_states_equal(a, b):
    assert np.array_equal(a.assoc, b.assoc)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.trans, b.trans)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.sds, b.sds)
    assert np.array_equal(a.persist_counts, b.persist_counts)
    assert np.allclose(a.gene_loglik, b.gene_loglik, rtol=0, atol=0)


# ---------------- initialization ----------------


class TestInitState:
    def test_threshold_states(self):
        x = np.array([[-0.5, 0.0, 0.3, 0.79, 1.0]])
        ctx = raw_context(np.zeros((1, 1)), x)
        kernel = Kernel(ctx)
        state = kernel.init_state(np.random.default_rng(0))
        assert state.states.tolist() == [[1, 2, 3, 3, 4]]

    def test_smoothed_transition_counts(self):
        x = np.array([[-0.5, 0.0, 0.3, 0.79, 1.0]])
        ctx = raw_context(np.zeros((1, 1)), x)
        state = Kernel(ctx).init_state(np.random.default_rng(0))
        expected = np.array(
            [
                [1, 2, 1, 1],
                [1, 1, 2, 1],
                [1, 1, 2, 2],
                [1, 1, 1, 1],
            ],
            dtype=float,
        )
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(state.trans, expected, atol=1e-15)
        assert np.allclose(
            state.stat_dist, stationary_distribution(state.trans), atol=1e-12
        )

    def test_starts_with_no_inclusions_and_matching_caches(self):
        ctx = make_ctx(n=5, n_genes=3, n_probes=4, seed=3)
        kernel = Kernel(ctx)
        state = kernel.init_state(np.random.default_rng(1))
        assert not state.assoc.any()
        for g in range(3):
            want = log_marginal_likelihood(
                ctx.data.y[:, g], state.states, np.zeros(4, dtype=np.int8), ctx.hyper
            )
            assert state.gene_loglik[g] == pytest.approx(want, abs=1e-12)
        persist = (state.states[:, 1:] == state.states[:, :-1]).sum(axis=0)
        assert np.array_equal(state.persist_counts, persist)

    def test_drawn_parameters_respect_bounds(self):
        ctx = make_ctx(n=6, n_genes=2, n_probes=5, seed=9)
        hh = ctx.hmm_hyper
        for seed in range(8):
            state = Kernel(ctx).init_state(np.random.default_rng(seed))
            assert np.all(state.sds <= np.asarray(hh.sd_cap))
            assert np.all(state.sds > 0)
            assert np.all(state.means > np.asarray(hh.eta_low))
            assert np.all(state.means < np.asarray(hh.eta_high))
            # dosage ordering: the top state's floor tracks the gain state
            assert state.means[3] > state.means[2] + state.sds[2]

    def test_every_chain_seed_starts_on_the_default_dataset(self):
        # A low initial amp mean puts the gain mean's upper bound far below
        # its conditional; on this dataset nine of these seeds used to stop
        # the fit at the first sweep with a degenerate truncation.
        resolved, _ = resolve(None, {})
        data = simulate_dataset(to_scenario_spec(resolved))[0]
        ctx = validate(
            data, to_regression_hyper(resolved), to_hmm_hyper(resolved),
            to_sampler_config(resolved), standardize=resolved["fit.standardize"],
        )
        kernel = Kernel(ctx)
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(seed))
            state = kernel.init_state(rng)
            for _ in range(3):
                kernel.sweep(state, rng)
            kernel.check_coherence(state)


# ---------------- move 1: inclusion matrix ----------------


class TestAssocMove:
    def masked_kernel(self, frac=0.9):
        """All states neutral, so every column is masked at the default
        fraction and the zero inclusion row has no legal proposal."""
        rng = np.random.default_rng(5)
        n, n_genes, n_probes = 4, 2, 3
        y = rng.normal(size=(n, n_genes))
        x = 0.05 * rng.normal(size=(n, n_probes))
        cfg = make_cfg(neutral_mask_frac=frac, flip_prob=0.5)
        ctx = raw_context(y, x, cfg=cfg)
        return build_kernel_state(
            ctx,
            assoc=np.zeros((n_genes, n_probes), dtype=np.int8),
            states=np.full((n, n_probes), 2, dtype=np.int8),
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.array([0.3, 0.3, 0.3, 0.4]),
        )

    def test_fully_masked_flip_is_noop(self):
        kernel, state = self.masked_kernel()
        srng = ScriptedRNG(0)
        srng.push("geometric", 1)
        srng.push("choice", [0])
        srng.push("random", 0.4)  # below flip_prob: flip branch
        before = srng.bit_generator.state
        kernel.update_assoc(state, srng)
        assert kernel.stats.assoc_noop == 1
        assert kernel.stats.add_proposed == 0
        assert not state.assoc.any()
        srng.assert_exhausted()
        assert srng.bit_generator.state == before

    def test_swap_with_no_inclusions_is_noop(self):
        kernel, state = self.masked_kernel()
        srng = ScriptedRNG(0)
        srng.push("geometric", 1)
        srng.push("choice", [1])
        srng.push("random", 0.9)  # swap branch
        before = srng.bit_generator.state
        kernel.update_assoc(state, srng)
        assert kernel.stats.assoc_noop == 1
        assert kernel.stats.swap_proposed == 0
        assert srng.bit_generator.state == before

    def test_swap_with_no_eligible_target_is_noop(self):
        kernel, state = self.masked_kernel()
        state.assoc[0] = 1  # fully included row, nothing unmasked to swap in
        state.gene_loglik[0] = kernel._gene_loglik(0, state.assoc[0], state.states)
        srng = ScriptedRNG(0)
        srng.push("geometric", 1)
        srng.push("choice", [0])
        srng.push("random", 0.9)
        kernel.update_assoc(state, srng)
        assert kernel.stats.assoc_noop == 1
        srng.assert_exhausted()

    def test_mask_boundary_column_eligible_at_exact_fraction(self):
        # 10 samples at fraction 0.9: a column with exactly 9 neutral samples
        # stays eligible, one with 10 is masked.
        rng = np.random.default_rng(6)
        n, n_probes = 10, 2
        y = rng.normal(size=(n, 1))
        x = rng.normal(size=(n, n_probes))
        cfg = make_cfg(neutral_mask_frac=0.9, flip_prob=0.5)
        ctx = raw_context(y, x, cfg=cfg)
        states = np.full((n, n_probes), 2, dtype=np.int8)
        states[0, 0] = 3  # column 0: nine neutrals; column 1: ten
        kernel, state = build_kernel_state(
            ctx,
            assoc=np.zeros((1, n_probes), dtype=np.int8),
            states=states,
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.array([0.3, 0.3, 0.3, 0.4]),
        )
        srng = ScriptedRNG(0)
        srng.push("geometric", 1)
        srng.push("choice", [0])
        srng.push("random", 0.4)  # flip branch
        srng.push("integers", 0)  # the only candidate: column 0
        srng.push("random", 1e-300)  # force acceptance
        kernel.update_assoc(state, srng)
        srng.assert_exhausted()
        assert state.assoc[0, 0] == 1
        assert state.assoc[0, 1] == 0
        assert kernel.stats.add_proposed == 1
        assert kernel.stats.add_accepted == 1

    def find_flip(self, kernel, state, lo=-200.0, hi=-0.05):
        for g in range(kernel.n_genes):
            for c in range(kernel.n_probes):
                v = 1 - int(state.assoc[g, c])
                t = assoc_move_total(kernel, state, g, ((c, v),))
                if lo < t < hi:
                    return g, c, v, t
        raise AssertionError("no flip with a total in the bracket range")

    def test_flip_acceptance_bracket(self):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        g, c, v, t = self.find_flip(kernel0, state0)
        for offset, expect_accept in ((-1e-6, True), (1e-6, False)):
            kernel, state = fresh_kernel(instance)
            original = copy_state(state)
            srng = ScriptedRNG(1)
            srng.push("geometric", 1)
            srng.push("choice", [g])
            srng.push("random", 0.4)  # flip branch
            srng.push("integers", c)  # frac 1.0: candidates are all columns
            srng.push("random", math.exp(t + offset))
            kernel.update_assoc(state, srng)
            srng.assert_exhausted()
            if expect_accept:
                assert state.assoc[g, c] == v
                kernel.check_coherence(state)
                move = "add" if v == 1 else "delete"
                assert getattr(kernel.stats, f"{move}_accepted") == 1
            else:
                assert_states_equal(state, original)
                assert kernel.stats.add_accepted + kernel.stats.delete_accepted == 0

    def test_swap_acceptance_bracket(self):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        g = 0  # has column 2 included
        m_out = 2
        target = None
        for c in range(kernel0.n_probes):
            if state0.assoc[g, c] == 1 or c == m_out:
                continue
            t = assoc_move_total(kernel0, state0, g, ((m_out, 0), (c, 1)))
            if -200.0 < t < -0.05:
                target = (c, t)
                break
        assert target is not None, "no swap with a total in the bracket range"
        c, t = target
        excluded = np.flatnonzero(state0.assoc[g] == 0)
        idx_in = int(np.flatnonzero(excluded == c)[0])
        for offset, expect_accept in ((-1e-6, True), (1e-6, False)):
            kernel, state = fresh_kernel(instance)
            original = copy_state(state)
            srng = ScriptedRNG(2)
            srng.push("geometric", 1)
            srng.push("choice", [g])
            srng.push("random", 0.9)  # swap branch
            srng.push("integers", 0)  # index into included columns = (2,)
            srng.push("integers", idx_in)
            srng.push("random", math.exp(t + offset))
            kernel.update_assoc(state, srng)
            srng.assert_exhausted()
            assert kernel.stats.swap_proposed == 1
            if expect_accept:
                assert state.assoc[g, m_out] == 0
                assert state.assoc[g, c] == 1
                assert kernel.stats.swap_accepted == 1
                kernel.check_coherence(state)
            else:
                assert_states_equal(state, original)
                assert kernel.stats.swap_accepted == 0

    def test_overwhelming_signal_keeps_inclusion(self):
        # One gene, one informative column plus one masked all-neutral
        # column; the response is the selected column at coefficient 5 with
        # noise 0.01, so the inclusion should essentially never leave.
        rng = np.random.default_rng(8)
        n = 12
        col = np.array([1, 2, 3, 4, 1, 2, 3, 4, 2, 3, 1, 4], dtype=np.int8)
        states = np.column_stack([col, np.full(n, 2, dtype=np.int8)])
        y = (5.0 * col + 0.01 * rng.normal(size=n)).reshape(-1, 1)
        x = rng.normal(size=(n, 2))
        hyper = RegressionHyper(
            slab_prec=1.0, intercept_prec=1e-6, resid_df=3.0, resid_scale=0.05
        )
        cfg = make_cfg(neutral_mask_frac=0.9, flip_prob=1.0, gene_block_p=0.5)
        ctx = raw_context(y, x, hyper=hyper, cfg=cfg)
        kernel, state = build_kernel_state(
            ctx,
            assoc=np.zeros((1, 2), dtype=np.int8),
            states=states,
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.array([0.3, 0.3, 0.3, 0.4]),
        )
        rng_run = np.random.default_rng(99)
        included = 0
        for it in range(3000):
            kernel.update_assoc(state, rng_run)
            if it >= 1000:
                included += int(state.assoc[0, 0])
        assert included / 2000 > 0.95
        assert state.assoc[0, 1] == 0  # the masked column never joins


# ---------------- move 2: state matrix column ----------------


class TestStateMove:
    def test_identical_proposal_accepted_without_uniform(self):
        instance = bracket_instance()
        kernel, state = fresh_kernel(instance)
        i, m = 1, 2
        old = int(state.states[i, m])
        left = int(state.states[i, m - 1])
        cum = np.cumsum(state.trans[left - 1])
        srng = ScriptedRNG(3)
        srng.push("integers", m)
        srng.push("geometric", 1)
        srng.push("choice", [i])
        srng.push("random", proposal_u(cum, old))
        before = srng.bit_generator.state
        original = copy_state(state)
        kernel.update_states(state, srng)
        srng.assert_exhausted()
        assert srng.bit_generator.state == before
        assert kernel.stats.state_proposed == 1
        assert kernel.stats.state_accepted == 1
        assert_states_equal(state, original)

    def find_state_move(self, kernel, state, want_genes, lo=-200.0, hi=-0.05, m_only=None):
        for m in range(kernel.n_probes):
            if m_only is not None and m != m_only:
                continue
            has_genes = bool((state.assoc[:, m] == 1).any())
            if has_genes != want_genes and m_only is None:
                continue
            for i in range(kernel.n):
                old = int(state.states[i, m])
                for new in range(1, 5):
                    if new == old:
                        continue
                    t = state_move_total(kernel, state, i, m, new)
                    if lo < t < hi:
                        return i, m, new, t
        raise AssertionError("no state move with a total in the bracket range")

    def run_state_bracket(self, instance, i, m, new, t, offset):
        kernel, state = fresh_kernel(instance)
        original = copy_state(state)
        if m == 0:
            cum = np.cumsum(state.stat_dist)
        else:
            left = int(state.states[i, m - 1])
            cum = np.cumsum(state.trans[left - 1])
        srng = ScriptedRNG(4)
        srng.push("integers", m)
        srng.push("geometric", 1)
        srng.push("choice", [i])
        srng.push("random", proposal_u(cum, new))
        srng.push("random", math.exp(t + offset))
        kernel.update_states(state, srng)
        srng.assert_exhausted()
        return kernel, state, original

    @pytest.mark.parametrize("want_genes", [True, False])
    def test_acceptance_bracket(self, want_genes):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        i, m, new, t = self.find_state_move(kernel0, state0, want_genes)
        kernel, state, original = self.run_state_bracket(instance, i, m, new, t, -1e-6)
        assert state.states[i, m] == new
        assert kernel.stats.state_accepted == 1
        kernel.check_coherence(state)
        kernel, state, original = self.run_state_bracket(instance, i, m, new, t, 1e-6)
        assert_states_equal(state, original)
        assert kernel.stats.state_accepted == 0
        assert kernel.stats.state_proposed == 1

    def test_acceptance_bracket_first_column(self):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        i, m, new, t = self.find_state_move(kernel0, state0, True, m_only=0)
        kernel, state, _ = self.run_state_bracket(instance, i, m, new, t, -1e-6)
        assert state.states[i, 0] == new
        kernel.check_coherence(state)
        kernel, state, original = self.run_state_bracket(instance, i, m, new, t, 1e-6)
        assert_states_equal(state, original)

    def test_ratio_reduces_to_emission_markov_when_untouched(self):
        # A column no gene selects, with a proposal that leaves every
        # persistence indicator unchanged: the joint-density difference must
        # equal the two local emission/Markov terms alone.
        instance = bracket_instance()
        kernel, state = fresh_kernel(instance)
        found = None
        for m in range(1, kernel.n_probes - 1):
            if (state.assoc[:, m] == 1).any():
                continue
            for i in range(kernel.n):
                old = int(state.states[i, m])
                lv = int(state.states[i, m - 1])
                rv = int(state.states[i, m + 1])
                for new in range(1, 5):
                    if new == old or lv in (old, new) or rv in (old, new):
                        continue
                    found = (i, m, old, new, lv, rv)
                    break
                if found:
                    break
            if found:
                break
        assert found is not None
        i, m, old, new, lv, rv = found
        trial = copy_state(state)
        trial.states[i, m] = new
        delta = joint_log_density(kernel, trial, oracles) - joint_log_density(
            kernel, state, oracles
        )
        xm = float(kernel.x[i, m])
        zo = (xm - state.means[old - 1]) / state.sds[old - 1]
        zn = (xm - state.means[new - 1]) / state.sds[new - 1]
        manual = (-0.5 * zn * zn - math.log(state.sds[new - 1])) - (
            -0.5 * zo * zo - math.log(state.sds[old - 1])
        )
        manual += math.log(state.trans[lv - 1, new - 1]) - math.log(
            state.trans[lv - 1, old - 1]
        )
        manual += math.log(state.trans[new - 1, rv - 1]) - math.log(
            state.trans[old - 1, rv - 1]
        )
        assert delta == pytest.approx(manual, abs=1e-10)

    def test_caches_follow_accepted_move(self):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        i, m, new, t = self.find_state_move(kernel0, state0, True)
        kernel, state, _ = self.run_state_bracket(instance, i, m, new, t, -1e-6)
        persist = (state.states[:, 1:] == state.states[:, :-1]).sum(axis=0)
        assert np.array_equal(state.persist_counts, persist)
        for g in range(kernel.n_genes):
            fresh = kernel._gene_loglik(g, state.assoc[g], state.states)
            assert state.gene_loglik[g] == pytest.approx(fresh, abs=1e-9)


def row_hmm_logprob(state, x_row, row):
    """Log emission x Markov density of one state row: the row move's
    proposal law, up to its normalizing constant."""
    idx = np.asarray(row, dtype=np.int64) - 1
    total = math.log(state.stat_dist[idx[0]])
    total += float(np.log(state.trans[idx[:-1], idx[1:]]).sum())
    total += float(sps.norm.logpdf(x_row, state.means[idx], state.sds[idx]).sum())
    return total


def row_move_total(kernel, state, i, row):
    """Oracle-computed independence-Metropolis log threshold for replacing row i."""
    trial = copy_state(state)
    trial.states[i] = row
    delta = joint_log_density(kernel, trial, oracles) - joint_log_density(
        kernel, state, oracles
    )
    x_row = kernel.x[i]
    return delta - (
        row_hmm_logprob(state, x_row, row) - row_hmm_logprob(state, x_row, state.states[i])
    )


def enumerate_state_conditional(kernel, state):
    """Exact law of the whole state matrix given the inclusions and the
    frozen parameters, by brute force over all 4**(n * n_probes) matrices,
    indexed by :func:`oracles.column_config_index` of the flattened matrix."""
    n_cells = kernel.n * kernel.n_probes
    logw = np.empty(4 ** n_cells)
    for c in range(logw.size):
        flat = [((c >> (2 * k)) & 3) + 1 for k in range(n_cells)]
        states = np.array(flat, dtype=np.int8).reshape(kernel.n, kernel.n_probes)
        logw[c] = oracles.full_log_density(
            kernel.y, kernel.x, state.assoc, states,
            trans=state.trans, means=state.means, sds=state.sds,
            stat_dist=state.stat_dist, **density_kwargs(kernel),
        )
    probs = np.exp(logw - logw.max())
    return probs / probs.sum()


TOY_TRANS = np.array(
    [
        [0.4, 0.3, 0.2, 0.1],
        [0.25, 0.35, 0.25, 0.15],
        [0.15, 0.25, 0.35, 0.25],
        [0.1, 0.2, 0.3, 0.4],
    ]
)


def toy_row_problem(name):
    """Frozen-parameter problems with a fixed nonzero inclusion row."""
    if name == "criterion4_toy":
        # the 4 x 2 problem of acceptance criterion 4, gene fixed on probe 0
        y = np.array([[-0.8], [0.1], [0.5], [1.2]])
        x = np.array([[-1.05, 0.10], [0.05, 0.75], [0.62, 0.68], [1.45, 1.50]])
        hyper = RegressionHyper(
            slab_prec=1.0, intercept_prec=1.0, resid_df=4.0, resid_scale=1.0,
            incl_a=1.0, incl_b=3.0, alpha=2.0,
        )
        assoc = np.array([[1, 0]], dtype=np.int8)
        sds = np.array([0.3, 0.3, 0.3, 0.45])
    else:
        # two samples over three probes: the middle site is interior, so
        # its selection-prior weights follow the persistence counts
        y = np.array([[-0.5], [0.9]])
        x = np.array([[0.3, 0.35, 0.9], [-0.4, 0.2, 0.45]])
        hyper = RegressionHyper(
            slab_prec=1.0, intercept_prec=1.0, resid_df=4.0, resid_scale=1.0,
            incl_a=1.0, incl_b=3.0, alpha=0.5,
        )
        assoc = np.array([[1, 1, 0]], dtype=np.int8)
        sds = np.array([0.3, 0.3, 0.3, 0.45])
    ctx = raw_context(y, x, hyper=hyper)
    return build_kernel_state(
        ctx, assoc=assoc, states=np.full(x.shape, 2, dtype=np.int8),
        trans=TOY_TRANS, means=np.array([-1.0, 0.0, 0.7, 1.6]), sds=sds,
    )


class TestStateRowMove:
    def test_ffbs_draws_follow_the_hmm_conditional(self):
        # One row of four probes: the backward-sampled rows must follow the
        # emission x Markov law, enumerated over all 256 rows. The draws are
        # independent; at 40k of them the noise floor on total variation
        # sits around 0.008.
        kernel, state = toy_row_problem("interior_2x3")
        x_row = np.array([0.3, 0.35, 0.9, -0.6])
        rows = [np.array([((c >> (2 * k)) & 3) + 1 for k in range(4)]) for c in range(256)]
        logq = np.array([row_hmm_logprob(state, x_row, row) for row in rows])
        exact = np.exp(logq - logq.max())
        exact /= exact.sum()
        rng = np.random.default_rng(300)
        counts = np.zeros(256, dtype=np.int64)
        n_draws = 40_000
        for _ in range(n_draws):
            row = kernel._ffbs_row(x_row, state, rng.random(4))
            counts[oracles.column_config_index(row)] += 1
        tv = 0.5 * float(np.abs(counts / n_draws - exact).sum())
        assert tv < 0.02, f"total variation {tv:.4f}"

    @pytest.mark.parametrize("problem", ["criterion4_toy", "interior_2x3"])
    def test_row_move_alone_matches_enumeration(self, problem):
        # With inclusions and parameters frozen, the row move by itself must
        # leave the exact conditional law of the state matrix invariant. At
        # 100k calls the Monte Carlo noise floor on total variation sits
        # around 0.015 for both problems; dropping the selection-prior term
        # from the ratio moves the interior problem to about 0.15.
        kernel, state = toy_row_problem(problem)
        exact = enumerate_state_conditional(kernel, state)
        rng = np.random.default_rng(301)
        counts = np.zeros(exact.size, dtype=np.int64)
        n_calls = 100_000
        for _ in range(n_calls):
            kernel.update_state_row(state, rng)
            counts[oracles.column_config_index(state.states.ravel())] += 1
        kernel.check_coherence(state)
        tv = 0.5 * float(np.abs(counts / n_calls - exact).sum())
        assert tv < 0.03, f"total variation {tv:.4f}"
        stats = kernel.stats
        assert stats.row_proposed == n_calls
        assert 0 < stats.row_accepted < stats.row_proposed

    def find_row_move(self, kernel, state, lo=-200.0, hi=-0.05):
        rng = np.random.default_rng(302)
        for _ in range(500):
            i = int(rng.integers(kernel.n))
            row = rng.integers(1, 5, size=kernel.n_probes).astype(np.int8)
            changed = np.flatnonzero(row != state.states[i])
            if not state.assoc[:, changed].any():
                continue  # want the likelihood term in play
            t = row_move_total(kernel, state, i, row)
            if lo < t < hi:
                return i, row, t
        raise AssertionError("no row move with a total in the bracket range")

    def test_acceptance_bracket(self, monkeypatch):
        instance = bracket_instance()
        kernel0, state0 = fresh_kernel(instance)
        i, row, t = self.find_row_move(kernel0, state0)
        for offset, expect_accept in ((-1e-6, True), (1e-6, False)):
            kernel, state = fresh_kernel(instance)
            original = copy_state(state)
            monkeypatch.setattr(kernel, "_ffbs_row", lambda x_row, st, u: row.copy())
            srng = ScriptedRNG(6)
            srng.push("integers", i)
            srng.push("random", np.zeros(kernel.n_probes))  # backward uniforms
            srng.push("random", math.exp(t + offset))
            kernel.update_state_row(state, srng)
            srng.assert_exhausted()
            assert kernel.stats.row_proposed == 1
            if expect_accept:
                assert np.array_equal(state.states[i], row)
                assert kernel.stats.row_accepted == 1
                kernel.check_coherence(state)
            else:
                assert_states_equal(state, original)
                assert kernel.stats.row_accepted == 0

    def test_identical_proposal_accepted_without_uniform(self, monkeypatch):
        kernel, state = fresh_kernel(bracket_instance())
        i = 2
        current = state.states[i].copy()
        monkeypatch.setattr(kernel, "_ffbs_row", lambda x_row, st, u: current.copy())
        original = copy_state(state)
        srng = ScriptedRNG(7)
        srng.push("integers", i)
        kernel.update_state_row(state, srng)
        srng.assert_exhausted()
        reference = np.random.default_rng(7)
        reference.random(kernel.n_probes)  # only the backward uniforms
        assert srng.bit_generator.state == reference.bit_generator.state
        assert kernel.stats.row_proposed == 1
        assert kernel.stats.row_accepted == 1
        assert_states_equal(state, original)


def mask_instance(include):
    """Four samples over three probes at a mask fraction of 0.5: column 1 is
    neutral in two samples, the most the mask allows, and gene 0 selects it
    when ``include`` is set. Making cell (2, 1) neutral would mask it."""
    states = np.array([[1, 2, 3], [3, 2, 3], [2, 3, 3], [3, 3, 2]], dtype=np.int8)
    means = np.array([-1.0, 0.0, 0.7, 1.6])
    x = means[states - 1]
    x[2, 1] = 0.0  # the emission favours a neutral state there
    y = np.random.default_rng(40).normal(size=(4, 1))
    ctx = raw_context(y, x, cfg=make_cfg(neutral_mask_frac=0.5))
    assoc = np.zeros((1, 3), dtype=np.int8)
    assoc[0, 1] = int(include)
    return build_kernel_state(
        ctx, assoc=assoc, states=states, trans=UNIFORM_TRANS, means=means,
        sds=np.array([0.3, 0.3, 0.3, 0.4]),
    )


class TestMaskSupport:
    """No gene selects a column neutral in more than ``neutral_mask_frac`` of
    the samples: the state moves reject a change that would mask an included
    column, after drawing their acceptance uniform, and a state outside the
    support fails the coherence check and has log density -inf."""

    def run_column_move(self, include):
        kernel, state = mask_instance(include)
        original = copy_state(state)
        srng = ScriptedRNG(41)
        srng.push("integers", 1)
        srng.push("geometric", 1)
        srng.push("choice", [2])
        srng.push("random", proposal_u(np.cumsum(state.trans[1]), 2))
        srng.push("random", 1e-300)
        kernel.update_states(state, srng)
        srng.assert_exhausted()
        kernel.check_coherence(state)
        return kernel, state, original

    def run_row_move(self, include, monkeypatch):
        kernel, state = mask_instance(include)
        original = copy_state(state)
        proposal = np.array([2, 2, 3], dtype=np.int8)
        monkeypatch.setattr(kernel, "_ffbs_row", lambda x_row, st, u: proposal.copy())
        srng = ScriptedRNG(42)
        srng.push("integers", 2)
        srng.push("random", np.zeros(kernel.n_probes))  # backward uniforms
        srng.push("random", 1e-300)
        kernel.update_state_row(state, srng)
        srng.assert_exhausted()
        kernel.check_coherence(state)
        return kernel, state, original

    @pytest.mark.parametrize("include", [True, False])
    def test_column_move_that_masks_an_included_column_is_rejected(self, include):
        kernel, state, original = self.run_column_move(include)
        assert kernel.stats.state_proposed == 1
        if include:
            assert_states_equal(state, original)
            assert kernel.stats.state_accepted == 0
        else:  # the same move at a column no gene selects
            assert state.states[2, 1] == 2
            assert kernel.stats.state_accepted == 1

    @pytest.mark.parametrize("include", [True, False])
    def test_row_move_that_masks_an_included_column_is_rejected(self, include, monkeypatch):
        kernel, state, original = self.run_row_move(include, monkeypatch)
        assert kernel.stats.row_proposed == 1
        if include:
            assert_states_equal(state, original)
            assert kernel.stats.row_accepted == 0
        else:  # the same move at a column no gene selects
            assert np.array_equal(state.states[2], [2, 2, 3])
            assert kernel.stats.row_accepted == 1

    def test_inclusion_at_a_masked_column_leaves_the_support(self):
        kernel, state = mask_instance(include=False)
        assert math.isfinite(kernel.log_posterior(state))
        state.assoc[0, 1] = 1
        state.states[2, 1] = 2
        state.tallies = tally_states(kernel.x, state.states)
        state.persist_counts = persistence_counts(state.states)
        state.gene_loglik[0] = kernel._gene_loglik(0, state.assoc[0], state.states)
        with pytest.raises(NumericalError, match="inclusion of gene 0 at column 1 lies outside"):
            kernel.check_coherence(state)
        assert kernel.log_posterior(state) == -math.inf


# ---------------- moves 3 and 4: emission parameters ----------------


class TestMeansMove:
    def test_conjugate_posterior_moments(self):
        # Four neutral cells averaging 1 with unit noise and a standard
        # normal prior: the conditional is N(0.8, 0.2).
        x = np.array([[0.5, 1.5, 0.8, 1.2]])
        ctx = raw_context(np.zeros((1, 1)), x, hmm_hyper=wide_hmm_hyper())
        kernel, state = build_kernel_state(
            ctx,
            assoc=np.zeros((1, 4), dtype=np.int8),
            states=np.full((1, 4), 2, dtype=np.int8),
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.ones(4),
        )
        rng = np.random.default_rng(200)
        draws = np.empty(15_000)
        for k in range(draws.size):
            kernel.update_means(state, rng)
            draws[k] = state.means[1]
        se = math.sqrt(0.2 / draws.size)
        assert abs(draws.mean() - 0.8) < 3 * se
        assert draws.var() == pytest.approx(0.2, rel=0.05)

    def test_empty_state_draws_from_prior(self):
        x = np.array([[0.5, 1.5, 0.8, 1.2]])
        ctx = raw_context(np.zeros((1, 1)), x, hmm_hyper=wide_hmm_hyper())
        kernel, state = build_kernel_state(
            ctx,
            assoc=np.zeros((1, 4), dtype=np.int8),
            states=np.full((1, 4), 2, dtype=np.int8),
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.ones(4),
        )
        rng = np.random.default_rng(201)
        draws = np.empty(15_000)
        for k in range(draws.size):
            kernel.update_means(state, rng)
            draws[k] = state.means[3]  # no amplified cells anywhere
        se = 2.0 / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se
        assert draws.std() == pytest.approx(2.0, rel=0.05)

    def test_top_state_floor_tracks_gain(self):
        ctx = make_ctx(n=4, n_genes=2, n_probes=3, seed=11)
        assert ctx.hmm_hyper.amp_floor_tracks_gain
        kernel = Kernel(ctx)
        state = kernel.init_state(np.random.default_rng(0))
        rng = np.random.default_rng(202)
        for _ in range(400):
            kernel.update_means(state, rng)
            assert state.means[3] > state.means[2] + state.sds[2]
        # the floor is a support constraint, so every full sweep keeps it;
        # with burn-in 0 and thin 1 the trace holds the state after each one,
        # and the per-sweep debug check raises on any violation
        cfg = make_cfg(iterations=400, burn_in=0, thin=1, seed=5, debug_checks=True)
        trace = run_chain(make_ctx(n=4, n_genes=2, n_probes=3, seed=11, cfg=cfg))
        means, sds = trace.means_samples, trace.sds_samples
        assert trace.n_kept == 400
        assert np.all(means[:, 3] > means[:, 2] + sds[:, 2])

    def floor_kernel(self):
        """Gain cells spread widely around 0.7 and no amp cells, with the amp
        mean just above the gain mean: the unconstrained gain conditionals
        would put the gain sd near its cap and the gain mean near 0.7."""
        x = np.array([[0.3, 1.1, 0.5, 0.9, 0.7, 0.2, 1.2, 0.7]])
        hh = HmmHyper(eta_high=(-0.1, 0.1, 2.0, math.inf))  # only the floor binds
        ctx = raw_context(np.zeros((1, 1)), x, hmm_hyper=hh)
        return build_kernel_state(
            ctx,
            assoc=np.zeros((1, x.shape[1]), dtype=np.int8),
            states=np.full(x.shape, 3, dtype=np.int8),
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.6, 0.8]),
            sds=np.array([0.3, 0.3, 0.1, 0.3]),
        )

    def test_gain_mean_is_bounded_by_the_floor(self):
        kernel, state = self.floor_kernel()
        rng = np.random.default_rng(203)
        for _ in range(300):
            state.means[3] = 0.8
            kernel.update_means(state, rng)
            assert state.means[2] < 0.8 - state.sds[2]
            assert state.means[3] > state.means[2] + state.sds[2]

    def test_gain_sd_is_bounded_by_the_floor(self):
        kernel, state = self.floor_kernel()
        rng = np.random.default_rng(204)
        for _ in range(300):
            kernel.update_sds(state, rng)
            assert state.sds[2] < 0.8 - 0.6
            assert state.means[3] > state.means[2] + state.sds[2]


class TestSdsMove:
    def build(self, x, states, means):
        ctx = raw_context(np.zeros((x.shape[0], 1)), x, hmm_hyper=wide_hmm_hyper())
        return build_kernel_state(
            ctx,
            assoc=np.zeros((1, x.shape[1]), dtype=np.int8),
            states=states,
            trans=UNIFORM_TRANS,
            means=means,
            sds=np.ones(4),
        )

    def test_conjugate_posterior_moments(self):
        # Two neutral cells with squared residual sum 2 and Gamma(1, 1)
        # prior: the precision conditional is Gamma(2, 2).
        kernel, state = self.build(
            np.array([[1.0, -1.0]]),
            np.full((1, 2), 2, dtype=np.int8),
            np.array([-1.0, 0.0, 0.7, 1.6]),
        )
        rng = np.random.default_rng(210)
        draws = np.empty(25_000)
        for k in range(draws.size):
            state.means[1] = 0.0
            kernel.update_sds(state, rng)
            draws[k] = state.sds[1] ** -2
        se = math.sqrt(0.5 / draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se
        assert draws.var() == pytest.approx(0.5, rel=0.06)

    def test_zero_residuals_gamma_counts_only(self):
        # Ten cells exactly at their state mean: rate stays at the prior and
        # the shape gains n/2, giving Gamma(6, 1) for the precision.
        kernel, state = self.build(
            np.full((1, 10), -1.0),
            np.ones((1, 10), dtype=np.int8),
            np.array([-1.0, 0.0, 0.7, 1.6]),
        )
        rng = np.random.default_rng(211)
        draws = np.empty(25_000)
        for k in range(draws.size):
            state.means[0] = -1.0
            kernel.update_sds(state, rng)
            draws[k] = state.sds[0] ** -2
        se = math.sqrt(6.0 / draws.size)
        assert abs(draws.mean() - 6.0) < 3 * se

    def test_caps_respected_with_default_priors(self):
        ctx = make_ctx(n=5, n_genes=2, n_probes=4, seed=13)
        kernel = Kernel(ctx)
        state = kernel.init_state(np.random.default_rng(0))
        rng = np.random.default_rng(212)
        cap = np.asarray(ctx.hmm_hyper.sd_cap)
        for _ in range(300):
            kernel.update_sds(state, rng)
            assert np.all(state.sds <= cap)


# ---------------- move 5: transition matrix ----------------


def stationary_by_solve(a):
    m = np.vstack([(a.T - np.eye(4))[:3], np.ones(4)])
    return np.linalg.solve(m, np.array([0.0, 0.0, 0.0, 1.0]))


class TestTransMove:
    def designed_rows(self):
        """20 two-probe rows whose first-column occupancy (4, 10, 4, 2)
        roughly matches the stationary law of the posterior-mean matrix, so
        the held-out initial-state factor tilts the transition posterior by
        well under the tolerance (importance-sampled exact mean: 0.567
        against the no-correction value 4/7)."""
        rows = (
            [[1, 1]] + [[1, 2]] * 3
            + [[2, 1]] * 2 + [[2, 2]] * 7 + [[2, 3]]
            + [[3, 1]] + [[3, 2]] * 2 + [[3, 3]]
            + [[4, 2]] + [[4, 4]]
        )
        return np.array(rows, dtype=np.int8)

    def build(self, states):
        n, n_probes = states.shape
        rng = np.random.default_rng(20)
        ctx = raw_context(
            rng.normal(size=(n, 1)), 0.1 * rng.normal(size=(n, n_probes)),
            cfg=make_cfg(),
        )
        return build_kernel_state(
            ctx,
            assoc=np.zeros((1, n_probes), dtype=np.int8),
            states=states,
            trans=UNIFORM_TRANS,
            means=np.array([-1.0, 0.0, 0.7, 1.6]),
            sds=np.array([0.3, 0.3, 0.3, 0.4]),
        )

    def test_long_run_mean_matches_conjugate_row(self):
        # Second-row transition counts (2, 7, 1, 0) give a Dirichlet
        # conditional with mean 8/14 on the self-loop; the designed rows keep
        # the initial-state correction an order of magnitude below the
        # tolerance.
        kernel, state = self.build(self.designed_rows())
        rng = np.random.default_rng(2100)
        total = 0.0
        kept = 0
        for it in range(22_000):
            kernel.update_trans(state, rng)
            if it >= 2_000:
                total += float(state.trans[1, 1])
                kept += 1
        assert kernel.stats.trans_accepted > 0
        assert abs(total / kept - 8.0 / 14.0) < 0.05

    def test_acceptance_bracket(self):
        # Six rows starting in state 1, proposal whose stationary mass on
        # state 1 collapses to 1/16: the held-out initial-state factor gives
        # log ratio 6 * log(1/4), crossed from both sides.
        states = np.tile(np.array([[1, 1]], dtype=np.int8), (6, 1))
        proposal = [
            np.array([0.25, 0.25, 0.25, 0.25]),
            np.array([0.05, 0.65, 0.15, 0.15]),
            np.array([0.05, 0.15, 0.65, 0.15]),
            np.array([0.05, 0.15, 0.15, 0.65]),
        ]
        new_stat = stationary_by_solve(np.array(proposal))
        log_ratio = 6.0 * (math.log(new_stat[0]) - math.log(0.25))
        assert -200.0 < log_ratio < -0.05  # the design must actually penalize
        for offset, expect_accept in ((-1e-6, True), (1e-6, False)):
            kernel, state = self.build(states)
            srng = ScriptedRNG(5)
            for row in proposal:
                srng.push("dirichlet", row)
            srng.push("random", math.exp(log_ratio + offset))
            kernel.update_trans(state, srng)
            srng.assert_exhausted()
            assert kernel.stats.trans_proposed == 1
            if expect_accept:
                assert np.array_equal(state.trans, np.array(proposal))
                assert np.allclose(state.stat_dist, new_stat, atol=1e-9)
                assert kernel.stats.trans_accepted == 1
                kernel.check_coherence(state)
            else:
                assert np.array_equal(state.trans, UNIFORM_TRANS)
                assert np.allclose(state.stat_dist, 0.25)
                assert kernel.stats.trans_accepted == 0

    def test_degenerate_proposal_consumes_no_acceptance_uniform(self):
        kernel, state = self.build(self.designed_rows())
        srng = ScriptedRNG(6)
        srng.push("dirichlet", np.array([0.5, 0.5, 0.0, 0.0]))
        for _ in range(3):
            srng.push("dirichlet", np.array([0.25, 0.25, 0.25, 0.25]))
        before = srng.bit_generator.state
        kernel.update_trans(state, srng)
        srng.assert_exhausted()
        assert srng.bit_generator.state == before
        assert kernel.stats.trans_proposed == 1
        assert kernel.stats.trans_degenerate == 1
        assert kernel.stats.trans_accepted == 0
        assert np.array_equal(state.trans, UNIFORM_TRANS)


# ---------------- joint density bookkeeping ----------------


class TestLogPosterior:
    def test_decomposes_into_oracle_plus_parameter_priors(self):
        instance = bracket_instance()
        kernel, state = fresh_kernel(instance)
        hh = kernel.hmm_hyper
        param_prior = 0.0
        for j in range(4):
            lo, hi = float(hh.eta_low[j]), float(hh.eta_high[j])
            mean, sd = float(hh.eta_loc[j]), float(hh.eta_scale[j])
            param_prior += sps.truncnorm(
                (lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd
            ).logpdf(float(state.means[j]))
            shape, rate = float(hh.prec_shape[j]), float(hh.prec_rate[j])
            bound = float(hh.sd_cap[j]) ** -2
            prec = float(state.sds[j]) ** -2
            param_prior += sps.gamma(shape, scale=1.0 / rate).logpdf(prec) - math.log(
                float(gammaincc(shape, rate * bound))
            )
            param_prior += sps.dirichlet(np.asarray(hh.trans_conc)).logpdf(
                state.trans[j]
            )
        want = joint_log_density(kernel, state, oracles) + param_prior
        assert kernel.log_posterior(state) == pytest.approx(want, rel=1e-9)

    def test_delta_matches_oracle_across_an_inclusion_change(self):
        instance = bracket_instance()
        kernel, state = fresh_kernel(instance)
        before = kernel.log_posterior(state)
        trial = copy_state(state)
        trial.assoc[1, 3] = 1
        trial.gene_loglik[1] = kernel._gene_loglik(1, trial.assoc[1], trial.states)
        after = kernel.log_posterior(trial)
        want = assoc_move_total(kernel, state, 1, ((3, 1),))
        assert after - before == pytest.approx(want, abs=1e-9)


class TestPriorDeltasMatchMonitor:
    """The selection-prior changes the moves use against the prior the
    ``log_posterior`` monitor and the public API evaluate."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_move_deltas_equal_log_assoc_prior_differences(self, data):
        n = data.draw(st.integers(1, 4))
        n_genes = data.draw(st.integers(1, 3))
        n_probes = data.draw(st.integers(2, 6))
        alpha = data.draw(st.one_of(st.just(math.inf), st.floats(0.05, 50.0)))
        hyper = RegressionHyper(
            resid_scale=0.05, alpha=alpha,
            incl_a=data.draw(st.floats(0.01, 5.0)), incl_b=data.draw(st.floats(0.01, 5.0)),
        )
        gaps = np.array(data.draw(st.lists(
            st.floats(0.0, 2.0), min_size=n_probes - 1, max_size=n_probes - 1)))
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        fragment_length = float(pos[-1]) + data.draw(st.floats(0.5, 3.0))

        def matrix(rows, lo, hi):
            cells = data.draw(st.lists(
                st.integers(lo, hi), min_size=rows * n_probes, max_size=rows * n_probes))
            return np.array(cells, dtype=np.int8).reshape(rows, n_probes)

        assoc, states, new_states = matrix(n_genes, 0, 1), matrix(n, 1, 4), matrix(n, 1, 4)
        g = data.draw(st.integers(0, n_genes - 1))
        new_assoc = assoc.copy()
        new_assoc[g] = matrix(1, 0, 1)[0]
        kernel = Kernel(raw_context(
            np.zeros((n, n_genes)), np.zeros((n, n_probes)),
            pos=pos, fragment_length=fragment_length, hyper=hyper,
        ))

        def monitor(a, xi):
            return log_assoc_prior(a, xi, pos, fragment_length, hyper)

        counts = persistence_counts(states)
        row_delta = kernel._row_selection_delta(assoc[g], new_assoc[g], kernel._adjacency(counts))
        assert row_delta == pytest.approx(
            monitor(new_assoc, states) - monitor(assoc, states), rel=0, abs=1e-12
        )
        state_delta = kernel._selection_delta(assoc, counts, persistence_counts(new_states))
        assert state_delta == pytest.approx(
            monitor(assoc, new_states) - monitor(assoc, states), rel=0, abs=1e-12
        )


class TestCoherenceChecks:
    def test_clean_state_passes(self):
        kernel, state = fresh_kernel(bracket_instance())
        kernel.check_coherence(state)

    def test_gene_cache_drift_detected(self):
        kernel, state = fresh_kernel(bracket_instance())
        state.gene_loglik[0] += 1.0
        with pytest.raises(NumericalError, match="cached log likelihood for gene 0 drifted"):
            kernel.check_coherence(state)

    def test_persistence_drift_detected(self):
        kernel, state = fresh_kernel(bracket_instance())
        state.persist_counts[0] += 1
        with pytest.raises(NumericalError, match="cached persistence counts drifted"):
            kernel.check_coherence(state)

    def test_stationary_drift_detected(self):
        kernel, state = fresh_kernel(bracket_instance())
        state.stat_dist = np.array([0.4, 0.2, 0.2, 0.2])
        with pytest.raises(NumericalError, match="stationary cache drifted"):
            kernel.check_coherence(state)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tallies)])
    def test_tally_drift_detected(self, name):
        kernel, state = fresh_kernel(bracket_instance())
        tally = getattr(state.tallies, name)
        if tally.dtype.kind == "f":
            tally.flat[0] = np.nextafter(tally.flat[0], math.inf)
        else:
            tally.flat[0] += 1
        with pytest.raises(NumericalError, match=f"cached tally '{name}' drifted"):
            kernel.check_coherence(state)

    def test_amp_floor_violation_leaves_the_support(self):
        kernel = Kernel(make_ctx(n=4, n_genes=2, n_probes=3, seed=11))
        state = kernel.init_state(np.random.default_rng(0))
        kernel.check_coherence(state)
        assert math.isfinite(kernel.log_posterior(state))
        state.means[3] = state.means[2] + 0.5 * state.sds[2]
        with pytest.raises(NumericalError, match="amp floor violated"):
            kernel.check_coherence(state)
        assert kernel.log_posterior(state) == -math.inf


class TestTallies:
    """Every move leaves the state matrix's tallies equal to a fresh build,
    bit for bit."""

    MOVES = (
        "update_assoc", "update_states", "update_state_row",
        "update_means", "update_sds", "update_trans",
    )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 5), n_genes=st.integers(1, 3), n_probes=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tallies_equal_a_fresh_build_after_every_move(self, n, n_genes, n_probes, seed):
        rng = np.random.default_rng(seed)
        centres = np.array([-1.0, 0.0, 0.58, 1.0])
        x = centres[rng.integers(0, 4, size=(n, n_probes))] + 0.3 * rng.normal(size=(n, n_probes))
        ctx = raw_context(
            rng.normal(size=(n, n_genes)), x, hmm_hyper=wide_hmm_hyper(),
            cfg=make_cfg(neutral_mask_frac=0.5),
        )
        kernel = Kernel(ctx)
        state = kernel.init_state(rng)
        for _ in range(15):
            for move in self.MOVES:
                getattr(kernel, move)(state, rng)
                fresh = tally_states(kernel.x, state.states)
                for f in dataclasses.fields(Tallies):
                    got = getattr(state.tallies, f.name)
                    assert np.array_equal(got, getattr(fresh, f.name)), (move, f.name)
        assert kernel.stats.row_proposed == 15


class TestLazyTraceCounts:
    """The trace's cell counts, credited lazily, equal counts taken eagerly
    from every kept sample, with and without checkpoints and on resume."""

    KW = dict(n=5, n_genes=3, n_probes=6, seed=4)
    CFG = make_cfg(iterations=40, burn_in=5, thin=2, seed=11, neutral_mask_frac=1.0)

    def run(self, **kwargs):
        # even inclusion odds, so flags are added, deleted and swapped
        hyper = RegressionHyper(incl_a=1.0, incl_b=1.0)
        return run_chain(make_ctx(cfg=self.CFG, hyper=hyper, **self.KW), **kwargs)

    @staticmethod
    def eager(kept):
        states = np.stack([s for s, _ in kept])
        one_hot = states[..., None] == np.arange(1, 5)
        return (
            one_hot.sum(axis=0),
            np.stack([a for _, a in kept]).sum(axis=0, dtype=np.int64),
            one_hot.sum(axis=(1, 2)),
        )

    def test_counts_match_an_eager_reference(self, monkeypatch):
        kept = []
        add = sampler._TraceBuilder.add

        def recording_add(builder, state, log_post):
            kept.append((state.states.copy(), state.assoc.copy()))
            add(builder, state, log_post)

        monkeypatch.setattr(sampler._TraceBuilder, "add", recording_add)
        full = self.run()
        monkeypatch.setattr(sampler._TraceBuilder, "add", add)
        assert full.n_kept == len(kept) == 18
        assert len({s.tobytes() for s, _ in kept}) > 5
        state_counts, assoc_counts, occupancy = self.eager(kept)
        assert np.array_equal(full.state_counts, state_counts)
        assert np.array_equal(full.assoc_counts, assoc_counts)
        assert np.array_equal(full.occupancy, occupancy)
        assert len({a.tobytes() for _, a in kept}) > 5

        names = [f.name for f in dataclasses.fields(sampler.ChainTrace) if f.type == "np.ndarray"]
        for every in (1, 7):
            saved = []
            trace = self.run(checkpoint_every=every, on_checkpoint=saved.append)
            for name in names:
                assert np.array_equal(getattr(trace, name), getattr(full, name)), (every, name)
            assert len(saved) == len(range(every, 40, every)) + 1
            for cp in saved:
                if cp.kept:
                    counts, inclusions, _ = self.eager(kept[: cp.kept])
                    assert np.array_equal(cp.state_counts.reshape(counts.shape), counts)
                    assert np.array_equal(cp.assoc_counts, inclusions)
                else:
                    assert not cp.state_counts.any() and not cp.assoc_counts.any()
                resumed = self.run(resume=cp)
                for name in names:
                    assert np.array_equal(getattr(resumed, name), getattr(full, name)), (
                        every, cp.iteration, name,
                    )


# ---------------- chain driver ----------------


class TestRunChain:
    def test_single_retained_sample(self):
        ctx = make_ctx(n=4, n_genes=2, n_probes=3, seed=1,
                       cfg=make_cfg(iterations=10, burn_in=9, thin=1, seed=0))
        trace = run_chain(ctx)
        assert trace.n_kept == 1
        assert trace.means_samples.shape == (1, 4)
        assert np.all(trace.state_counts.sum(axis=2) == 1)

    def test_thinning_count(self):
        ctx = make_ctx(n=4, n_genes=2, n_probes=3, seed=1,
                       cfg=make_cfg(iterations=12, burn_in=0, thin=5, seed=0))
        trace = run_chain(ctx)
        assert trace.n_kept == 3  # iterations 0, 5, 10 after burn-in

    def test_deterministic_given_seed(self):
        kw = dict(n=5, n_genes=3, n_probes=4, seed=2)
        cfg = make_cfg(iterations=25, burn_in=10, thin=1, seed=42)
        a = run_chain(make_ctx(cfg=cfg, **kw))
        b = run_chain(make_ctx(cfg=cfg, **kw))
        assert np.array_equal(a.assoc_counts, b.assoc_counts)
        assert np.array_equal(a.state_counts, b.state_counts)
        assert np.array_equal(a.means_samples, b.means_samples)
        assert np.array_equal(a.sds_samples, b.sds_samples)
        assert np.array_equal(a.trans_samples, b.trans_samples)
        assert np.array_equal(a.log_posterior, b.log_posterior)
        assert a.acceptance == b.acceptance

    def test_seed_changes_the_trace(self):
        kw = dict(n=5, n_genes=3, n_probes=4, seed=2)
        a = run_chain(make_ctx(cfg=make_cfg(iterations=25, burn_in=10, seed=1), **kw))
        b = run_chain(make_ctx(cfg=make_cfg(iterations=25, burn_in=10, seed=2), **kw))
        assert not (
            np.array_equal(a.means_samples, b.means_samples)
            and np.array_equal(a.state_counts, b.state_counts)
        )

    def test_debug_checks_hold_across_all_moves(self):
        ctx = make_ctx(n=6, n_genes=3, n_probes=5, seed=7,
                       cfg=make_cfg(iterations=40, burn_in=10, seed=3, debug_checks=True))
        trace = run_chain(ctx)
        assert trace.n_kept == 30

    def test_checkpoint_resume_is_bit_exact(self):
        kw = dict(n=5, n_genes=3, n_probes=4, seed=4)
        cfg = make_cfg(iterations=20, burn_in=5, thin=1, seed=11)
        saved = []
        full = run_chain(make_ctx(cfg=cfg, **kw), checkpoint_every=7, on_checkpoint=saved.append)
        assert [cp.iteration for cp in saved] == [7, 14, 20]
        resumed = run_chain(make_ctx(cfg=cfg, **kw), resume=saved[0])
        assert np.array_equal(full.state_counts, resumed.state_counts)
        assert np.array_equal(full.assoc_counts, resumed.assoc_counts)
        assert np.array_equal(full.means_samples, resumed.means_samples)
        assert np.array_equal(full.trans_samples, resumed.trans_samples)
        assert np.array_equal(full.log_posterior, resumed.log_posterior)
        assert full.acceptance == resumed.acceptance

    def test_resume_rejects_mismatched_config(self):
        kw = dict(n=5, n_genes=3, n_probes=4, seed=4)
        cfg = make_cfg(iterations=20, burn_in=5, thin=1, seed=11)
        saved = []
        run_chain(make_ctx(cfg=cfg, **kw), checkpoint_every=7, on_checkpoint=saved.append)
        other = make_cfg(iterations=20, burn_in=5, thin=1, seed=12)
        with pytest.raises(ValidationError, match="checkpoint seed=11 does not match config seed=12"):
            run_chain(make_ctx(cfg=other, **kw), resume=saved[0])
        longer = make_cfg(iterations=30, burn_in=5, thin=1, seed=11)
        with pytest.raises(ValidationError, match="checkpoint iterations=20"):
            run_chain(make_ctx(cfg=longer, **kw), resume=saved[0])

    def test_resume_rejects_mismatched_shape(self):
        cfg = make_cfg(iterations=20, burn_in=5, thin=1, seed=11)
        saved = []
        run_chain(make_ctx(n=5, n_genes=3, n_probes=4, seed=4, cfg=cfg),
                  checkpoint_every=7, on_checkpoint=saved.append)
        with pytest.raises(ValidationError, match="checkpoint state shape"):
            run_chain(make_ctx(n=6, n_genes=3, n_probes=4, seed=4, cfg=cfg), resume=saved[0])

    def test_iteration_errors_are_wrapped_with_the_sweep_index(self):
        # Three cells near 3 land in the top state at init, whose prior mean
        # sits at 50 inside a +-0.1 window; the tight emission sd drags the
        # conditional mean back toward 3, over a thousand posterior sds from
        # the window, so the first Gibbs draw has no mass to draw from.
        hh = HmmHyper(
            eta_loc=(-0.65, 0.0, 0.65, 50.0),
            eta_scale=(0.3, 0.1, 0.3, 0.25),
            eta_low=(-math.inf, -0.2, 0.25, 49.9),
            eta_high=(-0.3, 0.2, 1.2, 50.1),
            prec_shape=(1.0, 1.0, 1.0, 1.0),
            prec_rate=(1.0, 1.0, 1.0, 1.0),
            sd_cap=(0.41, 0.41, 0.41, 0.05),
            trans_conc=(1.0, 1.0, 1.0, 1.0),
            amp_floor_tracks_gain=False,
        )
        x = np.array([[0.0, 3.0], [0.1, 2.9], [-0.1, 3.1]])
        y = np.random.default_rng(0).normal(size=(3, 2))
        cfg = make_cfg(iterations=5, burn_in=0, seed=0, update_states=False)
        ctx = raw_context(y, x, hmm_hyper=hh, cfg=cfg)
        with pytest.raises(NumericalError, match="iteration 0: degenerate truncation"):
            run_chain(ctx)

    def test_fully_masked_data_never_includes(self):
        rng = np.random.default_rng(30)
        y = rng.normal(size=(6, 3))
        x = 0.02 * rng.normal(size=(6, 4))  # every init state neutral
        cfg = make_cfg(iterations=50, burn_in=10, seed=5,
                       neutral_mask_frac=0.9, update_states=False)
        ctx = raw_context(y, x, cfg=cfg)
        trace = run_chain(ctx)
        assert not trace.assoc_counts.any()
        acc = trace.acceptance
        assert acc["assoc_noop"] > 0
        assert acc["add_proposed"] == 0
        assert acc["delete_proposed"] == 0
        assert acc["swap_proposed"] == 0


# ---------------- invariant-law smoke test ----------------


class TestDetailedBalance:
    @pytest.mark.parametrize("neutral_mask_frac", [1.0, 0.5])
    def test_toy_posterior_matches_enumeration(self, neutral_mask_frac):
        # One sample, one gene, two probes with frozen emission and
        # transition parameters: the inclusion and state moves must leave the
        # exactly enumerable 64-point conditional law invariant.  At 100k
        # sweeps the Monte Carlo noise floor on total variation sits around
        # 0.01, a third of the tolerance. At a mask fraction of 0.5 a neutral
        # column is masked, so the law's support excludes an inclusion at a
        # neutral column, and the moves must keep to it.
        y = np.array([[0.4]])
        x = np.array([[-0.3, 0.55]])
        hyper = RegressionHyper(
            slab_prec=1.0, intercept_prec=1.0, resid_df=4.0, resid_scale=1.0,
            incl_a=1.0, incl_b=3.0, alpha=2.0,
        )
        cfg = make_cfg(
            neutral_mask_frac=neutral_mask_frac, flip_prob=0.5, gene_block_p=0.5,
            row_block_p=0.5, update_means=False, update_sds=False, update_trans=False,
        )
        ctx = raw_context(y, x, hyper=hyper, cfg=cfg)
        trans = np.array(
            [
                [0.4, 0.3, 0.2, 0.1],
                [0.25, 0.35, 0.25, 0.15],
                [0.15, 0.25, 0.35, 0.25],
                [0.1, 0.2, 0.3, 0.4],
            ]
        )
        means = np.array([-1.0, 0.0, 0.7, 1.6])
        sds = np.array([0.5, 0.4, 0.45, 0.6])
        kernel, state = build_kernel_state(
            ctx,
            assoc=np.zeros((1, 2), dtype=np.int8),
            states=np.full((1, 2), 2, dtype=np.int8),
            trans=trans,
            means=means,
            sds=sds,
        )

        # exact law over (inclusions, states)
        logw = np.empty(4 * 16)
        for r_idx in range(4):
            assoc = np.array([[(r_idx >> 0) & 1, (r_idx >> 1) & 1]], dtype=np.int8)
            for s_idx in range(16):
                states = np.array(
                    [[(s_idx & 3) + 1, ((s_idx >> 2) & 3) + 1]], dtype=np.int8
                )
                logw[r_idx * 16 + s_idx] = oracles.full_log_density(
                    y, x, assoc, states,
                    trans=trans, means=means, sds=sds,
                    stat_dist=state.stat_dist,
                    pos=ctx.data.pos, fragment_length=ctx.data.fragment_length,
                    intercept_prec=hyper.intercept_prec, slab_prec=hyper.slab_prec,
                    resid_df=hyper.resid_df, resid_scale=hyper.resid_scale,
                    incl_a=hyper.incl_a, incl_b=hyper.incl_b, alpha=hyper.alpha,
                    neutral_mask_frac=neutral_mask_frac,
                )
        exact = np.exp(logw - logw.max())
        exact /= exact.sum()

        rng = np.random.default_rng(2024)
        counts = np.zeros(4 * 16, dtype=np.int64)
        n_sweeps = 100_000
        for _ in range(n_sweeps):
            kernel.sweep(state, rng)
            r_idx = int(state.assoc[0, 0]) + 2 * int(state.assoc[0, 1])
            s_idx = int(state.states[0, 0]) - 1 + 4 * (int(state.states[0, 1]) - 1)
            counts[r_idx * 16 + s_idx] += 1
        empirical = counts / n_sweeps
        tv = 0.5 * float(np.abs(empirical - exact).sum())
        assert tv < 0.03, f"total variation {tv:.4f}"
        acc = kernel.stats
        assert acc.add_accepted > 0 and acc.delete_accepted > 0
        assert acc.swap_accepted > 0
        assert acc.state_accepted > 0
