"""Posterior summarization: inclusion frequencies, FDR-controlled selection,
q-values, modal state calls, and point estimates."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnvlink.inference import (
    PosteriorSummary,
    bfdr_select,
    modal_states,
    posterior_point_estimates,
    ppi,
    q_values,
    summarize,
)
from cnvlink.model import ValidationError
from cnvlink.sampler import run_chain
from helpers import make_cfg, make_ctx


def fake_trace(assoc_counts=None, n_kept=10, state_counts=None, **extra):
    t = SimpleNamespace(n_kept=n_kept, **extra)
    if assoc_counts is not None:
        t.assoc_counts = np.asarray(assoc_counts)
    if state_counts is not None:
        t.state_counts = np.asarray(state_counts)
    return t


class TestPpi:
    def test_counts_over_kept(self):
        trace = fake_trace(assoc_counts=[[3, 0], [10, 5]], n_kept=10)
        assert np.array_equal(ppi(trace), [[0.3, 0.0], [1.0, 0.5]])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="no retained samples"):
            ppi(fake_trace(assoc_counts=[[1]], n_kept=0))


class TestBfdrSelect:
    def test_hand_example(self):
        # lambdas 0.1, 0.2, 0.8: the set {0.1, 0.2} has mean 0.15 <= 0.2
        # while adding 0.8 pushes it to 11/30, so the threshold is 0.2.
        threshold, selected, realized = bfdr_select(
            np.array([[0.9, 0.8, 0.2]]), target_fdr=0.2
        )
        assert threshold == pytest.approx(0.2)
        assert selected.tolist() == [[1, 1, 0]]
        assert realized == pytest.approx(0.15)

    def test_all_certain_selects_everything_at_zero_fdr(self):
        threshold, selected, realized = bfdr_select(np.ones((2, 3)), 0.05)
        assert threshold == 0.0
        assert selected.all()
        assert realized == 0.0

    def test_hopeless_ppis_select_nothing(self):
        threshold, selected, realized = bfdr_select(
            np.array([[0.0, 0.2], [0.3, 0.0]]), 0.05
        )
        assert threshold == -1.0
        assert not selected.any()
        assert selected.dtype == np.int8
        assert realized == 0.0

    def test_tie_group_enters_together(self):
        # Two entries tied at lambda 0.1: the candidate threshold 0.1 admits
        # both, so the realized FDR there is 0.1, not 0.05.
        threshold, selected, realized = bfdr_select(
            np.array([[0.9, 0.9, 0.5]]), target_fdr=0.12
        )
        assert threshold == pytest.approx(0.1)
        assert selected.tolist() == [[1, 1, 0]]
        assert realized == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_target_must_be_interior(self, bad):
        with pytest.raises(ValidationError, match="target_fdr must lie in"):
            bfdr_select(np.array([[0.5]]), bad)

    def test_ppi_range_checked(self):
        with pytest.raises(ValidationError, match=r"PPI values must lie in \[0, 1\]"):
            bfdr_select(np.array([[1.2]]), 0.05)

    def test_realized_is_mean_lambda_of_selection(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mat = rng.random((3, 4))
            threshold, selected, realized = bfdr_select(mat, rng.uniform(0.05, 0.9))
            if selected.any():
                lam = 1.0 - mat[selected.astype(bool)]
                assert realized == pytest.approx(lam.mean(), abs=1e-12)
                assert threshold == pytest.approx(lam.max(), abs=1e-12)


class TestQValues:
    def test_hand_example(self):
        q = q_values(np.array([[0.9, 0.8, 0.2]]))
        assert q[0, 0] == pytest.approx(0.1)
        assert q[0, 1] == pytest.approx(0.15)
        assert q[0, 2] == pytest.approx(11.0 / 30.0)

    def test_top_entry_gets_its_own_lambda(self):
        q = q_values(np.array([[0.95, 0.5, 0.4], [0.1, 0.2, 0.3]]))
        assert q[0, 0] == pytest.approx(0.05)

    def test_constant_matrix_single_candidate(self):
        q = q_values(np.full((2, 3), 0.7))
        assert np.allclose(q, 0.3)

    def test_running_minimum_makes_q_monotone(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mat = rng.random((4, 5))
            q = q_values(mat)
            order = np.argsort(mat.ravel())  # ascending PPI: q must not rise
            assert np.all(np.diff(q.ravel()[order]) <= 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.sampled_from([round(0.05 * k, 2) for k in range(21)]),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([0.05, 0.1, 0.25, 0.5, 0.75]),
    )
    def test_q_at_most_target_iff_selected(self, vals, target):
        # Exact float equivalence: both sides are computed from the same
        # sorted lambdas and running means, so no tolerance is needed.
        mat = np.array(vals).reshape(1, -1)
        _, selected, _ = bfdr_select(mat, target)
        q = q_values(mat)
        assert np.array_equal(q <= target, selected.astype(bool))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10),
        st.sampled_from([0.05, 0.2, 0.5]),
    )
    def test_realized_fdr_never_exceeds_target(self, vals, target):
        mat = np.array(vals).reshape(1, -1)
        _, selected, realized = bfdr_select(mat, target)
        if selected.any():
            assert realized <= target + 1e-12
        q = q_values(mat)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)


class TestModalStates:
    def counts_trace(self, cells):
        return fake_trace(
            n_kept=int(np.asarray(cells).sum(axis=-1).max()),
            state_counts=np.asarray(cells, dtype=np.int64),
        )

    def test_strict_majority(self):
        trace = self.counts_trace([[[0, 5, 6, 0], [12, 0, 0, 0]]])
        assert modal_states(trace).tolist() == [[3, 1]]

    def test_tie_prefers_neutral(self):
        trace = self.counts_trace([[[10, 10, 0, 0]]])
        assert modal_states(trace).tolist() == [[2]]

    def test_tie_between_equally_distant_prefers_smaller(self):
        trace = self.counts_trace([[[7, 0, 7, 0]]])
        assert modal_states(trace).tolist() == [[1]]

    def test_all_equal_counts_give_neutral(self):
        trace = self.counts_trace([[[5, 5, 5, 5]]])
        assert modal_states(trace).tolist() == [[2]]

    def test_top_state_tie_loses_to_gain(self):
        trace = self.counts_trace([[[0, 0, 9, 9]]])
        assert modal_states(trace).tolist() == [[3]]

    def test_thinning_invariance(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 20, size=(3, 4, 4))
        doubled = counts * 2
        a = modal_states(fake_trace(n_kept=100, state_counts=counts))
        b = modal_states(fake_trace(n_kept=200, state_counts=doubled))
        assert np.array_equal(a, b)


class TestPointEstimates:
    def test_means_and_renormalized_trans(self):
        trace = fake_trace(
            n_kept=2,
            means_samples=np.array([[-0.7, 0.0, 0.6, 1.4], [-0.6, 0.0, 0.7, 1.6]]),
            sds_samples=np.array([[0.2, 0.1, 0.2, 0.3], [0.4, 0.3, 0.2, 0.3]]),
            trans_samples=np.stack([np.eye(4) * 0.8 + 0.05, np.full((4, 4), 0.25)]),
        )
        means_est, sds_est, trans_est = posterior_point_estimates(trace)
        assert np.allclose(means_est, [-0.65, 0.0, 0.65, 1.5])
        assert np.allclose(sds_est, [0.3, 0.2, 0.2, 0.3])
        assert np.allclose(trans_est.sum(axis=1), 1.0, atol=1e-15)


class TestSummarize:
    def run_trace(self):
        ctx = make_ctx(
            n=5, n_genes=3, n_probes=4, seed=21,
            cfg=make_cfg(iterations=40, burn_in=10, seed=6),
        )
        return run_chain(ctx)

    def test_full_summary_coherent(self):
        trace = self.run_trace()
        summary = summarize(trace, fdr_target=0.1)
        assert summary.ppi.shape == (3, 4)
        assert summary.state_modes.shape == (5, 4)
        assert summary.fdr_target == 0.1
        assert np.all((summary.state_modes >= 1) & (summary.state_modes <= 4))
        assert np.array_equal(
            summary.selected, ((1.0 - summary.ppi) <= summary.threshold).astype(np.int8)
        )
        assert np.allclose(summary.trans_est.sum(axis=1), 1.0)

    def test_mismatched_selection_rejected(self):
        trace = self.run_trace()
        summary = summarize(trace, fdr_target=0.1)
        bad = summary.selected.copy()
        bad[0, 0] = 1 - bad[0, 0]
        with pytest.raises(ValidationError, match="selection set does not match"):
            PosteriorSummary(
                ppi=summary.ppi,
                selected=bad,
                threshold=summary.threshold,
                realized_fdr=summary.realized_fdr,
                fdr_target=summary.fdr_target,
                q_values=summary.q_values,
                state_modes=summary.state_modes,
                means_est=summary.means_est,
                sds_est=summary.sds_est,
                trans_est=summary.trans_est,
            )
