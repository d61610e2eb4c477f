"""Synthetic dataset generation and recovery metrics."""

import math

import numpy as np
import pytest

from cnvlink.likelihood import stationary_distribution
from cnvlink.model import ValidationError, validate, RegressionHyper, HmmHyper
from cnvlink.simulate import (
    DEFAULT_TRANS,
    GroundTruth,
    ScenarioSpec,
    evaluate,
    simulate_associations,
    simulate_dataset,
    simulate_expression,
    simulate_signals,
    simulate_states,
)
from helpers import make_cfg


def make_spec(**kw):
    base = dict(n_samples=20, n_genes=5, n_probes=30, n_varied=10, n_assoc=4, seed=0)
    base.update(kw)
    return ScenarioSpec(**base)


class TestDefaultTransitionMatrix:
    def test_rows_sum_to_one(self):
        assert np.allclose(DEFAULT_TRANS.sum(axis=1), 1.0, atol=1e-15)

    def test_renormalization_preserves_proportions(self):
        # The third published row sums to 0.91 and the fourth to 0.9999; the
        # others are exact.
        assert np.allclose(DEFAULT_TRANS[0], [0.75, 0.18, 0.05, 0.02], atol=1e-15)
        assert np.allclose(
            DEFAULT_TRANS[2], np.array([0.02, 0.18, 0.70, 0.01]) / 0.91, atol=1e-15
        )

    def test_read_only(self):
        with pytest.raises(ValueError):
            DEFAULT_TRANS[0, 0] = 0.5


class TestScenarioSpecValidation:
    def test_dimension_positivity(self):
        with pytest.raises(ValidationError, match="n_samples must be a positive integer"):
            make_spec(n_samples=0)

    def test_varied_strictly_below_probes(self):
        with pytest.raises(ValidationError, match="n_varied must satisfy"):
            make_spec(n_varied=30)

    def test_assoc_capacity(self):
        with pytest.raises(ValidationError, match="exceeds genes x varied"):
            make_spec(n_assoc=51)

    def test_assoc_needs_varied_columns(self):
        with pytest.raises(ValidationError, match="associations require at least one"):
            make_spec(n_varied=0, n_assoc=1)

    def test_weak_count_bounded(self):
        with pytest.raises(ValidationError, match="weak_effect_count"):
            make_spec(weak_effect_count=5)

    def test_clustered_excludes_weak_subset(self):
        with pytest.raises(ValidationError, match="clustered mode draws every effect"):
            make_spec(clustered=True, weak_effect_count=2)

    def test_clustered_needs_two(self):
        with pytest.raises(ValidationError, match="at least two associations"):
            make_spec(clustered=True, n_assoc=1)

    def test_noise_length(self):
        with pytest.raises(ValidationError, match="scalar or one value per gene"):
            make_spec(noise_sd=[0.1, 0.2])

    def test_noise_positive(self):
        with pytest.raises(ValidationError, match="noise_sd values must be positive"):
            make_spec(noise_sd=0.0)

    def test_trans_shape(self):
        with pytest.raises(ValidationError, match="trans_matrix must be 4x4"):
            make_spec(trans_matrix=[[1.0, 0.0], [0.0, 1.0]])

    def test_seed_nonnegative(self):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            make_spec(seed=-1)

    def test_custom_trans_rows_renormalized(self):
        spec = make_spec(trans_matrix=np.full((4, 4), 2.0))
        assert np.allclose(spec.transition_matrix, 0.25)

    def test_per_gene_noise_expansion(self):
        assert np.array_equal(make_spec(noise_sd=0.3).noise_sd_per_gene, [0.3] * 5)

    def test_fragment_defaults_to_span(self):
        assert make_spec(probe_spacing=2.0).resolved_fragment_length == 60.0


class TestSimulateStates:
    def test_no_varied_columns_all_neutral(self):
        xi, varied, extra = simulate_states(
            make_spec(n_varied=0, n_assoc=0), np.random.default_rng(0)
        )
        assert xi.dtype == np.int8
        assert np.all(xi == 2)
        assert varied.size == 0 and extra.size == 0

    def test_untouched_columns_stay_neutral(self):
        spec = make_spec(n_samples=15, n_probes=40, n_varied=12)
        xi, varied, extra = simulate_states(spec, np.random.default_rng(3))
        assert xi.dtype == np.int8 and xi.shape == (15, 40)
        assert varied.size == 12
        assert extra.size == (40 - 12) // 2
        assert np.intersect1d(varied, extra).size == 0
        untouched = np.setdiff1d(np.arange(40), np.union1d(varied, extra))
        assert np.all(xi[:, untouched] == 2)

    def test_extra_columns_perturb_a_tenth_of_rows(self):
        spec = make_spec(n_samples=50, n_probes=40, n_varied=12)
        xi, varied, extra = simulate_states(spec, np.random.default_rng(4))
        cap = math.ceil(0.1 * 50)
        for c in extra:
            non_neutral = int(np.sum(xi[:, c] != 2))
            assert 1 <= non_neutral <= cap

    def test_varied_frequencies_approach_stationary_law(self):
        spec = make_spec(
            n_samples=200, n_probes=250, n_varied=200, n_genes=2, n_assoc=0
        )
        xi, varied, _ = simulate_states(spec, np.random.default_rng(5))
        cells = xi[:, varied].ravel()
        freq = np.bincount(cells, minlength=5)[1:] / cells.size
        tv = 0.5 * np.abs(freq - stationary_distribution(DEFAULT_TRANS)).sum()
        assert tv < 0.05


class TestSimulateSignals:
    def test_degenerate_sds_reproduce_means(self):
        states = np.array([[1, 2], [3, 4]], dtype=np.int8)
        x = simulate_signals(
            states, (-0.65, 0.0, 0.65, 1.5), (0.0, 0.0, 0.0, 0.0),
            np.random.default_rng(0),
        )
        assert np.array_equal(x, [[-0.65, 0.0], [0.65, 1.5]])

    def test_neutral_matrix_centers_at_zero(self):
        states = np.full((100, 100), 2, dtype=np.int8)
        x = simulate_signals(
            states, (-0.65, 0.0, 0.65, 1.5), (0.1, 0.1, 0.1, 0.2),
            np.random.default_rng(1),
        )
        assert abs(x.mean()) < 4 * 0.1 / 100.0

    def test_top_state_spread(self):
        states = np.full((100, 100), 4, dtype=np.int8)
        x = simulate_signals(
            states, (-0.65, 0.0, 0.65, 1.5), (0.1, 0.1, 0.1, 0.2),
            np.random.default_rng(2),
        )
        assert x.std() == pytest.approx(0.2, rel=0.1)
        assert x.mean() == pytest.approx(1.5, abs=4 * 0.2 / 100.0)


class TestSimulateAssociations:
    def test_zero_count_empty(self):
        assoc, effects = simulate_associations(
            make_spec(n_assoc=0), np.arange(10), np.random.default_rng(0)
        )
        assert not assoc.any() and not effects.any()

    def test_placements_inside_varied_columns(self):
        spec = make_spec(n_genes=6, n_varied=8, n_assoc=12)
        varied = np.array([2, 3, 4, 10, 11, 17, 20, 21])
        assoc, effects = simulate_associations(spec, varied, np.random.default_rng(1))
        assert int(assoc.sum()) == 12
        rows, cols = np.nonzero(assoc)
        assert np.isin(cols, varied).all()
        assert np.array_equal(effects != 0.0, assoc == 1)

    def test_weak_subset_count(self):
        spec = make_spec(
            n_genes=10, n_varied=10, n_assoc=20, weak_effect_count=6,
            effect_mean=2.0, weak_effect_mean=0.5, effect_sd=0.05,
        )
        _, effects = simulate_associations(
            spec, np.arange(10), np.random.default_rng(2)
        )
        mags = np.abs(effects[effects != 0.0])
        assert mags.size == 20
        assert int(np.sum(mags < 1.0)) == 6

    def test_signs_are_random(self):
        spec = make_spec(n_genes=30, n_probes=40, n_varied=10, n_assoc=200)
        _, effects = simulate_associations(
            spec, np.arange(10), np.random.default_rng(3)
        )
        vals = effects[effects != 0.0]
        assert (vals > 0).any() and (vals < 0).any()

    def test_clustered_two_runs_one_gene(self):
        spec = make_spec(n_genes=4, n_varied=6, n_assoc=6, clustered=True)
        varied = np.array([3, 4, 5, 10, 11, 12])
        assoc, _ = simulate_associations(spec, varied, np.random.default_rng(4))
        rows, cols = np.nonzero(assoc)
        assert np.unique(rows).size == 1
        assert sorted(cols) == [3, 4, 5, 10, 11, 12]

    def test_clustered_single_run_leaves_gap(self):
        spec = make_spec(n_genes=4, n_varied=8, n_assoc=5, clustered=True)
        varied = np.arange(2, 10)
        assoc, _ = simulate_associations(spec, varied, np.random.default_rng(5))
        rows, cols = np.nonzero(assoc)
        assert np.unique(rows).size == 1
        cols = np.sort(cols)
        gaps = np.diff(cols)
        # two adjacent runs of sizes 3 and 2 separated by exactly one column
        assert cols.size == 5
        assert sorted(gaps) == [1, 1, 1, 2]

    def test_clustered_infeasible_layout_rejected(self):
        spec = make_spec(n_genes=4, n_varied=5, n_assoc=4, clustered=True)
        varied = np.array([1, 3, 5, 7, 9])
        with pytest.raises(ValidationError, match="no two adjacent runs"):
            simulate_associations(spec, varied, np.random.default_rng(6))


class TestSimulateExpression:
    def test_zero_effects_constant_columns(self):
        spec = make_spec(n_samples=8, n_genes=3, n_assoc=0, noise_sd=1e-12)
        states = np.random.default_rng(0).integers(1, 5, size=(8, 30))
        y, intercepts = simulate_expression(
            states, np.zeros((3, 30)), np.zeros((3, 30)), spec, np.random.default_rng(1)
        )
        assert np.ptp(y, axis=0).max() < 1e-9
        assert np.allclose(y[0], intercepts, atol=1e-9)

    def test_unit_effect_recovered_by_regression(self):
        n = 500
        spec = make_spec(n_samples=n, n_genes=1, n_probes=10, n_varied=5,
                         n_assoc=1, noise_sd=0.1)
        rng = np.random.default_rng(2)
        states = rng.integers(1, 5, size=(n, 10)).astype(float)
        effects = np.zeros((1, 10))
        effects[0, 4] = 1.0
        assoc = (effects != 0).astype(np.int8)
        y, _ = simulate_expression(states, assoc, effects, spec, rng)
        xc = states[:, 4] - states[:, 4].mean()
        slope = float(xc @ (y[:, 0] - y[:, 0].mean()) / (xc @ xc))
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_per_gene_noise_scales_residuals(self):
        n = 4000
        spec = make_spec(n_samples=n, n_genes=2, n_assoc=0, noise_sd=[0.5, 0.1])
        states = np.full((n, 30), 2.0)
        y, intercepts = simulate_expression(
            states, np.zeros((2, 30)), np.zeros((2, 30)), spec,
            np.random.default_rng(3),
        )
        resid = y - intercepts[None, :]
        assert resid[:, 0].std() == pytest.approx(0.5, rel=0.1)
        assert resid[:, 1].std() == pytest.approx(0.1, rel=0.1)


class TestEvaluate:
    def test_perfect_recovery(self):
        truth = np.zeros((3, 4), dtype=np.int8)
        truth[1, 2] = truth[0, 0] = 1
        m = evaluate(truth, truth)
        assert (m.tp, m.fp, m.fn, m.tn) == (2, 0, 0, 10)
        assert m.sensitivity == 1.0 and m.specificity == 1.0
        assert m.n_detected == 2

    def test_hand_confusion_counts(self):
        truth = np.array([[1, 1, 0, 0]])
        selected = np.array([[1, 0, 1, 0]])
        m = evaluate(selected, truth)
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
        assert m.sensitivity == 0.5 and m.specificity == 0.5

    def test_no_positives_gives_nan_sensitivity(self):
        m = evaluate(np.zeros((2, 2)), np.zeros((2, 2)))
        assert math.isnan(m.sensitivity)
        assert m.specificity == 1.0

    def test_state_misclassification(self):
        true_states = np.array([[1, 2], [3, 4]])
        modes = np.array([[1, 2], [2, 4]])
        m = evaluate(
            np.zeros((1, 2)), np.zeros((1, 2)),
            state_modes=modes, states_true=true_states,
        )
        assert m.state_errors == 1
        assert m.state_error_pct == 25.0

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValidationError, match="selection shape"):
            evaluate(np.zeros((1, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="state call shape"):
            evaluate(
                np.zeros((2, 2)), np.zeros((2, 2)),
                state_modes=np.zeros((1, 2)), states_true=np.zeros((2, 2)),
            )


class TestGroundTruthInvariant:
    def test_mismatched_effects_rejected(self):
        assoc = np.array([[1, 0]], dtype=np.int8)
        effects = np.array([[0.0, 1.5]])
        with pytest.raises(ValidationError, match="nonzero effects must coincide"):
            GroundTruth(
                states=np.full((2, 2), 2, dtype=np.int8),
                assoc=assoc,
                effects=effects,
                intercepts=np.zeros(1),
                varied_columns=np.array([0, 1]),
                extra_columns=np.array([], dtype=np.int64),
            )


class TestSimulateDataset:
    def test_full_pipeline_coherent(self):
        spec = make_spec(n_samples=12, n_genes=4, n_probes=25, n_varied=8,
                         n_assoc=5, probe_spacing=2.0)
        data, truth, manifest = simulate_dataset(spec)
        assert data.y.shape == (12, 4)
        assert data.x.shape == (12, 25)
        assert np.array_equal(data.pos, np.arange(25) * 2.0)
        assert data.fragment_length == 50.0
        assert int(truth.assoc.sum()) == 5
        assert np.isin(np.nonzero(truth.assoc)[1], truth.varied_columns).all()
        # the generated dataset passes full model validation
        validate(data, RegressionHyper(), HmmHyper(), make_cfg())
        assert manifest["kind"] == "cnvlink-dataset"
        assert manifest["trans_rows_renormalized"] is True
        assert manifest["seed"] == 0
        assert manifest["noise_sd"] == 0.1

    def test_deterministic_in_seed(self):
        spec = make_spec(seed=7)
        a = simulate_dataset(spec)
        b = simulate_dataset(spec)
        assert np.array_equal(a[0].y, b[0].y)
        assert np.array_equal(a[0].x, b[0].x)
        assert np.array_equal(a[1].states, b[1].states)
        c = simulate_dataset(make_spec(seed=8))
        assert not np.array_equal(a[0].y, c[0].y)

    def test_per_gene_noise_recorded_as_list(self):
        spec = make_spec(n_genes=3, noise_sd=[0.1, 0.2, 0.3])
        _, _, manifest = simulate_dataset(spec)
        assert manifest["noise_sd"] == [0.1, 0.2, 0.3]

    def test_clustered_dataset_lands_on_one_gene(self):
        spec = make_spec(
            n_samples=15, n_genes=6, n_probes=40, n_varied=14, n_assoc=6,
            clustered=True, seed=3,
        )
        _, truth, _ = simulate_dataset(spec)
        rows = np.nonzero(truth.assoc)[0]
        assert np.unique(rows).size == 1
        assert int(truth.assoc.sum()) == 6

    def test_clustered_impossible_layout_reported(self):
        spec = make_spec(n_varied=1, n_assoc=2, clustered=True)
        with pytest.raises(ValidationError, match="could not draw varied columns"):
            simulate_dataset(spec)
