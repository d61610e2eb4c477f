"""Input containers, hyperparameter records, and validation rules."""

import math
import re

import numpy as np
import pytest

from cnvlink.model import (
    HmmHyper,
    ObservedData,
    RegressionHyper,
    SamplerConfig,
    ValidationError,
    validate,
)
from helpers import assert_frozen, make_cfg, make_data, make_y


# ---------------- ObservedData ----------------


class TestObservedData:
    def test_accepts_well_formed_input(self):
        data = make_data(n=4, n_genes=2, n_probes=3)
        assert data.n_samples == 4
        assert data.n_genes == 2
        assert data.n_probes == 3
        assert_frozen(data.y)
        assert_frozen(data.x)
        assert_frozen(data.pos)

    def test_nan_in_y_names_the_position(self):
        y = make_y(3, 2)
        y[0, 0] = np.nan
        with pytest.raises(ValidationError, match=re.escape("y has a non-finite entry at index (0, 0)")):
            make_data(n=3, n_genes=2, y=y)

    def test_inf_in_x_rejected(self):
        x = 0.1 * np.ones((3, 4))
        x[2, 1] = np.inf
        with pytest.raises(ValidationError, match=re.escape("x has a non-finite entry at index (2, 1)")):
            make_data(n=3, x=x)

    def test_single_sample_rejected(self):
        with pytest.raises(ValidationError, match="need at least 2 samples, got 1"):
            ObservedData(
                y=np.zeros((1, 2)),
                x=np.zeros((1, 2)),
                pos=np.arange(2.0),
                fragment_length=2.0,
            )

    def test_single_probe_rejected(self):
        with pytest.raises(ValidationError, match="need at least 2 probes, got 1"):
            ObservedData(
                y=np.zeros((3, 2)) + np.arange(3)[:, None],
                x=np.zeros((3, 1)),
                pos=np.zeros(1),
                fragment_length=1.0,
            )

    def test_sample_count_mismatch(self):
        with pytest.raises(ValidationError, match="y and x disagree on sample count: 3 vs 4"):
            make_data(y=make_y(3, 2), x=0.1 * np.ones((4, 3)))

    def test_pos_length_must_match_probes(self):
        with pytest.raises(ValidationError, match=re.escape("pos must have shape (4,)")):
            make_data(n=3, n_probes=4, pos=np.arange(3.0))

    def test_pos_must_be_nondecreasing(self):
        pos = np.array([0.0, 1.0, 0.5, 2.0])
        with pytest.raises(ValidationError, match="pos must be nondecreasing; decreases at index 2"):
            make_data(n=3, n_probes=4, pos=pos, fragment_length=10.0)

    def test_ties_in_pos_allowed(self):
        pos = np.array([0.0, 1.0, 1.0, 2.0])
        data = make_data(n=3, n_probes=4, pos=pos, fragment_length=10.0)
        assert data.n_probes == 4

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_fragment_length_must_be_positive_finite(self, bad):
        with pytest.raises(ValidationError, match="fragment_length must be a positive finite real"):
            make_data(n=3, n_probes=3, fragment_length=bad)

    def test_probe_span_cannot_exceed_fragment_length(self):
        pos = np.array([0.0, 3.0, 7.0])
        with pytest.raises(ValidationError, match="probe span 7.0 exceeds fragment_length 5.0"):
            make_data(n=3, n_probes=3, pos=pos, fragment_length=5.0)

    def test_y_must_be_2d(self):
        with pytest.raises(ValidationError, match="y must be 2-d"):
            ObservedData(
                y=np.zeros(3),
                x=np.zeros((3, 2)),
                pos=np.arange(2.0),
                fragment_length=2.0,
            )


# ---------------- hyperparameter records ----------------


class TestHmmHyper:
    def test_defaults_are_consistent(self):
        hh = HmmHyper()
        assert hh.eta_low.shape == (4,)
        assert np.all(hh.eta_low < hh.eta_high)
        assert np.all(hh.sd_cap > 0)
        assert hh.amp_floor_tracks_gain is True

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("eta_low[1]=0.5 must be < eta_high[1]=0.1")):
            HmmHyper(eta_low=(-math.inf, 0.5, 0.1, -math.inf))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("eta_scale[2] must be strictly positive")):
            HmmHyper(eta_scale=(1.0, 1.0, 0.0, 2.0))

    def test_finite_lower_bounds_must_increase(self):
        with pytest.raises(ValidationError, match="finite entries of eta_low must be strictly increasing"):
            HmmHyper(eta_low=(-math.inf, 0.2, 0.1, -math.inf), eta_high=(-0.1, 0.3, 0.73, math.inf))


class TestRegressionHyper:
    def test_defaults(self):
        h = RegressionHyper()
        assert h.slab_prec == 10.0
        assert h.intercept_prec == 1e-6
        assert h.resid_df == 3.0
        assert h.resid_scale is None
        assert h.incl_a == 0.001
        assert h.incl_b == 0.999
        assert h.alpha == 30.0

    @pytest.mark.parametrize("field", ["slab_prec", "intercept_prec", "resid_df", "incl_a", "incl_b"])
    def test_positive_finite_required(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be a positive finite real"):
            RegressionHyper(**{field: 0.0})

    def test_alpha_infinite_allowed(self):
        h = RegressionHyper(alpha=math.inf)
        assert math.isinf(h.alpha)

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match=re.escape("alpha must be positive (or inf), got 0.0")):
            RegressionHyper(alpha=0.0)

    def test_explicit_resid_scale_must_be_positive(self):
        with pytest.raises(ValidationError, match="resid_scale must be positive and finite"):
            RegressionHyper(resid_scale=-1.0)


class TestSamplerConfig:
    def test_burn_in_must_precede_end(self):
        with pytest.raises(ValidationError, match="burn_in must be < iterations"):
            make_cfg(iterations=10, burn_in=10)

    def test_negative_burn_in_rejected(self):
        with pytest.raises(ValidationError, match="burn_in must be >= 0"):
            make_cfg(iterations=10, burn_in=-1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValidationError, match="iterations must be >= 1"):
            make_cfg(iterations=0, burn_in=0)

    def test_thin_must_be_positive(self):
        with pytest.raises(ValidationError, match="thin must be >= 1, got 0"):
            make_cfg(thin=0)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.5])
    def test_gene_block_p_open_interval(self, value):
        with pytest.raises(ValidationError, match="gene_block_p must lie in"):
            make_cfg(gene_block_p=value)

    def test_neutral_mask_frac_one_allowed(self):
        cfg = make_cfg(neutral_mask_frac=1.0)
        assert cfg.neutral_mask_frac == 1.0

    def test_neutral_mask_frac_zero_rejected(self):
        with pytest.raises(ValidationError, match="neutral_mask_frac must lie in"):
            make_cfg(neutral_mask_frac=0.0)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_flip_prob_closed_interval(self, value):
        with pytest.raises(ValidationError, match=re.escape("flip_prob must lie in [0, 1]")):
            make_cfg(flip_prob=value)

    def test_flip_prob_extremes_allowed(self):
        assert make_cfg(flip_prob=0.0).flip_prob == 0.0
        assert make_cfg(flip_prob=1.0).flip_prob == 1.0

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValidationError, match="seed must fit in 64 bits"):
            make_cfg(seed=2**64)

    @pytest.mark.parametrize(
        "iterations,burn_in,thin,expected",
        [(10, 5, 1, 5), (10, 5, 2, 3), (100, 99, 7, 1), (12, 0, 5, 3)],
    )
    def test_retained_count_matches_schedule(self, iterations, burn_in, thin, expected):
        cfg = make_cfg(iterations=iterations, burn_in=burn_in, thin=thin)
        assert cfg.n_retained == expected
        assert cfg.n_retained == len(range(burn_in, iterations, thin))


# ---------------- validate ----------------


class TestValidate:
    def test_standardizes_each_response_column(self):
        data = make_data(n=8, n_genes=3, seed=3)
        ctx = validate(data, RegressionHyper(), HmmHyper(), make_cfg())
        assert ctx.standardized is True
        got = ctx.data.y
        assert np.allclose(got.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(got.std(axis=0, ddof=1), 1.0, atol=1e-12)
        # the recorded transform reproduces the original responses
        back = got * ctx.y_scale + ctx.y_center
        assert np.allclose(back, data.y, atol=1e-12)

    def test_constant_column_rejected(self):
        y = make_y(6, 3)
        y[:, 1] = 2.5
        data = make_data(n=6, n_genes=3, y=y)
        with pytest.raises(ValidationError, match="response column 1 is constant and cannot be standardized"):
            validate(data, RegressionHyper(), HmmHyper(), make_cfg())

    def test_auto_resid_scale_is_five_percent_after_standardizing(self):
        ctx = validate(make_data(n=8, n_genes=4), RegressionHyper(), HmmHyper(), make_cfg())
        assert ctx.hyper.resid_scale == pytest.approx(0.05, abs=1e-13)

    def test_auto_resid_scale_tracks_raw_variance_when_not_standardizing(self):
        data = make_data(n=8, n_genes=4, seed=11)
        ctx = validate(data, RegressionHyper(), HmmHyper(), make_cfg(), standardize=False)
        expected = 0.05 * float(np.mean(np.var(data.y, axis=0, ddof=1)))
        assert ctx.hyper.resid_scale == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(ctx.data.y, data.y)
        assert np.all(ctx.y_scale == 1.0)
        assert np.all(ctx.y_center == 0.0)

    def test_explicit_resid_scale_kept(self):
        ctx = validate(
            make_data(), RegressionHyper(resid_scale=0.37), HmmHyper(), make_cfg()
        )
        assert ctx.hyper.resid_scale == 0.37

    def test_constant_column_fine_without_standardizing(self):
        y = make_y(6, 3)
        y[:, 1] = 2.5
        data = make_data(n=6, n_genes=3, y=y)
        ctx = validate(data, RegressionHyper(), HmmHyper(), make_cfg(), standardize=False)
        assert ctx.standardized is False
