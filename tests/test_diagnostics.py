"""Scalar-trace convergence diagnostics."""

import math

import numpy as np
import pytest

from cnvlink.diagnostics import (
    MIN_TRACE_LEN,
    cramer_von_mises_cdf,
    geweke,
    heidelberger_welch,
    spectral_density_at_zero,
)
from cnvlink.model import ValidationError


class TestScalarTrace:
    """What every diagnostic asks of its input: a one-dimensional, finite
    series, and heidelberger_welch at least MIN_TRACE_LEN points of it."""

    def test_minimum_length_enforced(self):
        with pytest.raises(ValidationError, match="needs at least 50 points, got 49"):
            heidelberger_welch(np.random.default_rng(13).normal(size=MIN_TRACE_LEN - 1))
        heidelberger_welch(np.random.default_rng(13).normal(size=MIN_TRACE_LEN))

    def test_must_be_one_dimensional(self):
        for diagnostic in (geweke, heidelberger_welch):
            with pytest.raises(ValidationError, match="must be a one-dimensional series"):
                diagnostic(np.zeros((100, 10)))

    def test_rejects_non_finite(self):
        values = np.random.default_rng(14).normal(size=1000)
        for bad in (np.inf, np.nan):
            values[3] = bad
            for diagnostic in (geweke, heidelberger_welch):
                with pytest.raises(ValidationError, match="contains non-finite"):
                    diagnostic(values)


class TestSpectralDensity:
    def test_iid_long_run_variance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0.0, 2.0, size=10_000)
        assert spectral_density_at_zero(values) == pytest.approx(4.0, rel=0.25)

    def test_positively_correlated_series_inflates(self):
        # AR(1) with rho=0.9 has long-run variance (1+rho)/(1-rho) = 19x the
        # marginal; batch means must see far more than the naive variance.
        rng = np.random.default_rng(1)
        eps = rng.normal(size=20_000)
        values = np.empty(20_000)
        values[0] = eps[0]
        for t in range(1, 20_000):
            values[t] = 0.9 * values[t - 1] + eps[t]
        assert spectral_density_at_zero(values) > 5.0 * values.var()

    def test_too_short(self):
        with pytest.raises(ValidationError, match="need at least 4 points"):
            spectral_density_at_zero(np.array([1.0, 2.0, 3.0]))


class TestGeweke:
    def test_stationary_trace_small_z(self):
        rng = np.random.default_rng(2)
        z = geweke(rng.normal(size=5000))
        assert abs(z) < 3.0

    def test_level_shift_detected(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=2000)
        values[:200] += 10.0
        assert abs(geweke(values)) > 5.0

    def test_fraction_bounds(self):
        with pytest.raises(ValidationError, match=r"window fractions must lie in \(0, 1\)"):
            geweke(np.zeros(1000) + np.arange(1000), frac_first=0.0)

    def test_overlap_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValidationError, match="windows overlap: 600 \\+ 600"):
            geweke(rng.normal(size=1000), frac_first=0.6, frac_last=0.6)

    def test_window_size_floor(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValidationError, match="windows need >= 10 points each, got 5"):
            geweke(rng.normal(size=50))

    def test_flat_trace_degenerate(self):
        with pytest.raises(ValidationError, match="degenerate trace: zero variance in both windows"):
            geweke(np.full(1000, 3.5))


class TestCramerVonMisesCdf:
    def test_published_critical_values(self):
        assert cramer_von_mises_cdf(0.46136) == pytest.approx(0.95, abs=1e-3)
        assert cramer_von_mises_cdf(0.74346) == pytest.approx(0.99, abs=1e-3)
        assert cramer_von_mises_cdf(0.34730) == pytest.approx(0.90, abs=1e-3)

    def test_zero_and_negative(self):
        assert cramer_von_mises_cdf(0.0) == 0.0
        assert cramer_von_mises_cdf(-1.0) == 0.0

    def test_monotone_and_bounded(self):
        # Monotone to within the series' documented working precision,
        # across the clamp to exactly 1.0 above 10.
        grid = np.linspace(0.01, 12.0, 150)
        vals = [cramer_von_mises_cdf(q) for q in grid]
        assert all(b >= a - 1e-5 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_large_statistics_saturate(self):
        # A fixed-length series truncation underestimates the upper tail and
        # once let statistics in the hundreds pass the stationarity gate.
        for q in (2.0, 5.0, 50.0, 504.7):
            assert cramer_von_mises_cdf(q) > 0.999


class TestHeidelbergerWelch:
    def test_stationary_trace_passes_without_trimming(self):
        rng = np.random.default_rng(7)
        result = heidelberger_welch(rng.normal(size=1000))
        assert result.passes
        assert result.burn_in_fraction == 0.0
        assert result.halfwidth > 0.0

    def test_transient_is_trimmed_away(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=1000)
        values[:200] += 8.0
        result = heidelberger_welch(values)
        assert result.passes
        assert result.burn_in_fraction == pytest.approx(0.2)

    def test_random_walk_fails_at_half(self):
        rng = np.random.default_rng(9)
        result = heidelberger_welch(np.cumsum(rng.normal(size=2000)))
        assert result.passes is False
        assert result.burn_in_fraction == 0.5

    def test_short_trace_rejected(self):
        with pytest.raises(ValidationError, match="needs at least 50 points, got 20"):
            heidelberger_welch(np.arange(20.0))

    def test_alpha_bounds(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValidationError, match=r"alpha must lie in \(0, 1\)"):
            heidelberger_welch(rng.normal(size=100), alpha=1.0)

    def test_flat_trace_degenerate(self):
        with pytest.raises(ValidationError, match="degenerate trace: zero long-run variance"):
            heidelberger_welch(np.ones(200))

    def test_batch_study_mostly_passes_on_iid_traces(self):
        rng = np.random.default_rng(12)
        passed = sum(
            heidelberger_welch(rng.normal(size=600)).passes for _ in range(20)
        )
        assert passed >= 19
