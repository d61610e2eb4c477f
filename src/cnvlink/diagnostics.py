"""Convergence diagnostics for scalar chain series.

Two classical stationarity checks: a two-window mean-equality z-score and an
iterative initial-transient test built on the Cramér–von Mises statistic of a
Brownian bridge. Long-run variances come from batch means with ``isqrt(n)``
batches throughout, so both diagnostics stay robust to autocorrelation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .model import ValidationError

MIN_TRACE_LEN = 50
_SERIES_EPS = 1e-5


def _values_of(trace: np.ndarray) -> np.ndarray:
    values = np.asarray(trace, dtype=np.float64)
    if values.ndim != 1:
        raise ValidationError("trace must be a one-dimensional series")
    if not np.all(np.isfinite(values)):
        raise ValidationError("trace contains non-finite values")
    return values


def spectral_density_at_zero(values: np.ndarray) -> float:
    """Long-run variance estimate: batch means over isqrt(n) batches."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    n_batches = math.isqrt(n)
    if n_batches < 2:
        raise ValidationError(f"need at least 4 points for a batch-means estimate, got {n}")
    batch_size = n // n_batches
    used = values[: n_batches * batch_size]
    means = used.reshape(n_batches, batch_size).mean(axis=1)
    return float(batch_size * np.var(means, ddof=1))


def geweke(trace: np.ndarray, frac_first: float = 0.1, frac_last: float = 0.5) -> float:
    """Mean-equality z-score between an early and a late window.

    The windows must not overlap and each needs at least ten points. A trace
    flat in both windows has no scale to compare on and raises a degenerate
    error.
    """
    values = _values_of(trace)
    n = values.size
    if not (0.0 < frac_first < 1.0 and 0.0 < frac_last < 1.0):
        raise ValidationError("window fractions must lie in (0, 1)")
    n_a = int(frac_first * n)
    n_b = int(frac_last * n)
    if n_a + n_b > n:
        raise ValidationError(
            f"windows overlap: {n_a} + {n_b} points exceed the {n}-point trace"
        )
    if n_a < 10 or n_b < 10:
        raise ValidationError(
            f"windows need >= 10 points each, got {n_a} and {n_b}"
        )
    first = values[:n_a]
    last = values[n - n_b :]
    s_a = spectral_density_at_zero(first)
    s_b = spectral_density_at_zero(last)
    var = s_a / n_a + s_b / n_b
    if var <= 0.0:
        raise ValidationError("degenerate trace: zero variance in both windows")
    return float((first.mean() - last.mean()) / math.sqrt(var))


def cramer_von_mises_cdf(statistic: float) -> float:
    """Asymptotic CDF of the one-sample Cramér–von Mises statistic
    (modified-Bessel series; terms below the working precision are dropped).

    The number of contributing terms grows like the square root of the
    statistic, so the series is summed until its exponential factor falls
    below the working precision rather than truncated at a fixed count — a
    fixed four-term sum underestimates the CDF beyond statistics of about
    1.6, which would make extreme nonstationarity look acceptable. Above 10
    the upper tail is smaller than double-precision resolution and the CDF
    is exactly 1.0.
    """
    q = float(statistic)
    if q <= 0.0:
        return 0.0
    if q >= 10.0:
        return 1.0
    total = 0.0
    log_eps = math.log(_SERIES_EPS)
    k = 0
    while True:
        u = (4 * k + 1) ** 2 / (16.0 * q)
        if u > -log_eps:
            break
        z = (
            math.gamma(k + 0.5)
            * math.sqrt(4 * k + 1)
            / (math.gamma(k + 1) * math.pi ** 1.5 * math.sqrt(q))
        )
        total += z * math.exp(-u) * float(special.kv(0.25, u))
        k += 1
    return min(total, 1.0)


@dataclass(frozen=True)
class HWResult:
    """Stationarity verdict plus informational precision figures."""

    passes: bool
    burn_in_fraction: float
    statistic: float
    halfwidth: float
    relative_halfwidth: float


def heidelberger_welch(trace: np.ndarray, alpha: float = 0.05) -> HWResult:
    """Initial-transient test: drop leading tenths until the bridge statistic
    of the remainder clears the level-``alpha`` critical value.

    Returns whether any prefix removal of at most half the trace succeeds and
    the fraction removed (0.5 with ``passes=False`` when none does). The
    half-width figures describe the retained portion and are informational
    only. The long-run variance is estimated once, from the second half of
    the full trace.
    """
    values = _values_of(trace)
    n = values.size
    if n < MIN_TRACE_LEN:
        raise ValidationError(
            f"stationarity test needs at least {MIN_TRACE_LEN} points, got {n}"
        )
    if not (0.0 < alpha < 1.0):
        raise ValidationError("alpha must lie in (0, 1)")
    s0 = spectral_density_at_zero(values[n // 2 :])
    if s0 <= 0.0:
        raise ValidationError("degenerate trace: zero long-run variance")
    critical = 1.0 - alpha
    passes = False
    fraction = 0.5
    statistic = math.nan
    for frac in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        start = int(frac * n)
        kept = values[start:]
        nw = kept.size
        bridge = np.cumsum(kept) - np.arange(1, nw + 1) * kept.mean()
        statistic = float(np.sum(bridge * bridge) / (nw * nw * s0))
        if cramer_von_mises_cdf(statistic) < critical:
            passes = True
            fraction = frac
            break
    kept = values[int(fraction * n) :]
    s_kept = spectral_density_at_zero(kept)
    halfwidth = 1.96 * math.sqrt(s_kept / kept.size)
    mean_kept = float(kept.mean())
    relative = halfwidth / abs(mean_kept) if mean_kept != 0.0 else math.inf
    return HWResult(
        passes=passes,
        burn_in_fraction=fraction,
        statistic=statistic,
        halfwidth=float(halfwidth),
        relative_halfwidth=float(relative),
    )
