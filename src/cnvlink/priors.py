"""Spatially dependent selection prior and truncated-distribution tools.

The selection prior ties a gene's inclusion flag at a probe to its flags at
the flanking probes, with strength driven by how often the hidden states
persist across each inter-probe gap and by the gap width. The joint prior over
an inclusion matrix is the product of the one-site conditionals
(pseudo-likelihood), which keeps Metropolis ratios local: a state change only
moves the site terms at the two columns flanking each gap whose persistence
count changed (for a change in one column: that column and its neighbors).

:func:`site_log_probs` is the one implementation of the one-site conditional:
:func:`log_assoc_prior`, the sampler's inclusion and state moves and its
``log_posterior`` monitor all evaluate the prior through it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc, gammainccinv, gammaln, log_ndtr, ndtr, ndtri

from .model import RegressionHyper, ValidationError

# The same expm1 the decay numerator uses, not math.e - 1.0: the decay at gap
# zero must divide to exactly 1.0, and the constants differ in the last bit.
E_MINUS_ONE = float(np.expm1(1.0))
LOG_TINY = math.log(1e-300)
#: Largest standardized bound the tail sampler takes; it squares the bound.
TAIL_LIMIT = 1e150


def gap_decay(gaps: np.ndarray, fragment_length: float) -> np.ndarray:
    """Distance decay applied to each inter-probe gap: 1 at gap 0, 0 at the
    full fragment length."""
    gaps = np.asarray(gaps, dtype=np.float64)
    over = np.flatnonzero(gaps > fragment_length)
    if over.size:
        m = int(over[0])
        raise ValidationError(
            f"gap {m} ({gaps[m]}) exceeds fragment_length {fragment_length}"
        )
    if np.any(gaps < 0):
        m = int(np.flatnonzero(gaps < 0)[0])
        raise ValidationError(f"gap {m} is negative ({gaps[m]})")
    return np.expm1(1.0 - gaps / fragment_length) / E_MINUS_ONE


def persistence_counts(states: np.ndarray) -> np.ndarray:
    """Per inter-probe gap, the number of rows whose state persists across it."""
    return (states[:, 1:] == states[:, :-1]).sum(axis=0, dtype=np.int64)


def adjacency(decay: np.ndarray, counts: np.ndarray, n_rows: int) -> np.ndarray:
    """Adjacency score per gap: the distance-decayed fraction of rows whose
    state persists across it. Values lie in [0, 1]."""
    return decay * (counts / n_rows)


def persistence_weights(xi, pos: np.ndarray, fragment_length: float) -> np.ndarray:
    """Adjacency scores of a state matrix with probe coordinates ``pos``."""
    states = np.asarray(xi)
    pos = np.asarray(pos, dtype=np.float64)
    if pos.shape != (states.shape[1],):
        raise ValidationError(
            f"pos must have one coordinate per probe ({states.shape[1]}), got {pos.shape}"
        )
    decay = gap_decay(np.diff(pos), fragment_length)
    return adjacency(decay, persistence_counts(states), states.shape[0])


def mixture_weights(s: np.ndarray, alpha: float):
    """Per-column weights ``(fresh, copy_left, copy_right)`` (length M) from
    adjacency scores ``s`` (length M-1).

    Interior columns split mass as alpha : s_left : s_right. Boundary columns
    have no flank on one side, so their copy weights are zero and the fresh
    weight is one. An infinite ``alpha`` gives the spatially independent prior.
    """
    n_probes = s.shape[0] + 1
    fresh = np.ones(n_probes)
    copy_left = np.zeros(n_probes)
    copy_right = np.zeros(n_probes)
    if not math.isinf(alpha) and n_probes > 2:
        s_left = s[:-1]
        s_right = s[1:]
        den = alpha + s_left + s_right
        fresh[1:-1] = alpha / den
        copy_left[1:-1] = s_left / den
        copy_right[1:-1] = s_right / den
    return fresh, copy_left, copy_right


def site_log_probs(
    assoc: np.ndarray, cols: np.ndarray | None, s: np.ndarray, hyper: RegressionHyper
) -> np.ndarray:
    """Log probability of each row's inclusion flag at each column of
    ``cols`` (every column when ``cols`` is None) given the row's flags at
    the flanking columns, under the adjacency scores ``s``; shape
    ``(assoc.shape[0], len(cols))``.

    The site probability is ``fresh * base + copy_left * [left == r] +
    copy_right * [right == r]``, where the fresh component integrates the
    Beta hyperprior, leaving base odds ``incl_a : incl_b``. A zero
    probability maps to -inf.
    """
    fresh, copy_left, copy_right = mixture_weights(s, hyper.alpha)
    base1 = hyper.incl_a / (hyper.incl_a + hyper.incl_b)
    base0 = hyper.incl_b / (hyper.incl_a + hyper.incl_b)
    # a boundary column's missing flank wraps around, under a copy weight of 0
    if cols is None:
        r = assoc
        left = np.roll(assoc, 1, axis=1)
        right = np.roll(assoc, -1, axis=1)
    else:
        r = assoc[:, cols]
        left = assoc[:, cols - 1]
        right = assoc[:, (cols + 1) % assoc.shape[1]]
        fresh, copy_left, copy_right = fresh[cols], copy_left[cols], copy_right[cols]
    p = (
        fresh * np.where(r == 1, base1, base0)
        + copy_left * (left == r)
        + copy_right * (right == r)
    )
    # row-major output, which fixes the order of the callers' sums
    return np.log(p, order="C")


def log_assoc_prior(
    assoc,
    xi,
    pos: np.ndarray,
    fragment_length: float,
    hyper: RegressionHyper,
) -> float:
    """Log pseudo-likelihood of the whole inclusion matrix given the states."""
    inc = np.asarray(assoc)
    s = persistence_weights(xi, pos, fragment_length)
    return float(site_log_probs(inc, None, s, hyper).sum())


def _robert_tail(low: float, high: float, rng: np.random.Generator) -> float:
    """Standard normal conditioned on (low, high), 0 <= low < high <= inf, by
    Robert's (1995) rejection sampler: a uniform proposal when the interval
    is narrower than his crossover width, else a shifted exponential one,
    whose draws above ``high`` are rejected."""
    root = math.sqrt(low * low + 4.0)
    crossover = 2.0 * math.sqrt(math.e) / (low + root) * math.exp(0.25 * low * (low - root))
    if high - low < crossover:
        while True:
            z = low + (high - low) * rng.random()
            if rng.random() <= math.exp(0.5 * (low - z) * (low + z)):
                return z
    lam = 0.5 * (low + root)
    while True:
        x = low - math.log1p(-rng.random()) / lam
        diff = x - lam
        if x < high and rng.random() <= math.exp(-0.5 * diff * diff):
            return x


def _log_interval_mass(a: float, b: float) -> float:
    """log(Phi(b) - Phi(a)) for standardized bounds a < b, cancellation-safe."""
    if a == -math.inf and b == math.inf:
        return 0.0
    if a == -math.inf:
        return float(log_ndtr(b))
    if b == math.inf:
        return float(log_ndtr(-a))
    if a >= 0.0:
        la = float(log_ndtr(-a))
        lb = float(log_ndtr(-b))
        return la + math.log1p(-math.exp(lb - la)) if lb < la else float("-inf")
    if b <= 0.0:
        lb = float(log_ndtr(b))
        la = float(log_ndtr(a))
        return lb + math.log1p(-math.exp(la - lb)) if la < lb else float("-inf")
    mass = float(ndtr(b) - ndtr(a))
    return math.log(mass) if mass > 0.0 else float("-inf")


def _sample_std_truncnorm(a: float, b: float, rng: np.random.Generator) -> float:
    """Standard normal restricted to (a, b). Far upper tails use rejection;
    everything else inverts the CDF on the better-conditioned side."""
    if a == -math.inf and b == math.inf:
        return float(rng.standard_normal())
    if a >= 0.0:
        if b == math.inf and a >= 5.0:
            return _robert_tail(a, b, rng)
        hi = float(ndtr(-a))
        lo = 0.0 if b == math.inf else float(ndtr(-b))
        while True:
            u = lo + (hi - lo) * rng.random()
            z = -float(ndtri(u))
            if math.isfinite(z):
                return z
    if b <= 0.0:
        return -_sample_std_truncnorm(-b, -a, rng)
    lo = float(ndtr(a))
    hi = 1.0 if b == math.inf else float(ndtr(b))
    while True:
        u = lo + (hi - lo) * rng.random()
        z = float(ndtri(u))
        if math.isfinite(z):
            return z


def sample_truncated_normal(
    mean: float,
    sd: float,
    low: float,
    high: float,
    rng: np.random.Generator,
) -> float:
    """Draw from N(mean, sd^2) restricted to the open interval (low, high).

    An interval so deep in one tail that its mass underflows (below 1e-300)
    is sampled by rejection in that tail; only one that also straddles the
    mean, or whose near bound lies beyond ``TAIL_LIMIT`` sds, is rejected.
    """
    if not (sd > 0 and math.isfinite(sd)):
        raise ValidationError(f"sd must be positive and finite, got {sd}")
    if not math.isfinite(mean):
        raise ValidationError(f"mean must be finite, got {mean}")
    if not low < high:
        raise ValidationError(f"need low < high, got ({low}, {high})")
    a = (low - mean) / sd
    b = (high - mean) / sd
    if _log_interval_mass(a, b) >= LOG_TINY:
        z = _sample_std_truncnorm(a, b, rng)
    elif 0.0 <= a < TAIL_LIMIT:
        z = _robert_tail(a, b, rng)
    elif -TAIL_LIMIT < b <= 0.0:
        z = -_robert_tail(-b, -a, rng)
    else:
        raise ValidationError(
            f"degenerate truncation: interval ({low}, {high}) carries no mass "
            f"under N({mean}, {sd}^2)"
        )
    x = mean + sd * z
    if x <= low:
        x = math.nextafter(low, high)
    elif x >= high:
        x = math.nextafter(high, low)
    return float(x)


def sample_truncated_gamma(
    shape: float,
    rate: float,
    lower_bound: float,
    rng: np.random.Generator,
) -> float:
    """Gamma(shape, rate) draw conditioned to exceed ``lower_bound``.

    Inverts the upper-tail CDF so the conditioning stays exact even when the
    bound sits far into the tail.
    """
    if not (shape > 0 and rate > 0):
        raise ValidationError(f"shape and rate must be positive, got ({shape}, {rate})")
    if not (lower_bound >= 0 and math.isfinite(lower_bound)):
        raise ValidationError(f"lower_bound must be finite and >= 0, got {lower_bound}")
    if lower_bound == 0.0:
        return float(rng.gamma(shape, 1.0 / rate))
    tail = float(gammaincc(shape, rate * lower_bound))
    if tail <= 1e-300:
        raise ValidationError(
            f"degenerate truncation: bound {lower_bound} leaves tail mass {tail}"
        )
    # u in (0, tail], avoiding the u=0 endpoint whose inverse is infinite
    u = tail * (1.0 - rng.random())
    x = float(gammainccinv(shape, u)) / rate
    if x <= lower_bound:
        x = math.nextafter(lower_bound, math.inf)
    return x


def truncated_normal_logpdf(
    x: float, mean: float, sd: float, low: float, high: float
) -> float:
    """Log density of the truncated normal at ``x`` (open-interval support)."""
    if not low < high:
        raise ValidationError(f"need low < high, got ({low}, {high})")
    if x <= low or x >= high:
        return float("-inf")
    z = (x - mean) / sd
    logmass = _log_interval_mass((low - mean) / sd, (high - mean) / sd)
    return -0.5 * z * z - math.log(sd) - 0.5 * math.log(2.0 * math.pi) - logmass


def truncated_gamma_logpdf(
    x: float, shape: float, rate: float, lower_bound: float
) -> float:
    """Log density at ``x`` of Gamma(shape, rate) conditioned above ``lower_bound``."""
    if x <= lower_bound or x <= 0.0:
        return float("-inf")
    logpdf = (
        shape * math.log(rate)
        - float(gammaln(shape))
        + (shape - 1.0) * math.log(x)
        - rate * x
    )
    if lower_bound > 0.0:
        tail = float(gammaincc(shape, rate * lower_bound))
        if tail <= 0.0:
            return float("-inf")
        logpdf -= math.log(tail)
    return logpdf


def dirichlet_logpdf(x: np.ndarray, conc: np.ndarray) -> float:
    """Log density of a Dirichlet law at a probability vector."""
    x = np.asarray(x, dtype=np.float64)
    conc = np.asarray(conc, dtype=np.float64)
    if np.any(x <= 0.0):
        return float("-inf")
    return float(
        gammaln(conc.sum()) - gammaln(conc).sum() + ((conc - 1.0) * np.log(x)).sum()
    )
