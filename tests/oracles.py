"""Independent reference computations used to pin expected test values.

Nothing here imports the package under test. Each function recomputes a
quantity by a deliberately different route than the implementation:

* ``mc_marginal_loglik`` integrates the collapsed regression likelihood by
  plain Monte Carlo over prior draws.
* ``exact_marginal_loglik`` evaluates the same integral in closed form through
  the n-by-n marginal covariance (the implementation works in the k-by-k
  selected-column space instead).
* ``assoc_logprior_oracle`` and friends rebuild the spatial selection prior
  with scalar loops; ``state_prior_oracle`` and ``emission_oracle`` walk the
  state matrix cell by cell (the implementation works from its counts).
* ``enumerate_state_pairs`` / ``enumerate_joint_toy`` brute-force tiny
  posteriors by summing over every latent configuration.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import norm


def mc_marginal_loglik(
    y,
    z,
    *,
    intercept_prec: float,
    slab_prec: float,
    resid_df: float,
    resid_scale: float,
    n_draws: int,
    seed: int,
    chunk: int = 250_000,
) -> float:
    """Monte Carlo estimate of the marginal log likelihood of one response vector.

    Draws (precision, intercept, coefficients) from their priors and averages
    the Gaussian likelihood of ``y`` given design ``z``; the log of that
    average converges to the collapsed marginal.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    k = z.shape[1]
    rng = np.random.default_rng(seed)
    piece_lse = []
    remaining = int(n_draws)
    while remaining > 0:
        c = min(chunk, remaining)
        remaining -= c
        prec = rng.gamma(resid_df / 2.0, 2.0 / resid_scale, size=c)
        sig2 = 1.0 / prec
        mu = rng.normal(0.0, np.sqrt(sig2 / intercept_prec))
        mean = np.repeat(mu[:, None], n, axis=1)
        if k:
            beta = rng.standard_normal((c, k)) * np.sqrt(sig2 / slab_prec)[:, None]
            mean += beta @ z.T
        resid2 = np.square(y[None, :] - mean).sum(axis=1)
        ll = -0.5 * n * np.log(2.0 * np.pi * sig2) - 0.5 * resid2 / sig2
        piece_lse.append(logsumexp(ll))
    return float(logsumexp(np.asarray(piece_lse)) - np.log(n_draws))


def exact_marginal_loglik(
    y,
    z,
    *,
    intercept_prec: float,
    slab_prec: float,
    resid_df: float,
    resid_scale: float,
) -> float:
    """Closed-form marginal log likelihood via the full n-by-n covariance.

    Integrating the intercept and coefficients leaves
    y | s2 ~ N(0, s2 * C) with C = I + 11'/intercept_prec + ZZ'/slab_prec;
    integrating the inverse-gamma variance then yields a multivariate-t form.
    """
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    z = np.asarray(z, dtype=float).reshape(n, -1)
    cov = np.eye(n) + np.ones((n, n)) / intercept_prec
    if z.shape[1]:
        cov += (z @ z.T) / slab_prec
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ArithmeticError("marginal covariance is not positive definite")
    quad = float(y @ np.linalg.solve(cov, y))
    half_df = resid_df / 2.0
    return float(
        gammaln((n + resid_df) / 2.0)
        - gammaln(half_df)
        + half_df * np.log(resid_scale / 2.0)
        - 0.5 * n * np.log(2.0 * np.pi)
        - 0.5 * logdet
        - ((n + resid_df) / 2.0) * np.log((resid_scale + quad) / 2.0)
    )


def persistence_oracle(states, pos, fragment_length: float) -> np.ndarray:
    """Per-gap persistence scores: distance-decayed fraction of samples whose
    state carries over the gap."""
    states = np.asarray(states)
    pos = np.asarray(pos, dtype=float)
    n, n_probes = states.shape
    out = np.zeros(n_probes - 1)
    for m in range(1, n_probes):
        gap = pos[m] - pos[m - 1]
        decay = (np.exp(1.0 - gap / fragment_length) - 1.0) / (np.e - 1.0)
        out[m - 1] = decay * float(np.mean(states[:, m] == states[:, m - 1]))
    return out


def site_weights_oracle(s, alpha: float, n_probes: int):
    """Fresh/copy-left/copy-right mixture weights at each probe column."""
    fresh = np.ones(n_probes)
    copy_left = np.zeros(n_probes)
    copy_right = np.zeros(n_probes)
    if np.isinf(alpha):
        return fresh, copy_left, copy_right
    for m in range(1, n_probes - 1):
        s_left = float(s[m - 1])
        s_right = float(s[m])
        den = alpha + s_left + s_right
        fresh[m] = alpha / den
        copy_left[m] = s_left / den
        copy_right[m] = s_right / den
    return fresh, copy_left, copy_right


def site_prob_oracle(
    r: int,
    left: int | None,
    right: int | None,
    fresh: float,
    copy_left: float,
    copy_right: float,
    incl_a: float,
    incl_b: float,
) -> float:
    """Probability of one inclusion flag given its horizontal neighbors."""
    base = incl_a / (incl_a + incl_b) if r else incl_b / (incl_a + incl_b)
    p = fresh * base
    if left is not None and left == r:
        p += copy_left
    if right is not None and right == r:
        p += copy_right
    return p


def assoc_logprior_oracle(
    assoc,
    states,
    pos,
    fragment_length: float,
    *,
    incl_a: float,
    incl_b: float,
    alpha: float,
) -> float:
    """Log pseudo-likelihood of a full inclusion matrix under the spatial prior."""
    assoc = np.asarray(assoc)
    n_genes, n_probes = assoc.shape
    s = persistence_oracle(states, pos, fragment_length)
    fresh, copy_left, copy_right = site_weights_oracle(s, alpha, n_probes)
    total = 0.0
    for g in range(n_genes):
        for m in range(n_probes):
            left = int(assoc[g, m - 1]) if m > 0 else None
            right = int(assoc[g, m + 1]) if m < n_probes - 1 else None
            p = site_prob_oracle(
                int(assoc[g, m]), left, right,
                float(fresh[m]), float(copy_left[m]), float(copy_right[m]),
                incl_a, incl_b,
            )
            total += np.log(p)
    return float(total)


def full_log_density(
    y,
    x,
    assoc,
    states,
    *,
    trans,
    means,
    sds,
    stat_dist,
    pos,
    fragment_length: float,
    intercept_prec: float,
    slab_prec: float,
    resid_df: float,
    resid_scale: float,
    incl_a: float,
    incl_b: float,
    alpha: float,
    neutral_mask_frac: float = 1.0,
) -> float:
    """Joint log density of (inclusions, states, observations) given fixed
    emission/transition parameters. Brute-force scalar loops throughout.
    The support holds no inclusion at a column whose neutral (state 2)
    cells number more than ``neutral_mask_frac`` times the sample count;
    outside it the density is ``-inf``."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    assoc = np.asarray(assoc)
    states = np.asarray(states)
    n_samples, n_probes = states.shape
    for m in range(n_probes):
        n_neutral = sum(1 for i in range(n_samples) if states[i, m] == 2)
        if n_neutral > neutral_mask_frac * n_samples and any(assoc[:, m]):
            return float("-inf")
    trans = np.asarray(trans, dtype=float)
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    stat_dist = np.asarray(stat_dist, dtype=float)
    total = 0.0
    for g in range(y.shape[1]):
        sel = np.flatnonzero(assoc[g])
        total += exact_marginal_loglik(
            y[:, g],
            states[:, sel].astype(float),
            intercept_prec=intercept_prec,
            slab_prec=slab_prec,
            resid_df=resid_df,
            resid_scale=resid_scale,
        )
    total += assoc_logprior_oracle(
        assoc, states, pos, fragment_length,
        incl_a=incl_a, incl_b=incl_b, alpha=alpha,
    )
    total += state_prior_oracle(states, trans, stat_dist)
    total += emission_oracle(x, states, means, sds)
    return float(total)


def state_prior_oracle(states, trans, stat_dist) -> float:
    """Log probability of a state matrix under the row-wise Markov chain,
    one cell at a time; -inf as soon as a used probability is zero."""
    states = np.atleast_2d(states)
    total = 0.0
    for row in states:
        steps = [stat_dist[row[0] - 1]]
        steps += [trans[a - 1, b - 1] for a, b in zip(row[:-1], row[1:])]
        for p in steps:
            if p <= 0.0:
                return float("-inf")
            total += float(np.log(p))
    return total


def emission_oracle(x, states, means, sds) -> float:
    """Gaussian log density of every log-ratio under its state's mean and sd,
    one cell at a time."""
    total = 0.0
    for x_row, row in zip(np.atleast_2d(x), np.atleast_2d(states)):
        for value, state in zip(x_row, row):
            total += float(norm.logpdf(value, loc=means[state - 1], scale=sds[state - 1]))
    return total


def enumerate_state_pairs(x_row, *, trans, means, sds, stat_dist) -> np.ndarray:
    """Exact posterior over the 16 state pairs of a single two-probe sample,
    with no genes attached (the regression term is constant)."""
    x_row = np.asarray(x_row, dtype=float).ravel()
    trans = np.asarray(trans, dtype=float)
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    stat_dist = np.asarray(stat_dist, dtype=float)
    logw = np.empty((4, 4))
    for s1 in range(4):
        for s2 in range(4):
            logw[s1, s2] = (
                np.log(stat_dist[s1])
                + np.log(trans[s1, s2])
                + norm.logpdf(x_row[0], means[s1], sds[s1])
                + norm.logpdf(x_row[1], means[s2], sds[s2])
            )
    probs = np.exp(logw - logsumexp(logw))
    return probs / probs.sum()


def column_config_index(col_states) -> int:
    """Index of a state vector in base-4 enumeration (entry 0 least
    significant). For a length-4 column this is the column-config index used
    by :func:`enumerate_joint_toy`."""
    col = np.asarray(col_states).ravel()
    return int(sum((int(col[i]) - 1) << (2 * i) for i in range(col.size)))


def enumerate_joint_toy(
    y,
    x,
    *,
    trans,
    means,
    sds,
    stat_dist,
    pos,
    fragment_length: float,
    intercept_prec: float,
    slab_prec: float,
    resid_df: float,
    resid_scale: float,
    incl_a: float,
    incl_b: float,
    alpha: float,
):
    """Exact joint posterior for one gene, two probes, four samples.

    Sums over all 2*2 inclusion patterns and 4**8 state matrices. Returns an
    array ``probs`` of shape (2, 2, 256, 256) indexed by
    (r at probe 0, r at probe 1, column-0 config, column-1 config), with
    column configs encoded by :func:`column_config_index`.
    """
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    trans = np.asarray(trans, dtype=float)
    means = np.asarray(means, dtype=float)
    sds = np.asarray(sds, dtype=float)
    stat_dist = np.asarray(stat_dist, dtype=float)
    pos = np.asarray(pos, dtype=float)
    n = y.size
    if n != 4 or x.shape != (4, 2):
        raise ValueError("this enumeration is specialized to 4 samples and 2 probes")

    idx = np.arange(256)
    # cols[c, i] = state of sample i in config c, encoded base 4
    cols = np.stack([((idx >> (2 * i)) & 3) + 1 for i in range(4)], axis=1)

    em = np.zeros((2, 256))
    for m in range(2):
        em[m] = norm.logpdf(x[:, m][None, :], means[cols - 1], sds[cols - 1]).sum(axis=1)
    init = np.log(stat_dist)[cols - 1].sum(axis=1)
    log_a = np.log(trans)
    trans_block = np.zeros((256, 256))
    for i in range(4):
        c = cols[:, i] - 1
        trans_block += log_a[c[:, None], c[None, :]]

    m_none = exact_marginal_loglik(
        y, np.empty((4, 0)),
        intercept_prec=intercept_prec, slab_prec=slab_prec,
        resid_df=resid_df, resid_scale=resid_scale,
    )
    m_single = np.array([
        exact_marginal_loglik(
            y, cols[c].astype(float),
            intercept_prec=intercept_prec, slab_prec=slab_prec,
            resid_df=resid_df, resid_scale=resid_scale,
        )
        for c in range(256)
    ])
    # both columns selected: batched 4x4 covariance determinant and solve
    z0 = cols.astype(float)[:, None, :, None]
    z1 = cols.astype(float)[None, :, :, None]
    z = np.concatenate([np.broadcast_to(z0, (256, 256, 4, 1)),
                        np.broadcast_to(z1, (256, 256, 4, 1))], axis=3)
    cov = (np.eye(4) + np.ones((4, 4)) / intercept_prec
           + np.einsum("abik,abjk->abij", z, z) / slab_prec)
    sign, logdet = np.linalg.slogdet(cov)
    if np.any(sign <= 0):
        raise ArithmeticError("marginal covariance is not positive definite")
    quad = np.einsum("i,abij,j->ab", y, np.linalg.inv(cov), y)
    half_df = resid_df / 2.0
    m_pair = (
        gammaln((4 + resid_df) / 2.0) - gammaln(half_df)
        + half_df * np.log(resid_scale / 2.0) - 2.0 * np.log(2.0 * np.pi)
        - 0.5 * logdet - ((4 + resid_df) / 2.0) * np.log((resid_scale + quad) / 2.0)
    )

    base = init[:, None] + trans_block + em[0][:, None] + em[1][None, :]
    logw = np.empty((2, 2, 256, 256))
    for r0 in (0, 1):
        for r1 in (0, 1):
            if r0 and r1:
                marg = m_pair
            elif r0:
                marg = m_single[:, None]
            elif r1:
                marg = m_single[None, :]
            else:
                marg = m_none
            # with two probes both sites are boundary sites, so the selection
            # prior reduces to independent base odds; verify against the loop
            # oracle in the tests
            prior = 0.0
            for r in (r0, r1):
                prior += np.log(incl_a / (incl_a + incl_b) if r
                                else incl_b / (incl_a + incl_b))
            logw[r0, r1] = base + marg + prior
    probs = np.exp(logw - logsumexp(logw))
    return probs / probs.sum(), cols
