"""Collapsed regression likelihood and hidden-chain density pieces.

The regression integrates its intercept, coefficients, and residual variance
analytically, so a gene's evidence depends on the data only through its
intercept-swept response and the selected state columns. The sweep operator
appears once per factor in every inner product (it is not a projection, so it
must not be applied twice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaln

from .model import N_STATES, NumericalError, RegressionHyper, ValidationError

LOG_TWO_PI = float(np.log(2.0 * np.pi))


def sweep_intercept(values: np.ndarray, intercept_prec: float) -> np.ndarray:
    """Remove the shrunken column mean: v - sum(v) / (n + intercept_prec).

    Applies the intercept-marginalization operator along axis 0.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    return values - values.sum(axis=0) / (n + intercept_prec)


@dataclass(frozen=True)
class ResponsePrecompute:
    """Per-gene response quantities reused across likelihood evaluations:
    ``swept`` is the intercept-swept response matrix, ``quad`` the per-gene
    swept self-products."""

    swept: np.ndarray
    quad: np.ndarray


def precompute_responses(y: np.ndarray, intercept_prec: float) -> ResponsePrecompute:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValidationError(f"y must be 2-d, got ndim={y.ndim}")
    swept = sweep_intercept(y, intercept_prec)
    quad = np.einsum("ij,ij->j", y, swept)
    return ResponsePrecompute(swept=swept, quad=quad)


def collapsed_loglik_from_parts(
    z: np.ndarray,
    swept_y: np.ndarray,
    quad_y: float,
    hyper: RegressionHyper,
) -> float:
    """Marginal log likelihood of one response given its selected state columns.

    ``z`` holds the selected columns as floats (n, k); ``swept_y`` is the
    intercept-swept response and ``quad_y`` its swept self-product. With no
    columns selected the Gram determinant is empty and the quadratic form is
    ``quad_y`` itself. ``hyper.resid_scale`` must be resolved (see
    :func:`~cnvlink.model.validate`).
    """
    n = swept_y.shape[0]
    k = z.shape[1] if z.ndim == 2 else 0
    if k:
        gram = hyper.slab_prec * np.eye(k) + z.T @ sweep_intercept(z, hyper.intercept_prec)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"regression Gram matrix of order {k} is not positive definite"
            ) from None
        w = solve_triangular(chol, z.T @ swept_y, lower=True)
        quad = quad_y - float(w @ w)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    else:
        quad = quad_y
        logdet = 0.0
    if quad < -1e-8 * max(quad_y, 1.0):
        raise NumericalError(f"collapsed quadratic form went negative: {quad}")
    quad = max(quad, 0.0)
    df = hyper.resid_df
    scale = hyper.resid_scale
    return float(
        -0.5 * n * LOG_TWO_PI
        + 0.5 * np.log(hyper.intercept_prec / (hyper.intercept_prec + n))
        + 0.5 * k * np.log(hyper.slab_prec)
        + gammaln((n + df) / 2.0)
        - gammaln(df / 2.0)
        + 0.5 * df * np.log(scale / 2.0)
        - 0.5 * logdet
        - 0.5 * (n + df) * np.log((scale + quad) / 2.0)
    )


def log_marginal_likelihood(
    y: np.ndarray,
    xi,
    r_row: np.ndarray,
    hyper: RegressionHyper,
) -> float:
    """Marginal log likelihood of one gene's responses given the state matrix
    and that gene's inclusion row."""
    if hyper.resid_scale is None:
        raise ValidationError("resid_scale is unresolved; run validate() first")
    y = np.asarray(y, dtype=np.float64).ravel()
    states = np.asarray(xi)
    if states.shape[0] != y.shape[0]:
        raise ValidationError(
            f"y has {y.shape[0]} samples but states has {states.shape[0]} rows"
        )
    r_row = np.asarray(r_row)
    if r_row.shape != (states.shape[1],):
        raise ValidationError(
            f"r_row must have one flag per probe ({states.shape[1]}), got {r_row.shape}"
        )
    sel = np.flatnonzero(r_row)
    z = states[:, sel].astype(np.float64)
    pre = precompute_responses(y[:, None], hyper.intercept_prec)
    return collapsed_loglik_from_parts(z, pre.swept[:, 0], float(pre.quad[0]), hyper)


def residual_ssq(count, total: float, total_sq: float, mean: float) -> float:
    """Sum of squared deviations from ``mean`` of ``count`` values whose sum
    is ``total`` and sum of squares ``total_sq``:
    ``total_sq - 2 mean total + count mean^2``, clamped at 0 against
    rounding. Takes scalars."""
    return max(total_sq - 2.0 * mean * total + count * mean * mean, 0.0)


def log_emission(counts, sums, sumsq, means, sds) -> float:
    """Total Gaussian log density of the log-ratios given the state matrix,
    from its per-state cell counts, sums and sums of squares (sequences of
    four)."""
    total = 0.0
    for count, s1, s2, mean, sd in zip(counts, sums, sumsq, means, sds):
        total -= count * (0.5 * LOG_TWO_PI + math.log(sd)) + 0.5 * residual_ssq(
            count, s1, s2, mean
        ) / (sd * sd)
    return total


def transition_counts(states: np.ndarray) -> np.ndarray:
    """Counts of each (state, next state) pair along the rows, as a
    4 x 4 matrix."""
    codes = (states[:, :-1].astype(np.int64) - 1) * N_STATES + (
        states[:, 1:].astype(np.int64) - 1
    )
    return np.bincount(codes.ravel(), minlength=N_STATES * N_STATES).reshape(
        N_STATES, N_STATES
    )


def initial_counts(states: np.ndarray) -> np.ndarray:
    """Count of each state in the first column."""
    return np.bincount(states[:, 0] - 1, minlength=N_STATES)


def log_state_prior(first_counts, trans_counts, trans, stat_dist) -> float:
    """Log probability of the state matrix under the row-wise Markov chain,
    from its first-column state counts and its 4 x 4 transition counts.

    Rows are independent; the first probe follows the stationary law and each
    subsequent probe follows the transition row of its left neighbor. A zero
    probability that the states use yields ``-inf`` rather than an error; an
    unused one contributes nothing (0 log 0 = 0).
    """
    counts = np.concatenate([np.ravel(first_counts), np.ravel(trans_counts)]).tolist()
    probs = np.concatenate([np.ravel(stat_dist), np.ravel(trans)]).tolist()
    total = 0.0
    for count, prob in zip(counts, probs):
        if count:
            if prob <= 0.0:
                return float("-inf")
            total += count * math.log(prob)
    return total


def stationary_distribution(trans: np.ndarray) -> np.ndarray:
    """Stationary law of a strictly positive stochastic matrix, from the left
    eigenvector with eigenvalue one."""
    trans = np.asarray(trans, dtype=np.float64)
    if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
        raise ValidationError(f"trans must be square, got shape {trans.shape}")
    try:
        eigvals, eigvecs = np.linalg.eig(trans.T)
    except np.linalg.LinAlgError:
        raise NumericalError("eigendecomposition of the transition matrix failed") from None
    pick = int(np.argmin(np.abs(eigvals - 1.0)))
    if abs(eigvals[pick] - 1.0) > 1e-8:
        raise NumericalError(
            f"no eigenvalue near 1 (closest {eigvals[pick]!r}); matrix is not stochastic"
        )
    v = np.real(eigvecs[:, pick])
    total = v.sum()
    if total == 0.0:
        raise NumericalError("stationary eigenvector sums to zero")
    v = v / total
    if np.any(v < -1e-10):
        raise NumericalError(f"stationary solve produced a negative mass: {v.min()}")
    v = np.clip(v, 0.0, None)
    v = v / v.sum()
    resid = float(np.max(np.abs(v @ trans - v)))
    if resid > 1e-10:
        raise NumericalError(f"stationary residual too large: {resid:.3e}")
    v.flags.writeable = False
    return v
