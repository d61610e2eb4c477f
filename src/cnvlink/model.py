"""Core domain types, hyperparameter containers, and input validation.

Every container is an immutable value object: constructors copy their array
arguments, validate them, and mark the copies read-only, so instances are safe
to share across threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

N_STATES = 4
#: Copy-number state codes (stored 1-based).
LOSS, NEUTRAL, GAIN, AMP = 1, 2, 3, 4

STATE_NAMES = ("loss", "neutral", "gain", "amp")


class ValidationError(ValueError):
    """An input violates a documented invariant."""


class NumericalError(ArithmeticError):
    """A numerical computation failed (non-finite intermediate, factorization
    breakdown, eigen solve that does not converge)."""


def _frozen_array(values, dtype, name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: cannot coerce to {np.dtype(dtype).name}: {exc}") from None
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        idx = tuple(int(v) for v in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"{name} has a non-finite entry at index {idx}")


def _require_shape(arr: np.ndarray, shape: tuple[int, ...], name: str) -> None:
    if arr.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {arr.shape}")


@dataclass(frozen=True)
class ObservedData:
    """Expression responses, copy-number log-ratios, and probe geometry.

    Parameters
    ----------
    y : (n_samples, n_genes) array
        Gene (or pathway-score) expression responses.
    x : (n_samples, n_probes) array
        Normalized log2 copy-number ratios.
    pos : (n_probes,) array
        Nondecreasing genomic coordinates of the probes.
    fragment_length : float
        Total length of the probed DNA fragment; must cover the probe span.
    """

    y: np.ndarray
    x: np.ndarray
    pos: np.ndarray
    fragment_length: float

    def __post_init__(self) -> None:
        y = _frozen_array(self.y, np.float64, "y")
        x = _frozen_array(self.x, np.float64, "x")
        pos = _frozen_array(self.pos, np.float64, "pos")
        if y.ndim != 2:
            raise ValidationError(f"y must be 2-d, got ndim={y.ndim}")
        if x.ndim != 2:
            raise ValidationError(f"x must be 2-d, got ndim={x.ndim}")
        n, n_genes = y.shape
        if n < 2:
            raise ValidationError(f"need at least 2 samples, got {n}")
        if n_genes < 1:
            raise ValidationError("y must have at least one gene column")
        if x.shape[0] != n:
            raise ValidationError(
                f"y and x disagree on sample count: {n} vs {x.shape[0]}"
            )
        if x.shape[1] < 2:
            raise ValidationError(f"need at least 2 probes, got {x.shape[1]}")
        _require_finite(y, "y")
        _require_finite(x, "x")
        _require_shape(pos, (x.shape[1],), "pos")
        _require_finite(pos, "pos")
        if np.any(np.diff(pos) < 0):
            m = int(np.flatnonzero(np.diff(pos) < 0)[0])
            raise ValidationError(f"pos must be nondecreasing; decreases at index {m + 1}")
        d = float(self.fragment_length)
        if not (math.isfinite(d) and d > 0):
            raise ValidationError(f"fragment_length must be a positive finite real, got {d}")
        span = float(pos[-1] - pos[0])
        if span > d:
            raise ValidationError(
                f"probe span {span} exceeds fragment_length {d}"
            )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "fragment_length", d)

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def n_genes(self) -> int:
        return self.y.shape[1]

    @property
    def n_probes(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class HmmHyper:
    """Hyperparameters of the hidden-state chain's emission and transition priors.

    ``eta_loc``/``eta_scale`` parameterize the truncated-normal priors on the
    four emission means, bounded by ``eta_low``/``eta_high``.
    ``prec_shape``/``prec_rate`` parameterize the gamma priors on the emission
    precisions, truncated below at ``sd_cap**-2`` (i.e. each sd is capped at
    ``sd_cap``). ``trans_conc`` is the Dirichlet concentration for each row of
    the transition matrix.

    With ``amp_floor_tracks_gain`` set, the amp floor
    ``means[amp] > means[gain] + sds[gain]`` is a constraint on the joint
    support: the joint prior is the product of the per-parameter priors
    restricted to that set, so single gains are not absorbed into the
    amplification state. Every move that changes the gain mean, the gain sd or
    the amp mean respects it, and a state outside it has log posterior -inf.

    The amp precision prior defaults to rate 0.01, so it is almost flat above
    its truncation point ``sd_cap[amp]**-2``. The amp state often holds only a
    few dozen cells, and a rate as large as the cells' half residual sum of
    squares would pull the amp sd toward its cap.
    """

    eta_loc: np.ndarray = (-1.0, 0.0, 0.58, 1.0)
    eta_scale: np.ndarray = (1.0, 1.0, 1.0, 2.0)
    eta_low: np.ndarray = (-math.inf, -0.1, 0.1, -math.inf)
    eta_high: np.ndarray = (-0.1, 0.1, 0.73, math.inf)
    prec_shape: np.ndarray = (1.0, 1.0, 1.0, 1.0)
    prec_rate: np.ndarray = (1.0, 1.0, 1.0, 0.01)
    sd_cap: np.ndarray = (0.41, 0.41, 0.41, 1.0)
    trans_conc: np.ndarray = (1.0, 1.0, 1.0, 1.0)
    amp_floor_tracks_gain: bool = True

    def __post_init__(self) -> None:
        for name in ("eta_loc", "eta_scale", "prec_shape", "prec_rate", "sd_cap", "trans_conc"):
            arr = _frozen_array(getattr(self, name), np.float64, name)
            _require_shape(arr, (N_STATES,), name)
            _require_finite(arr, name)
            object.__setattr__(self, name, arr)
        for name in ("eta_scale", "prec_shape", "prec_rate", "sd_cap", "trans_conc"):
            arr = getattr(self, name)
            if np.any(arr <= 0):
                j = int(np.flatnonzero(arr <= 0)[0])
                raise ValidationError(f"{name}[{j}] must be strictly positive, got {arr[j]}")
        low = _frozen_array(self.eta_low, np.float64, "eta_low")
        high = _frozen_array(self.eta_high, np.float64, "eta_high")
        _require_shape(low, (N_STATES,), "eta_low")
        _require_shape(high, (N_STATES,), "eta_high")
        if np.any(np.isnan(low)) or np.any(np.isnan(high)):
            raise ValidationError("eta bounds must not contain NaN")
        if np.any(low >= high):
            j = int(np.flatnonzero(low >= high)[0])
            raise ValidationError(f"eta_low[{j}]={low[j]} must be < eta_high[{j}]={high[j]}")
        finite = low[np.isfinite(low)]
        if np.any(np.diff(finite) <= 0):
            raise ValidationError("finite entries of eta_low must be strictly increasing")
        object.__setattr__(self, "eta_low", low)
        object.__setattr__(self, "eta_high", high)
        object.__setattr__(self, "amp_floor_tracks_gain", bool(self.amp_floor_tracks_gain))


@dataclass(frozen=True)
class RegressionHyper:
    """Hyperparameters of the collapsed association regression.

    The slab on an included coefficient is N(0, sigma_g^2 / slab_prec); the
    intercept prior is N(0, sigma_g^2 / intercept_prec). The residual precision
    prior is Gamma(resid_df/2, resid_scale/2); ``resid_scale=None`` defers to
    :func:`validate`, which sets it to 5% of the mean response variance.
    ``incl_a``/``incl_b`` give the Beta(a, b) hyperprior on the inclusion
    probability, so a site's marginal inclusion odds are a:b. ``alpha`` is the
    dependence strength of the selection prior; ``math.inf`` selects the
    spatially independent prior.
    """

    slab_prec: float = 10.0
    intercept_prec: float = 1e-6
    resid_df: float = 3.0
    resid_scale: float | None = None
    incl_a: float = 0.001
    incl_b: float = 0.999
    alpha: float = 30.0

    def __post_init__(self) -> None:
        for name in ("slab_prec", "intercept_prec", "resid_df", "incl_a", "incl_b"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a positive finite real, got {v}")
            object.__setattr__(self, name, v)
        if self.resid_scale is not None:
            v = float(self.resid_scale)
            if not (math.isfinite(v) and v > 0):
                raise ValidationError(f"resid_scale must be positive and finite, got {v}")
            object.__setattr__(self, "resid_scale", v)
        a = float(self.alpha)
        if math.isnan(a) or a <= 0:
            raise ValidationError(f"alpha must be positive (or inf), got {a}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class SamplerConfig:
    """Chain length, move-size laws, and reproducibility knobs.

    ``gene_block_p``/``row_block_p`` are the geometric(p) laws (support
    {1, 2, ...}) for how many genes get an association move per sweep and how
    many rows are refreshed in the chosen state column; draws above the
    respective cap are rejected and redrawn. ``neutral_mask_frac`` is a
    constraint on the posterior's support: no gene may select a column that
    is neutral in more than that fraction of samples, so such a column is
    never proposed for inclusion, and a state change that would make an
    included column so is rejected.
    ``flip_prob`` chooses an add/delete move over a swap. The ``update_*``
    switches freeze individual blocks, for conditional runs and tests.
    """

    iterations: int
    burn_in: int
    thin: int = 1
    seed: int = 0
    gene_block_p: float = 0.4
    row_block_p: float = 0.6
    neutral_mask_frac: float = 0.9
    flip_prob: float = 0.5
    update_assoc: bool = True
    update_states: bool = True
    update_means: bool = True
    update_sds: bool = True
    update_trans: bool = True
    debug_checks: bool = False

    def __post_init__(self) -> None:
        it = int(self.iterations)
        burn = int(self.burn_in)
        thin = int(self.thin)
        if it < 1:
            raise ValidationError(f"iterations must be >= 1, got {it}")
        if burn < 0:
            raise ValidationError(f"burn_in must be >= 0, got {burn}")
        if burn >= it:
            raise ValidationError("burn_in must be < iterations")
        if thin < 1:
            raise ValidationError(f"thin must be >= 1, got {thin}")
        seed = int(self.seed)
        if not (0 <= seed < 2**64):
            raise ValidationError(f"seed must fit in 64 bits, got {seed}")
        for name, lo_open, hi_closed in (
            ("gene_block_p", 0.0, False),
            ("row_block_p", 0.0, False),
            ("neutral_mask_frac", 0.0, True),
        ):
            v = float(getattr(self, name))
            if not (lo_open < v and (v <= 1.0 if hi_closed else v < 1.0)):
                rng = "(0, 1]" if hi_closed else "(0, 1)"
                raise ValidationError(f"{name} must lie in {rng}, got {v}")
            object.__setattr__(self, name, v)
        fp = float(self.flip_prob)
        if not (0.0 <= fp <= 1.0):
            raise ValidationError(f"flip_prob must lie in [0, 1], got {fp}")
        object.__setattr__(self, "iterations", it)
        object.__setattr__(self, "burn_in", burn)
        object.__setattr__(self, "thin", thin)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "flip_prob", fp)
        for name in ("update_assoc", "update_states", "update_means", "update_sds",
                     "update_trans", "debug_checks"):
            object.__setattr__(self, name, bool(getattr(self, name)))

    @property
    def n_retained(self) -> int:
        """Number of post-burn-in samples the trace will hold."""
        return len(range(self.burn_in, self.iterations, self.thin))


@dataclass(frozen=True)
class ValidatedContext:
    """Checked, model-ready inputs as produced by :func:`validate`.

    ``data.y`` holds the responses actually modeled (standardized unless the
    caller opted out); ``y_center``/``y_scale`` record the per-column affine
    transform so raw-scale quantities can be recovered.
    """

    data: ObservedData
    hyper: RegressionHyper
    hmm_hyper: HmmHyper
    cfg: SamplerConfig
    standardized: bool
    y_center: np.ndarray
    y_scale: np.ndarray


def validate(
    data: ObservedData,
    hyper: RegressionHyper,
    hmm_hyper: HmmHyper,
    cfg: SamplerConfig,
    *,
    standardize: bool = True,
) -> ValidatedContext:
    """Cross-check the inputs, standardize responses, and resolve deferred defaults.

    Standardization maps every response column to zero mean and unit sample
    variance (ddof=1); a constant column cannot be standardized and is
    rejected. When ``hyper.resid_scale`` is unset it resolves to 5% of the
    mean per-column sample variance of the modeled responses, which is exactly
    0.05 under standardization.
    """
    if not isinstance(data, ObservedData):
        data = ObservedData(*data)
    y = np.asarray(data.y, dtype=np.float64)
    n = y.shape[0]
    center = y.mean(axis=0)
    sd = y.std(axis=0, ddof=1)
    if standardize:
        zero = np.flatnonzero(sd == 0)
        if zero.size:
            raise ValidationError(
                f"response column {int(zero[0])} is constant and cannot be standardized"
            )
        y_model = (y - center) / sd
        data = ObservedData(y_model, data.x, data.pos, data.fragment_length)
        y_center, y_scale = center, sd
    else:
        y_center = np.zeros_like(center)
        y_scale = np.ones_like(sd)
    if hyper.resid_scale is None:
        mean_var = float(np.mean(np.var(data.y, axis=0, ddof=1))) if n > 1 else 1.0
        hyper = dataclasses.replace(hyper, resid_scale=0.05 * mean_var)
    y_center = _frozen_array(y_center, np.float64, "y_center")
    y_scale = _frozen_array(y_scale, np.float64, "y_scale")
    return ValidatedContext(
        data=data,
        hyper=hyper,
        hmm_hyper=hmm_hyper,
        cfg=cfg,
        standardized=bool(standardize),
        y_center=y_center,
        y_scale=y_scale,
    )
