"""Synthetic data generation and recovery metrics.

Datasets are built in four steps: a state matrix that is neutral except for a
chosen set of varied columns (plus lightly perturbed extra columns), Gaussian
copy-number signals from the states, a sparse association pattern with signed
effects inside the varied columns, and expression responses that regress on
the raw state values.

The default transition matrix has two rows that do not quite sum to one as
published; rows are renormalized here and the dataset manifest records that,
along with the stretch rule for varied-column runs (neither is uniquely
determined by the published protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import NEUTRAL, N_STATES, ObservedData, ValidationError
from .likelihood import stationary_distribution

_RAW_TRANS = np.array(
    [
        [0.75, 0.18, 0.05, 0.02],
        [0.4955, 0.002, 0.4955, 0.007],
        [0.02, 0.18, 0.70, 0.01],
        [0.0001, 0.3028, 0.10, 0.597],
    ]
)
#: Default simulation transition matrix, rows renormalized to sum to one.
DEFAULT_TRANS = _RAW_TRANS / _RAW_TRANS.sum(axis=1, keepdims=True)
DEFAULT_TRANS.setflags(write=False)

DEFAULT_STATE_MEANS = (-0.65, 0.0, 0.65, 1.5)
DEFAULT_STATE_SDS = (0.1, 0.1, 0.1, 0.2)

#: Mean run length for stretches of adjacent varied columns.
_RUN_MEAN = 5
_EXTRA_ROW_FRAC = 0.1


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one synthetic dataset."""

    n_samples: int
    n_genes: int
    n_probes: int
    n_varied: int
    n_assoc: int
    noise_sd: float | Sequence[float] = 0.1
    effect_mean: float = 2.0
    effect_sd: float = 0.3
    weak_effect_count: int = 0
    weak_effect_mean: float = 0.5
    clustered: bool = False
    state_means: Sequence[float] = DEFAULT_STATE_MEANS
    state_sds: Sequence[float] = DEFAULT_STATE_SDS
    trans_matrix: Sequence[Sequence[float]] | None = None
    intercept_sd: float = 0.1
    probe_spacing: float = 1.0
    fragment_length: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_samples", "n_genes", "n_probes"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if not (0 <= self.n_varied < self.n_probes):
            raise ValidationError(
                f"n_varied must satisfy 0 <= n_varied < n_probes, got {self.n_varied}"
            )
        if not (0 <= self.n_assoc <= self.n_genes * max(self.n_varied, 1)):
            raise ValidationError(
                f"n_assoc {self.n_assoc} exceeds genes x varied columns"
            )
        if self.n_assoc > 0 and self.n_varied == 0:
            raise ValidationError("associations require at least one varied column")
        if not (0 <= self.weak_effect_count <= self.n_assoc):
            raise ValidationError("weak_effect_count must lie in [0, n_assoc]")
        if self.clustered and self.weak_effect_count:
            raise ValidationError(
                "clustered mode draws every effect from one law; set effect_mean "
                "instead of weak_effect_count"
            )
        if self.clustered and self.n_assoc < 2:
            raise ValidationError("clustered mode needs at least two associations")
        noise = np.atleast_1d(np.asarray(self.noise_sd, dtype=np.float64))
        if noise.ndim != 1 or noise.size not in (1, self.n_genes):
            raise ValidationError("noise_sd must be a scalar or one value per gene")
        if np.any(noise <= 0.0) or not np.all(np.isfinite(noise)):
            raise ValidationError("noise_sd values must be positive and finite")
        if self.effect_sd < 0 or self.intercept_sd < 0:
            raise ValidationError("effect_sd and intercept_sd must be nonnegative")
        if self.probe_spacing <= 0:
            raise ValidationError("probe_spacing must be positive")
        means = np.asarray(self.state_means, dtype=np.float64)
        sds = np.asarray(self.state_sds, dtype=np.float64)
        if means.shape != (N_STATES,) or sds.shape != (N_STATES,):
            raise ValidationError("state_means and state_sds must have four entries")
        if np.any(sds < 0.0):
            raise ValidationError("state_sds must be nonnegative")
        if self.trans_matrix is not None:
            t = np.asarray(self.trans_matrix, dtype=np.float64)
            if t.shape != (N_STATES, N_STATES):
                raise ValidationError("trans_matrix must be 4x4")
            if np.any(t < 0.0) or np.any(t.sum(axis=1) <= 0.0):
                raise ValidationError("trans_matrix rows must be nonnegative with positive sums")
        if self.fragment_length is not None and self.fragment_length <= 0:
            raise ValidationError("fragment_length must be positive")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def transition_matrix(self) -> np.ndarray:
        if self.trans_matrix is None:
            return DEFAULT_TRANS
        t = np.asarray(self.trans_matrix, dtype=np.float64)
        return t / t.sum(axis=1, keepdims=True)

    @property
    def noise_sd_per_gene(self) -> np.ndarray:
        noise = np.atleast_1d(np.asarray(self.noise_sd, dtype=np.float64))
        if noise.size == 1:
            return np.full(self.n_genes, float(noise[0]))
        return noise.copy()

    @property
    def resolved_fragment_length(self) -> float:
        if self.fragment_length is not None:
            return float(self.fragment_length)
        return float(self.n_probes * self.probe_spacing)


@dataclass(frozen=True)
class GroundTruth:
    """What the generator actually planted."""

    states: np.ndarray
    assoc: np.ndarray
    effects: np.ndarray
    intercepts: np.ndarray
    varied_columns: np.ndarray
    extra_columns: np.ndarray

    def __post_init__(self) -> None:
        if not np.array_equal(self.effects != 0.0, self.assoc == 1):
            raise ValidationError("nonzero effects must coincide with planted inclusions")


@dataclass(frozen=True)
class EvalMetrics:
    tp: int
    fp: int
    fn: int
    tn: int
    sensitivity: float
    specificity: float
    n_detected: int
    state_errors: int | None = None
    state_error_pct: float | None = None


def _categorical_rows(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of a state per uniform in ``u``, given cumulative
    probabilities: one row per uniform, or one row shared by all."""
    idx = (u[:, None] >= cum).sum(axis=1)
    return np.minimum(idx, N_STATES - 1).astype(np.int8) + 1


def _pick_varied_columns(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """ceil(L/5) geometric-length runs truncated at L columns, then uniform
    fill of any remainder."""
    target = spec.n_varied
    n_probes = spec.n_probes
    chosen: set[int] = set()
    n_runs = math.ceil(target / _RUN_MEAN)
    for _ in range(n_runs):
        if len(chosen) >= target:
            break
        start = int(rng.integers(n_probes))
        length = int(rng.geometric(1.0 / _RUN_MEAN))
        for c in range(start, min(start + length, n_probes)):
            if len(chosen) >= target:
                break
            chosen.add(c)
    while len(chosen) < target:
        chosen.add(int(rng.integers(n_probes)))
    return np.array(sorted(chosen), dtype=np.int64)


def simulate_states(spec: ScenarioSpec, rng: np.random.Generator):
    """Generate the int8 state matrix; returns it with the varied and extra
    column index sets.

    Varied columns carry a per-row Markov walk started from the stationary
    law; extra columns perturb a tenth of the rows one step away from
    neutral; everything else is neutral. With no varied columns the matrix is
    entirely neutral.
    """
    n, n_probes = spec.n_samples, spec.n_probes
    states = np.full((n, n_probes), NEUTRAL, dtype=np.int8)
    if spec.n_varied == 0:
        empty = np.array([], dtype=np.int64)
        return states, empty, empty
    trans = spec.transition_matrix
    stat = stationary_distribution(trans)
    cum_trans = np.cumsum(trans, axis=1)
    cum_stat = np.cumsum(stat)
    varied = _pick_varied_columns(spec, rng)
    prev = None
    for c in varied:
        col = _categorical_rows(cum_stat if prev is None else cum_trans[prev - 1], rng.random(n))
        states[:, c] = col
        prev = col.astype(np.int64)
    nonvaried = np.setdiff1d(np.arange(n_probes, dtype=np.int64), varied)
    n_extra = (n_probes - spec.n_varied) // 2
    extra = np.sort(rng.choice(nonvaried, size=n_extra, replace=False))
    n_rows = math.ceil(_EXTRA_ROW_FRAC * n)
    neutral_cum = cum_trans[NEUTRAL - 1]
    for c in extra:
        rows = rng.choice(n, size=n_rows, replace=False)
        states[rows, c] = _categorical_rows(neutral_cum, rng.random(n_rows))
    return states, varied, extra


def simulate_signals(
    xi, state_means, state_sds, rng: np.random.Generator
) -> np.ndarray:
    """Copy-number signals: one Gaussian draw per cell, centered on the
    cell's state mean."""
    states = np.asarray(xi)
    means = np.asarray(state_means, dtype=np.float64)
    sds = np.asarray(state_sds, dtype=np.float64)
    return rng.normal(loc=means[states - 1], scale=sds[states - 1])


def _maximal_runs(columns: np.ndarray) -> list[np.ndarray]:
    if columns.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(columns) != 1) + 1
    return np.split(columns, breaks)


def simulate_associations(spec: ScenarioSpec, varied_columns: np.ndarray, rng):
    """Plant ``n_assoc`` signed effects inside the varied columns.

    Flat mode scatters placements uniformly over gene x varied-column cells,
    with an optional low-magnitude subset. Clustered mode places two runs of
    adjacent columns on a single gene, preferring two separate runs and
    falling back to one run long enough to hold both with a one-column gap.
    """
    n_genes, n_probes = spec.n_genes, spec.n_probes
    assoc = np.zeros((n_genes, n_probes), dtype=np.int8)
    effects = np.zeros((n_genes, n_probes))
    l = spec.n_assoc
    if l == 0:
        return assoc, effects
    varied = np.asarray(varied_columns, dtype=np.int64)
    if varied.size == 0:
        raise ValidationError("cannot place associations without varied columns")
    if spec.clustered:
        genes, cols = _clustered_placement(spec, varied, rng)
    else:
        if l > n_genes * varied.size:
            raise ValidationError(
                f"cannot place {l} associations in {n_genes}x{varied.size} cells"
            )
        flat = rng.choice(n_genes * varied.size, size=l, replace=False)
        genes = flat // varied.size
        cols = varied[flat % varied.size]
    mags = rng.normal(spec.effect_mean, spec.effect_sd, size=l)
    if spec.weak_effect_count:
        weak = rng.choice(l, size=spec.weak_effect_count, replace=False)
        mags[weak] = rng.normal(spec.weak_effect_mean, spec.effect_sd, size=weak.size)
    signs = np.where(rng.random(l) < 0.5, -1.0, 1.0)
    values = np.abs(mags) * signs
    assoc[genes, cols] = 1
    effects[genes, cols] = values
    if int(assoc.sum()) != l:
        raise ValidationError("association placements collided; count mismatch")
    return assoc, effects


def _clustered_placement(spec: ScenarioSpec, varied: np.ndarray, rng):
    l = spec.n_assoc
    c1 = math.ceil(l / 2)
    c2 = l - c1
    runs = _maximal_runs(varied)
    first_ok = [i for i, r in enumerate(runs) if r.size >= c1]
    placements = None
    if first_ok:
        i = int(first_ok[int(rng.integers(len(first_ok)))])
        second_ok = [j for j, r in enumerate(runs) if j != i and r.size >= c2]
        if second_ok:
            j = int(second_ok[int(rng.integers(len(second_ok)))])
            s1 = int(rng.integers(runs[i].size - c1 + 1))
            s2 = int(rng.integers(runs[j].size - c2 + 1))
            placements = np.concatenate(
                [runs[i][s1 : s1 + c1], runs[j][s2 : s2 + c2]]
            )
    if placements is None:
        long_ok = [i for i, r in enumerate(runs) if r.size >= l + 1]
        if not long_ok:
            raise ValidationError(
                "varied columns hold no two adjacent runs able to carry the clusters"
            )
        i = int(long_ok[int(rng.integers(len(long_ok)))])
        run = runs[i]
        s1 = int(rng.integers(run.size - l))
        placements = np.concatenate(
            [run[s1 : s1 + c1], run[s1 + c1 + 1 : s1 + c1 + 1 + c2]]
        )
    gene = int(rng.integers(spec.n_genes))
    return np.full(l, gene, dtype=np.int64), placements


def simulate_expression(xi, assoc, effects, spec: ScenarioSpec, rng):
    """Expression responses: per-gene intercept plus a regression on the raw
    state values plus Gaussian noise. Returns (Y, intercepts)."""
    states = np.asarray(xi, dtype=np.float64)
    intercepts = rng.normal(0.0, spec.intercept_sd, size=spec.n_genes)
    signal = states @ effects.T
    noise = rng.normal(0.0, spec.noise_sd_per_gene[None, :], size=signal.shape)
    return intercepts[None, :] + signal + noise, intercepts


def evaluate(selected, truth_assoc, state_modes=None, states_true=None) -> EvalMetrics:
    """Selection confusion counts plus optional state misclassification."""
    sel = np.asarray(selected) != 0
    truth = np.asarray(truth_assoc) != 0
    if sel.shape != truth.shape:
        raise ValidationError(
            f"selection shape {sel.shape} does not match truth {truth.shape}"
        )
    tp = int(np.sum(sel & truth))
    fp = int(np.sum(sel & ~truth))
    fn = int(np.sum(~sel & truth))
    tn = int(np.sum(~sel & ~truth))
    pos = tp + fn
    neg = tn + fp
    sensitivity = tp / pos if pos else float("nan")
    specificity = tn / neg if neg else float("nan")
    state_errors = None
    state_error_pct = None
    if state_modes is not None and states_true is not None:
        modes = np.asarray(state_modes)
        true = np.asarray(states_true)
        if modes.shape != true.shape:
            raise ValidationError("state call shape does not match state truth")
        state_errors = int(np.sum(modes != true))
        state_error_pct = 100.0 * state_errors / true.size
    return EvalMetrics(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        sensitivity=sensitivity,
        specificity=specificity,
        n_detected=tp + fp,
        state_errors=state_errors,
        state_error_pct=state_error_pct,
    )


def simulate_dataset(spec: ScenarioSpec):
    """Full generation pipeline. Returns (data, truth, manifest).

    In clustered mode the state step is redrawn (same stream) until the
    varied columns can carry both clusters, so feasibility never depends on
    luck with a particular seed.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    attempts = 0
    while True:
        attempts += 1
        xi, varied, extra = simulate_states(spec, rng)
        if not spec.clustered:
            break
        c1 = math.ceil(spec.n_assoc / 2)
        c2 = spec.n_assoc - c1
        runs = _maximal_runs(varied)
        two_runs = (
            sum(r.size >= c1 for r in runs) >= 1
            and sum(r.size >= c2 for r in runs) >= 2
        )
        one_long = any(r.size >= spec.n_assoc + 1 for r in runs)
        if two_runs or one_long:
            break
        if attempts >= 100:
            raise ValidationError(
                "could not draw varied columns able to carry the clusters"
            )
    x = simulate_signals(xi, spec.state_means, spec.state_sds, rng)
    assoc, effects = simulate_associations(spec, varied, rng)
    y, intercepts = simulate_expression(xi, assoc, effects, spec, rng)
    pos = np.arange(spec.n_probes, dtype=np.float64) * spec.probe_spacing
    data = ObservedData(
        y=y, x=x, pos=pos, fragment_length=spec.resolved_fragment_length
    )
    truth = GroundTruth(
        states=xi,
        assoc=assoc,
        effects=effects,
        intercepts=intercepts,
        varied_columns=varied,
        extra_columns=extra,
    )
    noise = spec.noise_sd_per_gene
    manifest = {
        "kind": "cnvlink-dataset",
        "n_samples": spec.n_samples,
        "n_genes": spec.n_genes,
        "n_probes": spec.n_probes,
        "n_varied": spec.n_varied,
        "n_assoc": spec.n_assoc,
        "noise_sd": noise.tolist() if np.ptp(noise) > 0 else float(noise[0]),
        "effect_mean": spec.effect_mean,
        "effect_sd": spec.effect_sd,
        "weak_effect_count": spec.weak_effect_count,
        "weak_effect_mean": spec.weak_effect_mean,
        "clustered": spec.clustered,
        "state_means": list(map(float, spec.state_means)),
        "state_sds": list(map(float, spec.state_sds)),
        "trans_matrix": np.asarray(spec.transition_matrix).tolist(),
        "trans_rows_renormalized": True,
        "intercept_sd": spec.intercept_sd,
        "probe_spacing": spec.probe_spacing,
        "fragment_length": spec.resolved_fragment_length,
        "seed": spec.seed,
        "stretch_rule": (
            "ceil(n_varied/5) runs with geometric(1/5) lengths truncated at "
            "n_varied columns, uniform fill of the remainder"
        ),
        "extra_rule": (
            "floor((n_probes-n_varied)/2) non-varied columns, ceil(0.1 n) rows "
            "each evolved one step from neutral"
        ),
    }
    return data, truth, manifest
