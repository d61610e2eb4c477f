"""Five-move MCMC kernel and chain driver.

One sweep updates, in order: the inclusion matrix (Metropolis add/delete/swap
per selected gene), the state matrix (element-wise Metropolis on a random
subset of rows in one column, then one whole row drawn by forward-filtering
backward-sampling and accepted by independence Metropolis), the emission means
(Gibbs), the emission sds (Gibbs), and the transition matrix (joint Metropolis
from a Dirichlet proposal).

Reproducibility contract: a chain consumes a single PCG64 stream seeded from
``cfg.seed``. Every update draws in a fixed documented order, so identical
inputs and seed give bit-identical traces. Per sweep the draws are:

1. inclusion move: the gene count (geometric), the genes (choice), then per
   gene the move-type uniform and, unless the move has no legal target, the
   column index or indices (integers) and the acceptance uniform;
2. column state move: the column (integers), the row count (geometric), the
   rows (choice), then per row the proposal uniform and, unless the proposal
   equals the current state, the acceptance uniform;
3. row state move: the row (integers), one vector of ``n_probes`` backward
   sampling uniforms, then, unless the proposed row equals the current row,
   the acceptance uniform;
4. means, then sds: one truncated-normal or truncated-gamma draw per state,
   in state order;
5. transition move: four Dirichlet rows, then, unless the proposal is
   degenerate, the acceptance uniform.

A proposal that equals the current value is accepted without consuming an
acceptance uniform.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .likelihood import (
    collapsed_loglik_from_parts,
    initial_counts,
    log_emission,
    log_state_prior,
    precompute_responses,
    residual_ssq,
    stationary_distribution,
    transition_counts,
)
from .model import (
    AMP,
    GAIN,
    N_STATES,
    NEUTRAL,
    STATE_NAMES,
    NumericalError,
    SamplerConfig,
    ValidatedContext,
    ValidationError,
)
from .priors import (
    adjacency,
    dirichlet_logpdf,
    gap_decay,
    persistence_counts,
    sample_truncated_gamma,
    sample_truncated_normal,
    site_log_probs,
    truncated_gamma_logpdf,
    truncated_normal_logpdf,
)

#: Log-ratio cutoffs mapping raw measurements to initial states 1..4.
INIT_THRESHOLDS = (-math.inf, -0.5, 0.29, 0.79)


@dataclass
class Tallies:
    """Sufficient statistics of the state matrix: per row and state, the
    cell count (``counts``), the sum of the log-ratios (``sums``) and the sum
    of their squares (``sumsq``), each n x 4; the 4 x 4 transition counts;
    and each column's count of neutral cells."""

    counts: np.ndarray
    sums: np.ndarray
    sumsq: np.ndarray
    trans_counts: np.ndarray
    neutral_counts: np.ndarray

    def totals(self) -> tuple[list, list, list]:
        """Per-state cell count, sum and sum of squares over all rows."""
        return tuple(a.sum(axis=0).tolist() for a in (self.counts, self.sums, self.sumsq))

    def recount_row(self, i: int, x_row: np.ndarray, row: np.ndarray) -> None:
        """Recount row ``i`` from its states ``row`` and log-ratios ``x_row``
        with the bincounts of :func:`tally_states`, so the row's sums keep
        the same bits."""
        idx = row - 1
        self.counts[i] = np.bincount(idx, minlength=N_STATES)
        self.sums[i] = np.bincount(idx, weights=x_row, minlength=N_STATES)
        self.sumsq[i] = np.bincount(idx, weights=np.square(x_row), minlength=N_STATES)


def tally_states(x: np.ndarray, states: np.ndarray) -> Tallies:
    """The :class:`Tallies` of a state matrix, from scratch."""
    if x.shape != states.shape:
        raise ValidationError(f"x shape {x.shape} does not match states shape {states.shape}")
    n = states.shape[0]
    size = n * N_STATES
    codes = (np.arange(0, size, N_STATES)[:, None] + (states - 1)).ravel()
    return Tallies(
        counts=np.bincount(codes, minlength=size).reshape(n, N_STATES),
        sums=np.bincount(codes, weights=x.ravel(), minlength=size).reshape(n, N_STATES),
        sumsq=np.bincount(codes, weights=np.square(x).ravel(), minlength=size).reshape(
            n, N_STATES
        ),
        trans_counts=transition_counts(states),
        neutral_counts=(states == NEUTRAL).sum(axis=0, dtype=np.int64),
    )


@dataclass
class ChainState:
    """Mutable sampler state, with the caches that the moves keep in step
    with it. :meth:`Kernel.check_coherence` checks every cache against fresh
    evaluation, and :func:`_restore` runs it once on resume.

    - ``stat_dist``: the stationary law of ``trans``, recomputed by
      :meth:`Kernel.update_trans` when it accepts. Stored in a checkpoint.
    - ``gene_loglik``: each gene's collapsed marginal log likelihood, moved
      by :meth:`Kernel.update_assoc` when it changes the gene's selected
      columns and by :meth:`Kernel._try_row_change` when a state change
      reaches them. Stored.
    - ``persist_counts[t]``: the number of rows whose state persists across
      gap t, moved by :meth:`Kernel._try_row_change`. Stored.
    - ``tallies``: the state matrix's sufficient statistics
      (:class:`Tallies`), moved by :meth:`Kernel._try_row_change`; a changed
      row's float sums are recounted, so they equal a fresh evaluation bit
      for bit. Not stored: :func:`tally_states` rebuilds them from
      ``states`` at initialization and on resume.

    Every change to ``states`` goes through :meth:`Kernel._try_row_change`,
    whichever move proposes it.
    """

    assoc: np.ndarray
    states: np.ndarray
    trans: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    stat_dist: np.ndarray
    gene_loglik: np.ndarray
    persist_counts: np.ndarray
    tallies: Tallies
    iteration: int = 0


#: The array fields of :class:`ChainState`, which a checkpoint stores under
#: the same names.
_STATE_ARRAYS = tuple(f.name for f in dataclasses.fields(ChainState) if f.type == "np.ndarray")


@dataclass
class AcceptanceStats:
    """Per-move proposal and acceptance counters."""

    add_proposed: int = 0
    add_accepted: int = 0
    delete_proposed: int = 0
    delete_accepted: int = 0
    swap_proposed: int = 0
    swap_accepted: int = 0
    assoc_noop: int = 0
    state_proposed: int = 0
    state_accepted: int = 0
    row_proposed: int = 0
    row_accepted: int = 0
    trans_proposed: int = 0
    trans_accepted: int = 0
    trans_degenerate: int = 0


@dataclass(frozen=True)
class ChainTrace:
    """Retained post-burn-in samples in summarized form.

    Inclusions and states are stored as per-cell counts over the retained
    samples; emission and transition parameters are stored per sample. Scalar
    series suitable for diagnostics come from :meth:`scalar_series`.
    """

    assoc_counts: np.ndarray
    state_counts: np.ndarray
    means_samples: np.ndarray
    sds_samples: np.ndarray
    trans_samples: np.ndarray
    assoc_size: np.ndarray
    occupancy: np.ndarray
    log_posterior: np.ndarray
    n_kept: int
    iterations: int
    burn_in: int
    thin: int
    seed: int
    acceptance: dict

    def __post_init__(self) -> None:
        if self.n_kept < 1:
            raise ValidationError("trace must retain at least one sample")
        totals = self.state_counts.sum(axis=2)
        if not np.all(totals == self.n_kept):
            raise ValidationError("state counts do not total the retained sample count")
        if np.any(self.assoc_counts < 0) or np.any(self.assoc_counts > self.n_kept):
            raise ValidationError("inclusion counts outside [0, n_kept]")

    def scalar_series(self) -> dict[str, np.ndarray]:
        """Named scalar series, one value per retained sample."""
        out: dict[str, np.ndarray] = {"assoc_size": self.assoc_size.astype(np.float64)}
        for j, name in enumerate(STATE_NAMES):
            out[f"occupancy_{name}"] = self.occupancy[:, j].astype(np.float64)
        for j, name in enumerate(STATE_NAMES):
            out[f"mean_{name}"] = self.means_samples[:, j]
        for j, name in enumerate(STATE_NAMES):
            out[f"sd_{name}"] = self.sds_samples[:, j]
        out["log_posterior"] = self.log_posterior
        return out


#: The trace's arrays, which the trace builder and a checkpoint hold under the
#: same names; the two of them that count over cells rather than list the
#: kept samples; and the run coordinates that a trace and a checkpoint copy
#: from the config.
_TRACE_ARRAYS = tuple(f.name for f in dataclasses.fields(ChainTrace) if f.type == "np.ndarray")
_COUNT_ARRAYS = ("assoc_counts", "state_counts")
_RUN_FIELDS = ("iterations", "burn_in", "thin", "seed")


@dataclass
class Checkpoint:
    """Complete resumable snapshot taken between sweeps: sampler state, RNG
    state, trace accumulators, and the run coordinates they belong to."""

    iteration: int
    iterations: int
    burn_in: int
    thin: int
    seed: int
    assoc: np.ndarray
    states: np.ndarray
    trans: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    stat_dist: np.ndarray
    gene_loglik: np.ndarray
    persist_counts: np.ndarray
    rng_state: dict
    kept: int
    assoc_counts: np.ndarray
    state_counts: np.ndarray
    means_samples: np.ndarray
    sds_samples: np.ndarray
    trans_samples: np.ndarray
    assoc_size: np.ndarray
    occupancy: np.ndarray
    log_posterior: np.ndarray
    stats: dict


def _amp_floor_holds(means: np.ndarray, sds: np.ndarray) -> bool:
    """Whether the amp mean clears the gain mean by more than the gain sd."""
    return bool(means[AMP - 1] > means[GAIN - 1] + sds[GAIN - 1])


def _trunc_geometric(rng: np.random.Generator, p: float, cap: int) -> int:
    """Geometric(p) on {1, 2, ...}, redrawn until the value is <= cap."""
    while True:
        k = int(rng.geometric(p))
        if k <= cap:
            return k


class _HeldCounts:
    """Counts per (cell, value) over the kept samples, credited lazily: when
    a cell changes between kept samples, its old value is credited with the
    samples it was held for, and :meth:`flush` credits every cell's current
    value up to a given sample count. ``counts`` is flat over (cell, value)."""

    def __init__(self, n_cells: int, n_values: int, lowest: int) -> None:
        self.counts = np.zeros(n_cells * n_values, dtype=np.int64)
        self._n_values = n_values
        self._lowest = lowest
        # per cell: the last kept value, and the kept sample from which the
        # cell has held it
        self._values = None
        self._since = np.empty(n_cells, dtype=np.int64)

    def _credit(self, cells: np.ndarray, values: np.ndarray, k: int) -> None:
        """Credit each of ``cells`` with its ``values`` for the samples from
        its start up to sample ``k``, and restart it there."""
        self.counts[cells * self._n_values + (values - self._lowest)] += k - self._since[cells]
        self._since[cells] = k

    def add(self, values: np.ndarray, k: int) -> None:
        """Take ``values`` as kept sample ``k``."""
        values = values.ravel()
        if self._values is None:
            self._values = values.copy()
            self._since.fill(k)
            return
        cells = np.flatnonzero(values != self._values)
        if cells.size:
            self._credit(cells, self._values[cells], k)
            self._values[cells] = values[cells]

    def flush(self, kept: int) -> None:
        """Bring ``counts`` up to date with the first ``kept`` samples."""
        if self._values is not None:
            self._credit(np.arange(self._since.size), self._values, kept)


class _TraceBuilder:
    """The trace accumulators under their :class:`ChainTrace` names, with
    ``state_counts`` flat over (row, probe, state) as a checkpoint stores it.
    The two count arrays are credited lazily and cover every kept sample
    after :meth:`flush`; the per-sample arrays are allocated for the whole
    run and filled up to ``kept``."""

    def __init__(self, n: int, n_genes: int, n_probes: int, n_kept: int) -> None:
        self._states = _HeldCounts(n * n_probes, N_STATES, 1)
        self._assoc = _HeldCounts(n_genes * n_probes, 2, 0)
        self.state_counts = self._states.counts
        # a view of the counts of flag value 1; those of value 0 go unread
        self.assoc_counts = self._assoc.counts[1::2].reshape(n_genes, n_probes)
        self.means_samples = np.empty((n_kept, N_STATES))
        self.sds_samples = np.empty((n_kept, N_STATES))
        self.trans_samples = np.empty((n_kept, N_STATES, N_STATES))
        self.assoc_size = np.empty(n_kept, dtype=np.int64)
        self.occupancy = np.empty((n_kept, N_STATES), dtype=np.int64)
        self.log_posterior = np.empty(n_kept)
        self.kept = 0
        self._shape = (n, n_probes)

    def add(self, state: ChainState, log_post: float) -> None:
        k = self.kept
        self._states.add(state.states, k)
        self._assoc.add(state.assoc, k)
        self.means_samples[k] = state.means
        self.sds_samples[k] = state.sds
        self.trans_samples[k] = state.trans
        self.assoc_size[k] = int(state.assoc.sum())
        self.occupancy[k] = state.tallies.counts.sum(axis=0)
        self.log_posterior[k] = log_post
        self.kept = k + 1

    def flush(self) -> None:
        """Credit the count arrays with every kept sample."""
        self._states.flush(self.kept)
        self._assoc.flush(self.kept)

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the accumulators by name, the per-sample ones cut at ``kept``."""
        return {
            name: getattr(self, name) if name in _COUNT_ARRAYS else getattr(self, name)[: self.kept]
            for name in _TRACE_ARRAYS
        }

    def to_trace(self, cfg: SamplerConfig, stats: AcceptanceStats) -> ChainTrace:
        self.flush()
        arrays = self.arrays()
        arrays["state_counts"] = arrays["state_counts"].reshape(*self._shape, N_STATES)
        return ChainTrace(
            **arrays,
            **{name: getattr(cfg, name) for name in _RUN_FIELDS},
            n_kept=self.kept,
            acceptance=dataclasses.asdict(stats),
        )


class Kernel:
    """The move implementations, bound to one validated problem instance.

    Methods mutate a :class:`ChainState` in place and tally into
    :attr:`stats`. All randomness flows through the generator argument.
    """

    def __init__(self, ctx: ValidatedContext) -> None:
        if ctx.hyper.resid_scale is None:
            raise ValidationError("context has unresolved resid_scale; use validate()")
        self.ctx = ctx
        data = ctx.data
        self.y = data.y
        self.x = data.x
        self.pos = data.pos
        self.fragment_length = data.fragment_length
        self.n = data.n_samples
        self.n_genes = data.n_genes
        self.n_probes = data.n_probes
        self.hyper = ctx.hyper
        self.hmm_hyper = ctx.hmm_hyper
        self.cfg = ctx.cfg
        pre = precompute_responses(self.y, self.hyper.intercept_prec)
        self.swept_y = pre.swept
        self.quad_y = pre.quad
        self.gap_decay = gap_decay(np.diff(self.pos), self.fragment_length)
        self.mask_limit = self.n * self.cfg.neutral_mask_frac
        # a column can be neutral in more samples than the limit allows
        self.masking = self.mask_limit < self.n
        # interior sites exist and their weights respond to persistence
        self.local_prior = not math.isinf(self.hyper.alpha) and self.n_probes > 2
        self.stats = AcceptanceStats()

    # ---------------- initialization ----------------

    def init_state(self, rng: np.random.Generator) -> ChainState:
        """Deterministic threshold states and count-smoothed transitions;
        emission parameters drawn from their priors (sds first, then means in
        state order so the top state's floor can see the gain parameters)."""
        x = self.x
        hh = self.hmm_hyper
        states = np.ones(x.shape, dtype=np.int8)
        for t in INIT_THRESHOLDS[1:]:
            states += (x > t).astype(np.int8)
        tallies = tally_states(x, states)
        smoothed = tallies.trans_counts + np.asarray(hh.trans_conc)[None, :]
        trans = smoothed / smoothed.sum(axis=1, keepdims=True)
        stat_dist = stationary_distribution(trans)
        sds = np.empty(N_STATES)
        for j in range(N_STATES):
            prec = sample_truncated_gamma(
                hh.prec_shape[j], hh.prec_rate[j], hh.sd_cap[j] ** -2, rng
            )
            sds[j] = prec ** -0.5
        means = np.empty(N_STATES)
        for j in range(N_STATES):
            low = hh.eta_low[j]
            if j == N_STATES - 1 and hh.amp_floor_tracks_gain:
                low = max(low, means[j - 1] + sds[j - 1])
            means[j] = sample_truncated_normal(
                hh.eta_loc[j], hh.eta_scale[j], low, hh.eta_high[j], rng
            )
        assoc = np.zeros((self.n_genes, self.n_probes), dtype=np.int8)
        empty = np.empty((self.n, 0))
        base_ll = np.array([
            collapsed_loglik_from_parts(empty, self.swept_y[:, g], float(self.quad_y[g]), self.hyper)
            for g in range(self.n_genes)
        ])
        return ChainState(
            assoc=assoc,
            states=states,
            trans=trans,
            means=means,
            sds=sds,
            stat_dist=np.asarray(stat_dist),
            gene_loglik=base_ll,
            persist_counts=persistence_counts(states),
            tallies=tallies,
            iteration=0,
        )

    # ---------------- cached-quantity helpers ----------------

    def _gene_loglik(self, g: int, r_row: np.ndarray, states: np.ndarray) -> float:
        sel = np.flatnonzero(r_row)
        z = states[:, sel].astype(np.float64)
        return collapsed_loglik_from_parts(
            z, self.swept_y[:, g], float(self.quad_y[g]), self.hyper
        )

    def _adjacency(self, persist_counts: np.ndarray) -> np.ndarray:
        return adjacency(self.gap_decay, persist_counts, self.n)

    def _row_selection_delta(self, row: np.ndarray, new_row: np.ndarray, s: np.ndarray) -> float:
        """Change in the selection prior's log value when one gene's
        inclusion row moves from ``row`` to ``new_row`` under adjacency
        scores ``s``. Only the sites at and next to a changed flag move, so
        only those are evaluated."""
        changed = row != new_row
        near = changed.copy()
        near[1:] |= changed[:-1]
        near[:-1] |= changed[1:]
        cols = np.flatnonzero(near)
        lp = site_log_probs(np.stack([row, new_row]), cols, s, self.hyper)
        return float(lp[1].sum()) - float(lp[0].sum())

    # ---------------- move 1: inclusion matrix ----------------

    def update_assoc(self, state: ChainState, rng: np.random.Generator) -> None:
        """Metropolis add/delete/swap on a geometric number of genes.

        Columns neutral in more than the configured fraction of samples are
        masked: the posterior's support holds no inclusion there, so every
        included column is unmasked, and add/delete and swap-in targets are
        the unmasked columns.
        """
        cfg = self.cfg
        stats = self.stats
        unmasked = state.tallies.neutral_counts <= self.mask_limit
        s = self._adjacency(state.persist_counts)
        n_g = _trunc_geometric(rng, cfg.gene_block_p, self.n_genes)
        genes = rng.choice(self.n_genes, size=n_g, replace=False)
        for g in genes:
            row = state.assoc[g]
            if rng.random() < cfg.flip_prob:
                cand = np.flatnonzero(unmasked)
                if cand.size == 0:
                    stats.assoc_noop += 1
                    continue
                m = int(cand[rng.integers(cand.size)])
                changed = ((m, 1 - int(row[m])),)
                move = "add" if row[m] == 0 else "delete"
            else:
                included = np.flatnonzero(row == 1)
                excluded = np.flatnonzero((row == 0) & unmasked)
                if included.size == 0 or excluded.size == 0:
                    stats.assoc_noop += 1
                    continue
                m_out = int(included[rng.integers(included.size)])
                m_in = int(excluded[rng.integers(excluded.size)])
                changed = ((m_out, 0), (m_in, 1))
                move = "swap"
            new_row = row.copy()
            for c, v in changed:
                new_row[c] = v
            new_ll = self._gene_loglik(g, new_row, state.states)
            total = (new_ll - float(state.gene_loglik[g])) + self._row_selection_delta(
                row, new_row, s
            )
            setattr(stats, f"{move}_proposed", getattr(stats, f"{move}_proposed") + 1)
            if math.log(rng.random() or 5e-324) < total:
                state.assoc[g] = new_row
                state.gene_loglik[g] = new_ll
                setattr(stats, f"{move}_accepted", getattr(stats, f"{move}_accepted") + 1)

    # ---------------- move 2: state matrix ----------------

    def update_states(self, state: ChainState, rng: np.random.Generator) -> None:
        """Element-wise Metropolis on one uniformly chosen column.

        Proposals come from the left neighbor's transition row (stationary law
        at the first column), so the incoming transition cancels against the
        proposal and the proposal's own terms are the emission ratio and the
        outgoing transition's ratio; :meth:`_try_row_change` adds the rest.
        Elements are processed sequentially, so later ones see earlier
        acceptances.

        This is the first half of the state move; :meth:`update_state_row`
        is the second, and :meth:`sweep` runs both under ``update_states``.
        """
        stats = self.stats
        m = int(rng.integers(self.n_probes))
        n_m = _trunc_geometric(rng, self.cfg.row_block_p, self.n)
        rows = rng.choice(self.n, size=n_m, replace=False)
        with np.errstate(divide="ignore"):
            log_trans = np.log(state.trans)
        cum_trans = np.cumsum(state.trans, axis=1)
        cum_stat = np.cumsum(state.stat_dist)
        x_col = self.x[:, m]
        means = state.means
        sds = state.sds
        last = self.n_probes - 1
        for i in rows:
            i = int(i)
            old = int(state.states[i, m])
            cum = cum_stat if m == 0 else cum_trans[int(state.states[i, m - 1]) - 1]
            u = rng.random()
            new = min(int(np.searchsorted(cum, u, side="right")), N_STATES - 1) + 1
            stats.state_proposed += 1
            if new == old:
                stats.state_accepted += 1
                continue
            zo = (x_col[i] - means[old - 1]) / sds[old - 1]
            zn = (x_col[i] - means[new - 1]) / sds[new - 1]
            log_ratio = (-0.5 * zn * zn - math.log(sds[new - 1])) - (
                -0.5 * zo * zo - math.log(sds[old - 1])
            )
            if m < last:
                right = int(state.states[i, m + 1])
                log_ratio += float(log_trans[new - 1, right - 1] - log_trans[old - 1, right - 1])
            if self._try_row_change(state, i, [m], [new], log_ratio, rng):
                stats.state_accepted += 1

    def update_state_row(self, state: ChainState, rng: np.random.Generator) -> None:
        """Refresh one uniformly chosen row as a block.

        The proposal is drawn exactly, by forward-filtering
        backward-sampling, from the row's emission x Markov conditional
        (stationary law at the first column) under the current parameters.
        Those terms cancel from the independence Metropolis-Hastings ratio,
        so the proposal adds nothing to what :meth:`_try_row_change` scores.
        A proposal equal to the current row is accepted without an
        acceptance uniform.
        """
        stats = self.stats
        i = int(rng.integers(self.n))
        proposal = self._ffbs_row(self.x[i], state, rng.random(self.n_probes))
        changed = np.flatnonzero(proposal != state.states[i])
        stats.row_proposed += 1
        if changed.size == 0 or self._try_row_change(
            state, i, changed.tolist(), proposal[changed].tolist(), 0.0, rng
        ):
            stats.row_accepted += 1

    def _try_row_change(
        self, state: ChainState, i: int, cols: list, values: list, log_ratio: float,
        rng: np.random.Generator,
    ) -> bool:
        """Metropolis-Hastings step that sets cells ``cols`` (ascending) of
        state row ``i`` to ``values``, each unlike the cell's current state;
        returns whether it was accepted. ``log_ratio`` holds the proposal's
        own terms. Added to it are the selection prior's change at the gaps
        whose persistence count moves and the collapsed likelihood's change
        for every gene that selects a changed column, or ``-inf`` when an
        included column would be neutral in more than the mask limit's
        samples. On acceptance the caches move with the row, the counts at
        the changed gaps and cells only; on rejection the row is restored."""
        row = state.states[i]
        t = state.tallies
        lo, hi = max(cols[0] - 1, 0), min(cols[-1] + 2, self.n_probes)
        before = row[lo:hi].tolist()
        for c, v in zip(cols, values):
            row[c] = v
        after = row[lo:hi].tolist()
        gaps = sorted({gap for c in cols for gap in (c - 1, c) if lo <= gap < hi - 1})
        spans = [gap - lo for gap in gaps]
        persist = [(after[k] == after[k + 1]) - (before[k] == before[k + 1]) for k in spans]
        # one column, the column move's case, is read as a view: no copy
        sel = state.assoc[:, cols[0]] if len(cols) == 1 else state.assoc[:, cols].any(axis=1)
        genes = np.flatnonzero(sel)
        total = log_ratio
        if self.masking and any(
            v == NEUTRAL and t.neutral_counts[c] + 1 > self.mask_limit and state.assoc[:, c].any()
            for c, v in zip(cols, values)
        ):
            total = -math.inf
        else:
            if any(persist):
                new_counts = state.persist_counts.copy()
                new_counts[gaps] += persist
                total += self._selection_delta(state.assoc, state.persist_counts, new_counts)
            if genes.size:
                new_lls = np.array(
                    [self._gene_loglik(g, state.assoc[g], state.states) for g in genes]
                )
                total += float(np.sum(new_lls - state.gene_loglik[genes]))
        if not math.log(rng.random() or 5e-324) < total:
            row[lo:hi] = before
            return False
        if genes.size:
            state.gene_loglik[genes] = new_lls
        for gap, k, d in zip(gaps, spans, persist):
            state.persist_counts[gap] += d
            t.trans_counts[before[k] - 1, before[k + 1] - 1] -= 1
            t.trans_counts[after[k] - 1, after[k + 1] - 1] += 1
        for c, v in zip(cols, values):
            t.neutral_counts[c] += (v == NEUTRAL) - (before[c - lo] == NEUTRAL)
        t.recount_row(i, self.x[i], row)
        return True

    @staticmethod
    def _ffbs_row(x_row: np.ndarray, state: ChainState, u: np.ndarray) -> np.ndarray:
        """One state row drawn from its emission x Markov conditional.

        Forward filtering runs on per-column rescaled probabilities; backward
        sampling inverts ``u[m]`` through the law of column m given column
        m + 1. The emission terms are computed in one vectorised step; the
        two recursions run on Python floats with the four states unrolled,
        which is several times faster than 4-vector numpy calls.
        """
        z = (x_row[:, None] - state.means) / state.sds
        log_emit = -0.5 * z * z - np.log(state.sds)
        emit = np.exp(log_emit - log_emit.max(axis=1, keepdims=True)).tolist()
        (t00, t01, t02, t03), (t10, t11, t12, t13), (t20, t21, t22, t23), (
            t30, t31, t32, t33
        ) = state.trans.tolist()
        p0, p1, p2, p3 = state.stat_dist.tolist()
        e0, e1, e2, e3 = emit[0]
        f0, f1, f2, f3 = p0 * e0, p1 * e1, p2 * e2, p3 * e3
        total = f0 + f1 + f2 + f3
        filt = [(f0 / total, f1 / total, f2 / total, f3 / total)]
        for e0, e1, e2, e3 in emit[1:]:
            f0, f1, f2, f3 = filt[-1]
            g0 = (f0 * t00 + f1 * t10 + f2 * t20 + f3 * t30) * e0
            g1 = (f0 * t01 + f1 * t11 + f2 * t21 + f3 * t31) * e1
            g2 = (f0 * t02 + f1 * t12 + f2 * t22 + f3 * t32) * e2
            g3 = (f0 * t03 + f1 * t13 + f2 * t23 + f3 * t33) * e3
            total = g0 + g1 + g2 + g3
            filt.append((g0 / total, g1 / total, g2 / total, g3 / total))
        into = state.trans.T.tolist()
        row = np.empty(len(filt), dtype=np.int8)
        weights = filt[-1]
        for m in range(len(filt) - 1, -1, -1):
            if m < len(filt) - 1:
                f, c = filt[m], into[k]
                weights = (f[0] * c[0], f[1] * c[1], f[2] * c[2], f[3] * c[3])
            target = float(u[m]) * sum(weights)
            k = 0
            acc = weights[0]
            while k < N_STATES - 1 and acc <= target:
                k += 1
                acc += weights[k]
            row[m] = k + 1
        return row

    def _selection_delta(
        self, assoc: np.ndarray, old_counts: np.ndarray, new_counts: np.ndarray
    ) -> float:
        """Change in the selection prior's log value, summed over all genes,
        when the persistence counts move from ``old_counts`` to
        ``new_counts``. Only the interior columns flanking a changed gap have
        site weights that move, so only those are evaluated."""
        if not self.local_prior:
            return 0.0
        gaps = np.flatnonzero(new_counts != old_counts)
        cols = np.union1d(gaps, gaps + 1)
        cols = cols[(cols > 0) & (cols < self.n_probes - 1)]
        if cols.size == 0:
            return 0.0
        new = site_log_probs(assoc, cols, self._adjacency(new_counts), self.hyper)
        old = site_log_probs(assoc, cols, self._adjacency(old_counts), self.hyper)
        return float(new.sum()) - float(old.sum())

    # ---------------- moves 3 and 4: emission parameters ----------------

    def update_means(self, state: ChainState, rng: np.random.Generator) -> None:
        """Gibbs update of each state's emission mean from its truncated
        normal conditional; a state with no occupied cells draws from its
        prior. With the amp floor configured, the conditionals respect the
        support constraint ``means[amp] > means[gain] + sds[gain]``: the gain
        mean is bounded above by ``means[amp] - sds[gain]`` and the amp mean
        below by ``means[gain] + sds[gain]``."""
        hh = self.hmm_hyper
        floor = hh.amp_floor_tracks_gain
        g, a = GAIN - 1, AMP - 1
        counts, sums, _ = state.tallies.totals()
        for j in range(N_STATES):
            low = float(hh.eta_low[j])
            high = float(hh.eta_high[j])
            if floor and j == g:
                high = min(high, float(state.means[a] - state.sds[g]))
            if floor and j == a:
                low = max(low, float(state.means[g] + state.sds[g]))
            if counts[j] == 0:
                loc = float(hh.eta_loc[j])
                scale = float(hh.eta_scale[j])
            else:
                prior_prec = float(hh.eta_scale[j]) ** -2
                like_prec = counts[j] * float(state.sds[j]) ** -2
                post_prec = prior_prec + like_prec
                loc = (float(hh.eta_loc[j]) * prior_prec + sums[j] * float(state.sds[j]) ** -2) / post_prec
                scale = post_prec ** -0.5
            state.means[j] = sample_truncated_normal(loc, scale, low, high, rng)
            if floor and j == g:
                # a draw within rounding of the bound moves strictly inside it
                while not _amp_floor_holds(state.means, state.sds):
                    state.means[g] = math.nextafter(float(state.means[g]), -math.inf)

    def update_sds(self, state: ChainState, rng: np.random.Generator) -> None:
        """Gibbs update of each state's emission precision from its truncated
        gamma conditional (empty states draw from the prior). With the amp
        floor configured, the gain precision is bounded below by
        ``(means[amp] - means[gain]) ** -2`` as well as by its cap, so the
        draw keeps ``means[amp] > means[gain] + sds[gain]``."""
        hh = self.hmm_hyper
        floor = hh.amp_floor_tracks_gain
        g, a = GAIN - 1, AMP - 1
        counts, sums, sumsq = state.tallies.totals()
        means = state.means.tolist()
        for j in range(N_STATES):
            shape = float(hh.prec_shape[j]) + 0.5 * counts[j]
            ssq = residual_ssq(counts[j], sums[j], sumsq[j], means[j])
            rate = float(hh.prec_rate[j]) + 0.5 * ssq
            bound = float(hh.sd_cap[j]) ** -2
            if floor and j == g:
                gap = float(state.means[a] - state.means[g])
                if not gap > 0.0:
                    raise NumericalError(
                        f"amp floor violated: means[amp]={state.means[a]} is not above "
                        f"means[gain]={state.means[g]}"
                    )
                bound = max(bound, gap ** -2)
            prec = sample_truncated_gamma(shape, rate, bound, rng)
            state.sds[j] = prec ** -0.5
            if floor and j == g:
                # a draw within rounding of the bound moves strictly inside it
                while not _amp_floor_holds(state.means, state.sds):
                    prec = math.nextafter(prec, math.inf)
                    state.sds[g] = prec ** -0.5

    # ---------------- move 5: transition matrix ----------------

    def update_trans(self, state: ChainState, rng: np.random.Generator) -> None:
        """Propose all four rows from their conjugate Dirichlet conditionals
        and accept or reject the matrix as a whole; only the stationary law's
        hold on the first column enters the ratio (the Dirichlet terms
        cancel against the proposal)."""
        stats = self.stats
        conc = np.asarray(self.hmm_hyper.trans_conc)
        counts = state.tallies.trans_counts
        proposal = np.empty((N_STATES, N_STATES))
        for h in range(N_STATES):
            proposal[h] = rng.dirichlet(conc + counts[h])
        stats.trans_proposed += 1
        if np.any(proposal <= 0.0) or np.any(~np.isfinite(proposal)):
            stats.trans_degenerate += 1
            return
        try:
            new_stat = stationary_distribution(proposal)
        except NumericalError:
            stats.trans_degenerate += 1
            return
        if np.any(new_stat <= 0.0):
            stats.trans_degenerate += 1
            return
        first_counts = initial_counts(state.states)
        log_ratio = float(
            np.sum(first_counts * (np.log(new_stat) - np.log(state.stat_dist)))
        )
        if math.log(rng.random() or 5e-324) < log_ratio:
            state.trans = proposal
            state.stat_dist = np.asarray(new_stat)
            stats.trans_accepted += 1

    # ---------------- bookkeeping ----------------

    def _masked_inclusions(self, state: ChainState) -> np.ndarray:
        """The columns that some gene selects although they are neutral in
        more than the mask limit's samples, which lie outside the support."""
        masked = state.tallies.neutral_counts > self.mask_limit
        return np.flatnonzero(state.assoc.any(axis=0) & masked)

    def log_posterior(self, state: ChainState) -> float:
        """Unnormalized joint log density of the current state, for trace
        monitoring. Uses the cached gene likelihoods and the static prior
        bounds. The support holds no inclusion at a masked column, and with
        the amp floor configured it is restricted to ``means[amp] >
        means[gain] + sds[gain]``; a state outside it has log density
        ``-inf``."""
        hh = self.hmm_hyper
        if (self.masking and self._masked_inclusions(state).size) or (
            hh.amp_floor_tracks_gain and not _amp_floor_holds(state.means, state.sds)
        ):
            return float("-inf")
        total = float(state.gene_loglik.sum())
        total += float(
            site_log_probs(
                state.assoc, None, self._adjacency(state.persist_counts), self.hyper
            ).sum()
        )
        t = state.tallies
        total += log_state_prior(
            initial_counts(state.states), t.trans_counts, state.trans, state.stat_dist
        )
        total += log_emission(*t.totals(), state.means, state.sds)
        for j in range(N_STATES):
            total += truncated_normal_logpdf(
                float(state.means[j]), float(hh.eta_loc[j]), float(hh.eta_scale[j]),
                float(hh.eta_low[j]), float(hh.eta_high[j]),
            )
            total += truncated_gamma_logpdf(
                float(state.sds[j]) ** -2, float(hh.prec_shape[j]),
                float(hh.prec_rate[j]), float(hh.sd_cap[j]) ** -2,
            )
            total += dirichlet_logpdf(state.trans[j], np.asarray(hh.trans_conc))
        return total

    def check_coherence(self, state: ChainState) -> None:
        """Verify the incremental caches against fresh evaluation, and that
        the state lies inside the support: no inclusion at a masked column,
        and the amp floor when it is configured."""
        for g in range(self.n_genes):
            fresh = self._gene_loglik(g, state.assoc[g], state.states)
            if abs(fresh - float(state.gene_loglik[g])) > 1e-8:
                raise NumericalError(
                    f"cached log likelihood for gene {g} drifted: "
                    f"{state.gene_loglik[g]} vs fresh {fresh}"
                )
        if not np.array_equal(persistence_counts(state.states), state.persist_counts):
            raise NumericalError("cached persistence counts drifted")
        fresh = tally_states(self.x, state.states)
        for f in dataclasses.fields(Tallies):
            if not np.array_equal(getattr(fresh, f.name), getattr(state.tallies, f.name)):
                raise NumericalError(f"cached tally '{f.name}' drifted")
        masked = self._masked_inclusions(state)
        if masked.size:
            c = int(masked[0])
            g = int(np.flatnonzero(state.assoc[:, c])[0])
            raise NumericalError(
                f"inclusion of gene {g} at column {c} lies outside the support: the column "
                f"is neutral in {state.tallies.neutral_counts[c]} of {self.n} samples, more "
                f"than neutral_mask_frac={self.cfg.neutral_mask_frac} allows"
            )
        resid = float(np.max(np.abs(state.stat_dist @ state.trans - state.stat_dist)))
        if resid > 1e-10:
            raise NumericalError(f"stationary cache drifted: residual {resid:.3e}")
        if self.hmm_hyper.amp_floor_tracks_gain and not _amp_floor_holds(
            state.means, state.sds
        ):
            raise NumericalError(
                f"amp floor violated: means[amp]={state.means[AMP - 1]} is not above "
                f"means[gain] + sds[gain] = {state.means[GAIN - 1] + state.sds[GAIN - 1]}"
            )

    def sweep(self, state: ChainState, rng: np.random.Generator) -> None:
        cfg = self.cfg
        if cfg.update_assoc:
            self.update_assoc(state, rng)
        if cfg.update_states:
            self.update_states(state, rng)
            self.update_state_row(state, rng)
        if cfg.update_means:
            self.update_means(state, rng)
        if cfg.update_sds:
            self.update_sds(state, rng)
        if cfg.update_trans:
            self.update_trans(state, rng)


def make_checkpoint(
    kernel: Kernel, state: ChainState, rng: np.random.Generator, builder: _TraceBuilder
) -> Checkpoint:
    builder.flush()
    return Checkpoint(
        iteration=state.iteration,
        **{name: getattr(kernel.cfg, name) for name in _RUN_FIELDS},
        **{name: np.array(getattr(state, name)) for name in _STATE_ARRAYS},
        rng_state=rng.bit_generator.state,
        kept=builder.kept,
        **{name: array.copy() for name, array in builder.arrays().items()},
        stats=dataclasses.asdict(kernel.stats),
    )


def _fitting(checkpoint: Checkpoint, name: str, like: np.ndarray, part: str) -> np.ndarray:
    """The checkpoint's array ``name``, which must match the run's ``like``
    in shape and dtype."""
    value = getattr(checkpoint, name)
    if value.shape != like.shape or value.dtype != like.dtype:
        raise ValidationError(
            f"checkpoint {part} shape or dtype does not match the run: array '{name}' "
            f"is {value.dtype} {value.shape}, the run holds {like.dtype} {like.shape}"
        )
    return value


def _restore(
    kernel: Kernel,
    checkpoint: Checkpoint,
    state: ChainState,
    rng: np.random.Generator,
    builder: _TraceBuilder,
) -> None:
    """Copy a checkpoint into a freshly initialized state, generator, trace
    builder and counters, and rebuild the tallies from the states. The
    checkpoint must carry the run's coordinates, a sample count that matches
    its iteration, every array in the shape and dtype that the state and the
    builder hold, states and flags in range, and caches that match fresh
    evaluation."""
    cfg = kernel.cfg
    for name in _RUN_FIELDS:
        if getattr(checkpoint, name) != getattr(cfg, name):
            raise ValidationError(
                f"checkpoint {name}={getattr(checkpoint, name)} does not match "
                f"config {name}={getattr(cfg, name)}"
            )
    if not 0 <= checkpoint.iteration <= cfg.iterations:
        raise ValidationError(
            f"checkpoint iteration={checkpoint.iteration} lies outside the run's "
            f"{cfg.iterations} iterations"
        )
    retained = len(range(cfg.burn_in, checkpoint.iteration, cfg.thin))
    if checkpoint.kept != retained:
        raise ValidationError(
            f"checkpoint kept={checkpoint.kept} does not match the {retained} samples "
            f"retained before iteration {checkpoint.iteration}"
        )
    for name in _STATE_ARRAYS:
        setattr(state, name, _fitting(checkpoint, name, getattr(state, name), "state").copy())
    if np.any((state.states < 1) | (state.states > N_STATES)) or np.any(
        (state.assoc < 0) | (state.assoc > 1)
    ):
        raise ValidationError(
            f"checkpoint states must lie in 1..{N_STATES} and inclusion flags in 0..1"
        )
    state.tallies = tally_states(kernel.x, state.states)
    builder.kept = retained
    for name, target in builder.arrays().items():
        target[...] = _fitting(checkpoint, name, target, "trace")
    try:
        kernel.stats = AcceptanceStats(**checkpoint.stats)
    except TypeError as err:
        raise ValidationError(f"checkpoint stats do not fit the counters: {err}") from None
    try:
        rng.bit_generator.state = checkpoint.rng_state
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"checkpoint rng_state is malformed: {err!r}") from None
    state.iteration = checkpoint.iteration
    try:
        kernel.check_coherence(state)
    except NumericalError as err:
        raise ValidationError(f"checkpoint caches do not match its states: {err}") from None


def run_chain(
    ctx: ValidatedContext,
    *,
    resume: Checkpoint | None = None,
    checkpoint_every: int | None = None,
    on_checkpoint=None,
) -> ChainTrace:
    """Run the full sampler on a validated context and return the retained
    trace.

    ``resume`` continues a checkpointed run bit-exactly; ``checkpoint_every``
    invokes ``on_checkpoint(checkpoint)`` after every that-many sweeps and at
    the end.
    """
    kernel = Kernel(ctx)
    cfg = ctx.cfg
    builder = _TraceBuilder(kernel.n, kernel.n_genes, kernel.n_probes, cfg.n_retained)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    state = kernel.init_state(rng)
    if resume is not None:
        _restore(kernel, resume, state, rng, builder)
    for it in range(state.iteration, cfg.iterations):
        try:
            kernel.sweep(state, rng)
            if cfg.debug_checks:
                kernel.check_coherence(state)
            state.iteration = it + 1
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                builder.add(state, kernel.log_posterior(state))
        except (NumericalError, ValidationError) as err:
            raise NumericalError(f"iteration {it}: {err}") from err
        if (
            checkpoint_every
            and on_checkpoint is not None
            and (it + 1) % checkpoint_every == 0
            and (it + 1) < cfg.iterations
        ):
            on_checkpoint(make_checkpoint(kernel, state, rng, builder))
    trace = builder.to_trace(cfg, kernel.stats)
    if on_checkpoint is not None:
        on_checkpoint(make_checkpoint(kernel, state, rng, builder))
    return trace
