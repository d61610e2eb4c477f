"""Builders and instruments shared by the test modules.

These build small validated problem instances, hand-assembled sampler states
with frozen emission/transition parameters, and a scriptable random generator
that lets a test force specific proposals through the Metropolis moves while
delegating everything else to a real generator, and checkpoint files broken
in each way a resume must reject.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import struct
from types import SimpleNamespace

import numpy as np

from cnvlink.likelihood import (
    initial_counts,
    log_emission,
    log_state_prior,
    stationary_distribution,
    transition_counts,
)
from cnvlink.matrixio import load_checkpoint, save_checkpoint
from cnvlink.model import (
    HmmHyper,
    ObservedData,
    RegressionHyper,
    SamplerConfig,
    ValidatedContext,
    validate,
)
from cnvlink.sampler import ChainState, Kernel, tally_states


# ---------------- data and config builders ----------------


def make_y(n: int, n_genes: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n_genes))


def make_x(n: int, n_probes: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.3 * rng.normal(size=(n, n_probes))


def make_data(
    n: int = 5,
    n_genes: int = 3,
    n_probes: int = 4,
    seed: int = 0,
    y: np.ndarray | None = None,
    x: np.ndarray | None = None,
    pos: np.ndarray | None = None,
    fragment_length: float | None = None,
) -> ObservedData:
    if y is None:
        y = make_y(n, n_genes, seed)
    if x is None:
        x = make_x(n, n_probes, seed + 1)
    if pos is None:
        pos = np.arange(x.shape[1], dtype=float)
    if fragment_length is None:
        fragment_length = float(pos[-1] - pos[0] + 1.0)
    return ObservedData(y=y, x=x, pos=pos, fragment_length=fragment_length)


def make_cfg(**kwargs) -> SamplerConfig:
    defaults = dict(iterations=10, burn_in=5, thin=1, seed=0)
    defaults.update(kwargs)
    return SamplerConfig(**defaults)


def make_ctx(
    data: ObservedData | None = None,
    hyper: RegressionHyper | None = None,
    hmm_hyper: HmmHyper | None = None,
    cfg: SamplerConfig | None = None,
    **data_kwargs,
) -> ValidatedContext:
    data = data if data is not None else make_data(**data_kwargs)
    return validate(
        data,
        hyper if hyper is not None else RegressionHyper(),
        hmm_hyper if hmm_hyper is not None else HmmHyper(),
        cfg if cfg is not None else make_cfg(),
    )


# ---------------- hand-assembled kernels with frozen parameters ----------------


def raw_context(
    y: np.ndarray,
    x: np.ndarray,
    *,
    pos: np.ndarray | None = None,
    fragment_length: float | None = None,
    hyper: RegressionHyper | None = None,
    hmm_hyper: HmmHyper | None = None,
    cfg: SamplerConfig | None = None,
) -> ValidatedContext:
    """A context that bypasses standardization (and the two-sample minimum),
    so tests can model y exactly as given, including single-sample problems."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, n_genes = y.shape
    n_probes = x.shape[1]
    if pos is None:
        pos = np.arange(n_probes, dtype=float)
    if fragment_length is None:
        fragment_length = float(pos[-1] - pos[0] + 1.0)
    data = SimpleNamespace(
        y=y,
        x=x,
        pos=np.asarray(pos, dtype=float),
        fragment_length=float(fragment_length),
        n_samples=n,
        n_genes=n_genes,
        n_probes=n_probes,
    )
    if hyper is None:
        hyper = RegressionHyper(resid_scale=0.05)
    if hyper.resid_scale is None:
        raise ValueError("raw_context needs an explicit resid_scale")
    return ValidatedContext(
        data=data,
        hyper=hyper,
        hmm_hyper=hmm_hyper if hmm_hyper is not None else HmmHyper(),
        cfg=cfg if cfg is not None else make_cfg(),
        standardized=False,
        y_center=np.zeros(n_genes),
        y_scale=np.ones(n_genes),
    )


def build_kernel_state(
    ctx: ValidatedContext,
    *,
    assoc: np.ndarray,
    states: np.ndarray,
    trans: np.ndarray,
    means: np.ndarray,
    sds: np.ndarray,
) -> tuple[Kernel, ChainState]:
    """Kernel plus a coherent chain state holding the given configuration."""
    kernel = Kernel(ctx)
    assoc = np.asarray(assoc, dtype=np.int8).copy()
    states = np.asarray(states, dtype=np.int8).copy()
    trans = np.asarray(trans, dtype=np.float64).copy()
    stat = stationary_distribution(trans)
    gene_ll = np.array(
        [kernel._gene_loglik(g, assoc[g], states) for g in range(kernel.n_genes)]
    )
    persist = (states[:, 1:] == states[:, :-1]).sum(axis=0).astype(np.int64)
    state = ChainState(
        assoc=assoc,
        states=states,
        trans=trans,
        means=np.asarray(means, dtype=np.float64).copy(),
        sds=np.asarray(sds, dtype=np.float64).copy(),
        stat_dist=np.asarray(stat),
        gene_loglik=gene_ll,
        persist_counts=persist,
        tallies=tally_states(kernel.x, states),
    )
    return kernel, state


def copy_state(state: ChainState) -> ChainState:
    return copy.deepcopy(state)


def emission_of(x, states, means, sds) -> float:
    """``log_emission`` of a whole state matrix, through its tallies."""
    return log_emission(*tally_states(np.asarray(x), np.asarray(states)).totals(), means, sds)


def state_prior_of(states, trans, stat_dist) -> float:
    """``log_state_prior`` of a state matrix, or of a single row."""
    states = np.atleast_2d(states)
    return log_state_prior(initial_counts(states), transition_counts(states), trans, stat_dist)


def hyper_kwargs(hyper: RegressionHyper) -> dict:
    """The regression hyperparameters as keyword arguments for the oracles."""
    return dict(
        intercept_prec=hyper.intercept_prec,
        slab_prec=hyper.slab_prec,
        resid_df=hyper.resid_df,
        resid_scale=hyper.resid_scale,
    )


def density_kwargs(kernel: Kernel) -> dict:
    """Everything the joint-density oracle needs besides the state and the
    parameters."""
    h = kernel.hyper
    return dict(
        neutral_mask_frac=kernel.cfg.neutral_mask_frac,
        pos=kernel.pos,
        fragment_length=kernel.fragment_length,
        intercept_prec=h.intercept_prec,
        slab_prec=h.slab_prec,
        resid_df=h.resid_df,
        resid_scale=h.resid_scale,
        incl_a=h.incl_a,
        incl_b=h.incl_b,
        alpha=h.alpha,
    )


def joint_log_density(kernel: Kernel, state: ChainState, oracles_module) -> float:
    """Oracle joint log density of the kernel's data at the given state."""
    return oracles_module.full_log_density(
        kernel.y,
        kernel.x,
        state.assoc,
        state.states,
        trans=state.trans,
        means=state.means,
        sds=state.sds,
        stat_dist=state.stat_dist,
        **density_kwargs(kernel),
    )


# ---------------- scriptable random generator ----------------


class ScriptedRNG:
    """Delegates to a real generator except where a test queued a value.

    ``push("random", 0.3)`` makes the next ``random()`` call return 0.3;
    unqueued calls fall through to the wrapped generator. Attribute access
    for anything not scripted (``bit_generator``, distribution methods, ...)
    also falls through, so this object can stand in for a Generator anywhere
    inside the sampler.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._queues: dict[str, list] = {}

    def push(self, name: str, *values) -> None:
        self._queues.setdefault(name, []).extend(values)

    def assert_exhausted(self) -> None:
        leftovers = {k: v for k, v in self._queues.items() if v}
        assert not leftovers, f"unconsumed scripted draws: {leftovers}"

    def _pop(self, name: str):
        queue = self._queues.get(name)
        if queue:
            return queue.pop(0)
        return None

    def __getattr__(self, name: str):
        return getattr(self._rng, name)

    def random(self, *args, **kwargs):
        value = self._pop("random")
        if value is not None:
            return value
        return self._rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        value = self._pop("integers")
        if value is not None:
            return value
        return self._rng.integers(*args, **kwargs)

    def geometric(self, *args, **kwargs):
        value = self._pop("geometric")
        if value is not None:
            return value
        return self._rng.geometric(*args, **kwargs)

    def choice(self, *args, **kwargs):
        value = self._pop("choice")
        if value is not None:
            return np.asarray(value)
        return self._rng.choice(*args, **kwargs)

    def dirichlet(self, *args, **kwargs):
        value = self._pop("dirichlet")
        if value is not None:
            return np.asarray(value, dtype=float)
        return self._rng.dirichlet(*args, **kwargs)


def proposal_u(cum: np.ndarray, target_state: int) -> float:
    """A uniform that makes the column move propose ``target_state`` (1-based)
    when inverted through the cumulative proposal row."""
    lo = 0.0 if target_state == 1 else float(cum[target_state - 2])
    hi = float(cum[target_state - 1])
    return 0.5 * (lo + hi)


def assert_frozen(arr: np.ndarray) -> None:
    assert not arr.flags.writeable


# ---------------- malformed checkpoints ----------------


def _header_case(edit):
    """Rewrite the JSON header section (the first, after the 5-byte preamble
    and its 8-byte length) through ``edit(raw bytes) -> raw bytes``."""

    def write(source: str, target: str) -> None:
        with open(source, "rb") as fh:
            payload = fh.read()
        (length,) = struct.unpack_from(">Q", payload, 5)
        header = edit(payload[13 : 13 + length])
        with open(target, "wb") as fh:
            fh.write(payload[:5] + struct.pack(">Q", len(header)) + header + payload[13 + length :])

    return write


def _json_edit(edit):
    def apply(raw: bytes) -> bytes:
        header = json.loads(raw)
        edit(header)
        return json.dumps(header, sort_keys=True).encode("utf-8")

    return apply


def _field_case(name: str, change):
    """Save the checkpoint with field ``name`` replaced by ``change(value)``."""

    def write(source: str, target: str) -> None:
        checkpoint = load_checkpoint(source)
        value = change(getattr(checkpoint, name))
        save_checkpoint(target, dataclasses.replace(checkpoint, **{name: value}))

    return write


#: Ways to break a checkpoint file, ``write(source, target)``, each with the
#: text naming the key or array that the rejection must contain: a header
#: that cannot be read, an array section that cannot be decoded, arrays,
#: counts or counters that do not fit the run, and cached values that do not
#: match the states.
MALFORMED_CHECKPOINTS = {
    "undecodable_header": (_header_case(lambda raw: raw[:-1]), "checkpoint header is not JSON"),
    "missing_iteration": (
        _header_case(_json_edit(lambda h: h.pop("iteration"))),
        "header key 'iteration' is missing",
    ),
    "iteration_not_int": (
        _header_case(_json_edit(lambda h: h.update(iteration="9"))),
        "header key 'iteration' is missing or not int",
    ),
    "unknown_dtype": (
        _header_case(_json_edit(lambda h: h["arrays"][0].update(dtype="<x9"))),
        "'name': 'assoc'",
    ),
    "dtype_with_bad_shape_prefix": (
        _header_case(_json_edit(lambda h: h["arrays"][0].update(dtype="|01"))),
        "'name': 'assoc'",
    ),
    "blob_does_not_fit_shape": (
        _header_case(_json_edit(lambda h: h["arrays"][0]["shape"].append(2))),
        "'name': 'assoc'",
    ),
    "state_counts_four_cells_short": (
        _field_case("state_counts", lambda a: a[:-4]), "array 'state_counts'"
    ),
    "means_samples_one_row_short": (
        _field_case("means_samples", lambda a: a[:-1]), "array 'means_samples'"
    ),
    "assoc_one_column_short": (_field_case("assoc", lambda a: a[:, :-1]), "array 'assoc'"),
    "states_out_of_range": (
        _field_case("states", np.zeros_like), "checkpoint states must lie in 1..4"
    ),
    "inclusion_flags_out_of_range": (
        _field_case("assoc", lambda a: a + 2), "inclusion flags in 0..1"
    ),
    "kept_off_by_one": (_field_case("kept", lambda k: k + 1), "checkpoint kept="),
    "unknown_counter": (
        _field_case("stats", lambda s: {**s, "bogus_proposed": 1}), "checkpoint stats"
    ),
    "empty_rng_state": (_field_case("rng_state", lambda s: {}), "checkpoint rng_state"),
    "arrays_not_a_list": (
        _header_case(_json_edit(lambda h: h.update(arrays=5))),
        "checkpoint header key 'arrays' is not a list of objects",
    ),
    "gene_loglik_raised_by_50": (
        _field_case("gene_loglik", lambda a: a + 50.0), "cached log likelihood for gene 0 drifted"
    ),
    "persist_counts_zeroed": (
        _field_case("persist_counts", np.zeros_like), "cached persistence counts drifted"
    ),
}
