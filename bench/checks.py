"""Correctness checks of one round's outputs, computed apart from the program.

Every check reads the files that ``cnvlink fit``, ``summarize`` and
``diagnose`` wrote and raises :class:`CheckFailed` with a message naming what
is wrong. The reference values come from the planted truth, from an exact
enumeration, or from a recomputation written here; none come from a stored
copy of earlier output. Only ``load_checkpoint`` is taken from the program,
because the checkpoint reload is itself under test.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from workloads import STATE_MEANS, STATE_SDS, TOY_X, TOY_Y

#: Tolerances of the toy check against the exact enumeration. At the toy's
#: 30k sweeps the largest errors over chain seeds 4-49 were 0.015 (PPI) and
#: 0.013 (state).
TOY_PPI_TOL = 0.03
TOY_STATE_TOL = 0.035

#: Recovery bounds of acceptance criteria 5 and 6.
MIN_SENSITIVITY = 0.75
MIN_SPECIFICITY = 0.995
MAX_STATE_ERROR_PCT = 1.0
MEAN_TOL = 0.10
SD_TOL = 0.05

#: Modal-state tie order: neutral, loss, gain, amp (0-based state indices).
MODAL_TIE_ORDER = (1, 0, 2, 3)

#: Outputs whose bytes embed the output directory, so they differ by design
#: between rounds; every other output must be byte-identical.
PATH_BEARING = {"manifest.json", "summary.json"}


class CheckFailed(Exception):
    """A program output disagrees with its reference."""


def read_tsv(path: str):
    """Returns (matrix, row_labels, col_labels) of a labeled TSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    rows = [line[0] for line in lines[1:]]
    matrix = np.array([[float(v) for v in line[1:]] for line in lines[1:]])
    return matrix.reshape(len(rows), len(lines[0]) - 1), rows, lines[0][1:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def output_digests(fit_dir: str, post_dir: str) -> dict[str, str]:
    """sha256 of every output file that must repeat byte for byte."""
    out = {}
    for role, d in (("fit", fit_dir), ("post", post_dir)):
        for name in sorted(os.listdir(d)):
            if name in PATH_BEARING:
                continue
            with open(os.path.join(d, name), "rb") as fh:
                out[f"{role}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_identical(digests: dict[str, str], reference: dict[str, str]) -> None:
    """Outputs of a rerun with the same inputs and seed match the first run."""
    differing = sorted(
        name for name in set(digests) | set(reference)
        if digests.get(name) != reference.get(name)
    )
    _require(not differing, f"outputs differ between identical runs: {', '.join(differing)}")


# ---------------- toy: exact enumeration ----------------


def stationary_law(trans: np.ndarray) -> np.ndarray:
    """Solve pi (T - I) = 0 with sum(pi) = 1 as one least-squares system."""
    k = trans.shape[0]
    a = np.vstack([trans.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _marginal_loglik(y, z, intercept_prec, slab_prec, resid_df, resid_scale):
    """Collapsed log likelihood of ``y`` for a batch of designs ``z`` (..., n, k),
    through the n x n marginal covariance of the multivariate t."""
    n = y.size
    cov = np.eye(n) + 1.0 / intercept_prec + np.einsum("...ik,...jk->...ij", z, z) / slab_prec
    _, logdet = np.linalg.slogdet(cov)
    rhs = np.broadcast_to(y, cov.shape[:-1])[..., None]
    quad = np.einsum("i,...i->...", y, np.linalg.solve(cov, rhs)[..., 0])
    return (
        math.lgamma((n + resid_df) / 2) - math.lgamma(resid_df / 2)
        + resid_df / 2 * math.log(resid_scale / 2) - n / 2 * math.log(2 * math.pi)
        - 0.5 * logdet - (n + resid_df) / 2 * np.log((resid_scale + quad) / 2)
    )


def toy_posterior(y, x, means, sds, trans, *, intercept_prec, slab_prec, resid_df,
                  resid_scale, incl_a, incl_b):
    """Exact posterior of one gene on two probes and four samples, summed over
    the 4 inclusion patterns and 4**8 state matrices. With two probes both
    sites are chromosome ends, so the selection prior is base odds a : b.

    Returns the two PPIs and the state marginals, shape (4, 2, 4)."""
    y = np.asarray(y, dtype=float).ravel()
    idx = np.arange(256)
    cols = np.stack([(idx >> (2 * i)) & 3 for i in range(4)], axis=1)
    z = cols.astype(float) + 1.0
    log_stat = np.log(stationary_law(trans))
    log_trans = np.log(trans)
    emit = [
        (-0.5 * ((x[:, m] - means[cols]) / sds[cols]) ** 2 - np.log(sds[cols])).sum(axis=1)
        for m in range(2)
    ]
    markov = sum(log_trans[cols[:, i][:, None], cols[:, i][None, :]] for i in range(4))
    base = log_stat[cols].sum(axis=1)[:, None] + markov + emit[0][:, None] + emit[1][None, :]
    hyper = (intercept_prec, slab_prec, resid_df, resid_scale)
    none = _marginal_loglik(y, np.zeros((4, 0)), *hyper)
    single = _marginal_loglik(y, z[:, :, None], *hyper)
    pair_z = np.stack(np.broadcast_arrays(z[:, None, :], z[None, :, :]), axis=-1)
    pair = _marginal_loglik(y, pair_z, *hyper)
    lp1 = math.log(incl_a / (incl_a + incl_b))
    lp0 = math.log(incl_b / (incl_a + incl_b))
    logw = np.stack([
        np.stack([base + none + 2 * lp0, base + single[None, :] + lp0 + lp1]),
        np.stack([base + single[:, None] + lp0 + lp1, base + pair + 2 * lp1]),
    ])
    w = np.exp(logw - logw.max())
    w /= w.sum()
    ppi = np.array([w[1].sum(), w[:, 1].sum()])
    by_column = (w.sum(axis=(0, 1, 3)), w.sum(axis=(0, 1, 2)))
    marg = np.zeros((4, 2, 4))
    for m in range(2):
        for i in range(4):
            marg[i, m] = np.bincount(cols[:, i], weights=by_column[m], minlength=4)
    return ppi, marg


def check_toy_enumeration(run) -> None:
    """PPIs and state marginals match the exact posterior under the pinned
    parameters read back from ``hmm_estimates.tsv``."""
    est, _, _ = read_tsv(os.path.join(run.fit_dir, "hmm_estimates.tsv"))
    trans = est[:, 2:] / est[:, 2:].sum(axis=1, keepdims=True)
    cfg = run.workload.config
    exact_ppi, exact_marg = toy_posterior(
        TOY_Y, TOY_X, est[:, 0], est[:, 1], trans,
        **{k: float(cfg[f"prior.{k}"]) for k in (
            "intercept_prec", "slab_prec", "resid_df", "resid_scale", "incl_a", "incl_b"
        )},
    )
    ppi, _, _ = read_tsv(os.path.join(run.fit_dir, "ppi.tsv"))
    ppi_err = float(np.abs(ppi.ravel() - exact_ppi).max())
    _require(ppi_err <= TOY_PPI_TOL, f"PPI off the exact posterior by {ppi_err:.4f} (tol {TOY_PPI_TOL})")
    cp = _load_checkpoint(run.fit_dir)
    marg = cp.state_counts.reshape(4, 2, 4) / cp.kept
    state_err = float(np.abs(marg - exact_marg).max())
    _require(
        state_err <= TOY_STATE_TOL,
        f"state marginal off the exact posterior by {state_err:.4f} (tol {TOY_STATE_TOL})",
    )


# ---------------- planted truth ----------------


def _state_error_pct(run) -> float:
    modal, _, _ = read_tsv(os.path.join(run.fit_dir, "xi_modal.tsv"))
    truth, _, _ = read_tsv(os.path.join(run.data_dir, "xi_true.tsv"))
    _require(modal.shape == truth.shape, "xi_modal.tsv and xi_true.tsv differ in shape")
    return 100.0 * float(np.mean(modal != truth))


def _check_emission(run) -> None:
    est, _, _ = read_tsv(os.path.join(run.fit_dir, "hmm_estimates.tsv"))
    mean_err = np.abs(est[:, 0] - STATE_MEANS)
    sd_err = np.abs(est[:, 1] - STATE_SDS)
    _require(
        bool(np.all(mean_err <= MEAN_TOL)),
        f"emission means {np.round(est[:, 0], 3)} not within {MEAN_TOL} of {STATE_MEANS}",
    )
    _require(
        bool(np.all(sd_err <= SD_TOL)),
        f"emission sds {np.round(est[:, 1], 3)} not within {SD_TOL} of {STATE_SDS}",
    )


def _selected_matrix(path: str, genes: list, probes: list) -> np.ndarray:
    gene_idx = {g: i for i, g in enumerate(genes)}
    probe_idx = {p: j for j, p in enumerate(probes)}
    out = np.zeros((len(genes), len(probes)), dtype=np.int8)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.readlines()[1:]:
            fields = line.rstrip("\n").split("\t")
            out[gene_idx[fields[1]], probe_idx[fields[2]]] = 1
    return out


def check_recovery(run) -> None:
    """Acceptance criteria 5 and 6 on one fit: sensitivity, specificity, state
    error and emission estimates against the planted truth; the program's own
    ``metrics.tsv`` must report the same sensitivity and specificity."""
    truth, genes, probes = read_tsv(os.path.join(run.data_dir, "R_true.tsv"))
    selected = _selected_matrix(os.path.join(run.post_dir, "selected.tsv"), genes, probes)
    tp = int(np.sum((selected == 1) & (truth == 1)))
    fn = int(np.sum((selected == 0) & (truth == 1)))
    fp = int(np.sum((selected == 1) & (truth == 0)))
    tn = int(np.sum((selected == 0) & (truth == 0)))
    sens = tp / (tp + fn)
    spec = tn / (tn + fp)
    _require(sens >= MIN_SENSITIVITY, f"sensitivity {sens:.3f} < {MIN_SENSITIVITY}")
    _require(spec >= MIN_SPECIFICITY, f"specificity {spec:.5f} < {MIN_SPECIFICITY}")
    err = _state_error_pct(run)
    _require(err <= MAX_STATE_ERROR_PCT, f"state error {err:.3f}% > {MAX_STATE_ERROR_PCT}%")
    _check_emission(run)
    reported, _, names = read_tsv(os.path.join(run.post_dir, "metrics.tsv"))
    row = dict(zip(names, reported[0]))
    _require(
        abs(row["sensitivity"] - sens) < 1e-12 and abs(row["specificity"] - spec) < 1e-12,
        f"metrics.tsv reports sensitivity {row['sensitivity']}, specificity "
        f"{row['specificity']}; recomputed {sens}, {spec}",
    )


def check_states(run) -> None:
    """Modal states and emission estimates against the planted values."""
    err = _state_error_pct(run)
    _require(err <= MAX_STATE_ERROR_PCT, f"state error {err:.3f}% > {MAX_STATE_ERROR_PCT}%")
    _check_emission(run)


# ---------------- selection arithmetic ----------------


def bfdr_reference(ppi: np.ndarray, target: float):
    """Bayesian FDR selection and q-values recomputed from the PPIs.

    With lambda = 1 - PPI, the set {lambda <= v} has FDR equal to its mean
    lambda. The selection takes the largest v with FDR(v) <= target. An
    entry's q-value is the smallest FDR of a set that contains it; a mean of
    ascending values never falls, so that is the FDR at its own lambda."""
    lam = 1.0 - ppi.ravel()
    ordered = np.sort(lam)
    fdr_sorted = np.cumsum(ordered) / np.arange(1, lam.size + 1)
    # a set holds whole tie groups, so look each value up at its group's end
    fdr = fdr_sorted[np.searchsorted(ordered, lam, side="right") - 1]
    ok = fdr <= target
    selected = np.zeros(lam.size, dtype=np.int8)
    if ok.any():
        selected[lam <= lam[ok].max()] = 1
    return selected.reshape(ppi.shape), fdr.reshape(ppi.shape)


def _check_selection_files(out_dir: str, ppi, genes, probes, target: float) -> None:
    expect_sel, expect_q = bfdr_reference(ppi, target)
    q, _, _ = read_tsv(os.path.join(out_dir, "qvalues.tsv"))
    q_err = float(np.abs(q - expect_q).max())
    _require(q_err <= 1e-12, f"{out_dir}/qvalues.tsv off the recomputed q-values by {q_err:.3g}")
    path = os.path.join(out_dir, "selected.tsv")
    got = _selected_matrix(path, genes, probes)
    _require(
        np.array_equal(got, expect_sel),
        f"{path} selects {int(got.sum())} pairs; the recomputed BFDR selection "
        f"has {int(expect_sel.sum())}, {int(np.sum(got != expect_sel))} differ",
    )
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh.readlines()[1:]]
    listed = [float(r[3]) for r in rows]
    _require(all(a >= b for a, b in zip(listed, listed[1:])), f"{path} is not in PPI order")
    gi = {g: i for i, g in enumerate(genes)}
    pj = {p: j for j, p in enumerate(probes)}
    for r in rows:
        g, m = gi[r[1]], pj[r[2]]
        _require(
            float(r[3]) == ppi[g, m] and abs(float(r[4]) - expect_q[g, m]) <= 1e-12,
            f"{path}: pair {r[1]}/{r[2]} lists ppi {r[3]} q {r[4]}",
        )


def check_selection(run) -> None:
    """Every PPI is a count over the retained samples; the fit's and the
    summary's ``selected.tsv`` and ``qvalues.tsv`` equal the BFDR selection
    and q-values recomputed from ``ppi.tsv``."""
    ppi, genes, probes = read_tsv(os.path.join(run.fit_dir, "ppi.tsv"))
    _require(bool(np.all((ppi >= 0.0) & (ppi <= 1.0))), "a PPI lies outside [0, 1]")
    counts = ppi * run.workload.n_retained
    off = float(np.abs(counts - np.round(counts)).max())
    _require(off <= 1e-6, f"a PPI is not a multiple of 1/{run.workload.n_retained} (off by {off:.3g})")
    target = float(run.workload.config.get("fit.fdr", 0.05))
    for out_dir in (run.fit_dir, run.post_dir):
        _check_selection_files(out_dir, ppi, genes, probes, target)


# ---------------- checkpoint reload ----------------


def _load_checkpoint(fit_dir: str):
    from cnvlink.matrixio import load_checkpoint

    return load_checkpoint(os.path.join(fit_dir, "checkpoint.bin"))


def check_checkpoint(run) -> None:
    """The final checkpoint reloads at the end of the run with every retained
    sample counted, and its per-cell modal state is ``xi_modal.tsv``."""
    cp = _load_checkpoint(run.fit_dir)
    w = run.workload
    _require(
        cp.iteration == cp.iterations == w.iterations,
        f"checkpoint at iteration {cp.iteration} of {cp.iterations}, expected {w.iterations}",
    )
    _require(cp.kept == w.n_retained, f"checkpoint kept {cp.kept}, expected {w.n_retained}")
    modal, _, _ = read_tsv(os.path.join(run.fit_dir, "xi_modal.tsv"))
    counts = cp.state_counts.reshape(*modal.shape, 4)
    _require(bool(np.all(counts.sum(axis=2) == cp.kept)), "a cell's state counts do not sum to kept")
    reordered = counts[:, :, list(MODAL_TIE_ORDER)]
    expect = np.asarray(MODAL_TIE_ORDER)[np.argmax(reordered, axis=2)] + 1
    bad = int(np.sum(expect != modal))
    _require(bad == 0, f"xi_modal.tsv disagrees with the checkpoint's state counts in {bad} cells")


CHECKS = {
    "toy_enumeration": check_toy_enumeration,
    "recovery": check_recovery,
    "states": check_states,
    "selection": check_selection,
    "checkpoint": check_checkpoint,
}
