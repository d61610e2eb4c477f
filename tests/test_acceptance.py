"""Release acceptance gate: ten numbered end-to-end checks.

Each check prints one ``[criterion N] PASS`` or ``[criterion N] FAIL`` line
on the real stdout (bypassing pytest capture) so the verdicts are visible in
any log. The checks cover closed-form prior identities, a Monte-Carlo
cross-check of the collapsed gene likelihood, exact-enumeration equivalence
for the state chain alone and for the joint (inclusion, state) posterior,
association and state recovery on scaled synthetic scenarios, the benefit of
the spatially dependent inclusion prior, selection arithmetic, diagnostic
calibration, and byte-level determinism of the command-line pipeline.

Every check carries its stated wall-clock budget; exceeding the budget is a
failure. The scaled-scenario fits are shared between checks 5 and 6 through
a module-scoped fixture, and check 7 runs its six fits in its own fixture.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

import oracles
from cnvlink.cli import main as cli_main
from cnvlink.diagnostics import geweke, heidelberger_welch
from cnvlink.inference import bfdr_select, q_values, summarize
from cnvlink.likelihood import log_marginal_likelihood
from cnvlink.model import HmmHyper, RegressionHyper, SamplerConfig, validate
from cnvlink.priors import mixture_weights, site_log_probs
from cnvlink.sampler import run_chain
from cnvlink.simulate import ScenarioSpec, evaluate, simulate_dataset
from helpers import build_kernel_state, hyper_kwargs, make_cfg, raw_context


def _verdict(number: int, word: str) -> None:
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write(f"[criterion {number}] {word}\n")
    stream.flush()


@contextmanager
def criterion(number: int, budget: float | None = None):
    """Print the PASS/FAIL verdict for one numbered check and enforce its
    wall-clock budget (seconds). Time spent in shared fixtures is accounted
    for by the tests themselves via the fixtures' recorded durations."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _verdict(number, "FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _verdict(number, "FAIL")
        raise AssertionError(
            f"check {number} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"
        )
    _verdict(number, "PASS")


# ---------------- shared scaled-scenario fixtures ----------------

SCENARIO_SIZE = dict(
    n_samples=50, n_genes=20, n_probes=120, n_varied=30, n_assoc=8,
    weak_effect_count=0,
)
STATE_MEANS_TRUE = np.array([-0.65, 0.0, 0.65, 1.5])
STATE_SDS_TRUE = np.array([0.1, 0.1, 0.1, 0.2])
LONG_RUN = dict(iterations=60_000, burn_in=40_000, thin=1)


@dataclass
class ScenarioResult:
    sensitivity: float
    specificity: float
    state_error_pct: float
    means_est: np.ndarray
    sds_est: np.ndarray
    seconds: float


def _fit_scenario(spec: ScenarioSpec, alpha: float) -> ScenarioResult:
    data, truth, _ = simulate_dataset(spec)
    cfg = SamplerConfig(seed=spec.seed + 1000, **LONG_RUN)
    start = time.perf_counter()
    trace = run_chain(validate(data, RegressionHyper(alpha=alpha), HmmHyper(), cfg))
    seconds = time.perf_counter() - start
    summary = summarize(trace, fdr_target=0.05)
    metrics = evaluate(summary.selected, truth.assoc, summary.state_modes, truth.states)
    return ScenarioResult(
        sensitivity=metrics.sensitivity,
        specificity=metrics.specificity,
        state_error_pct=metrics.state_error_pct,
        means_est=summary.means_est,
        sds_est=summary.sds_est,
        seconds=seconds,
    )


@pytest.fixture(scope="module")
def independent_truth_runs() -> list[ScenarioResult]:
    """Three long fits on the sharp-noise scenario with scattered truth."""
    runs = []
    for seed in (101, 102, 103):
        spec = ScenarioSpec(noise_sd=0.1, seed=seed, **SCENARIO_SIZE)
        runs.append(_fit_scenario(spec, alpha=30.0))
    return runs


@pytest.fixture(scope="module")
def clustered_truth_runs() -> list[dict[str, ScenarioResult]]:
    """Three noisy clustered-truth datasets, each fit with the dependent
    prior (alpha=20) and the independent prior (alpha=inf)."""
    runs = []
    for seed in (201, 202, 203):
        spec = ScenarioSpec(noise_sd=0.5, clustered=True, seed=seed, **SCENARIO_SIZE)
        runs.append({
            "dependent": _fit_scenario(spec, alpha=20.0),
            "independent": _fit_scenario(spec, alpha=math.inf),
        })
    return runs


# ---------------- the ten checks ----------------


class TestAcceptance:
    def test_criterion_01_prior_identities(self):
        with criterion(1, budget=1.0):
            rng = np.random.default_rng(11)
            # fresh-only sites integrate the Beta hyperprior to base odds
            pairs = rng.uniform(0.01, 5.0, size=(100, 2))
            included = np.ones((1, 2), dtype=np.int8)
            for e, f in pairs:
                # both columns of a two-probe layout are boundary sites
                hyper = RegressionHyper(incl_a=e, incl_b=f)
                got = np.exp(site_log_probs(included, np.arange(2), np.zeros(1), hyper))
                assert np.all(np.abs(got - e / (e + f)) <= 1e-12)
            # the persistence mixture is a probability split at every column
            lengths = rng.integers(1, 8, size=10_000)
            scores = rng.random(size=(10_000, 7))
            alphas = np.where(
                rng.random(10_000) < 0.9, rng.uniform(0.1, 50.0, size=10_000), np.inf
            )
            worst = 0.0
            for length, row, alpha in zip(lengths, scores, alphas):
                fresh, copy_left, copy_right = mixture_weights(row[:length], float(alpha))
                total = fresh + copy_left + copy_right
                worst = max(worst, float(np.abs(total - 1.0).max()))
            assert worst <= 1e-12

    def test_criterion_02_collapsed_likelihood_oracle(self):
        with criterion(2, budget=300.0):
            # moderate hyperparameters keep the prior-sampling integral's
            # variance small enough for a 1e7-draw cross-check
            hyper = RegressionHyper(
                slab_prec=2.0, intercept_prec=1.0, resid_df=5.0, resid_scale=1.0
            )
            rng = np.random.default_rng(22)
            seen_sizes = set()
            for i in range(20):
                n = int(rng.integers(2, 7))
                n_probes = int(rng.integers(1, 4))
                k = int(rng.integers(0, min(2, n_probes) + 1))
                seen_sizes.add(k)
                y = rng.normal(size=n)
                states = rng.integers(1, 5, size=(n, n_probes))
                r_row = np.zeros(n_probes, dtype=np.int8)
                r_row[rng.choice(n_probes, size=k, replace=False)] = 1
                got = log_marginal_likelihood(y, states, r_row, hyper)
                mc = oracles.mc_marginal_loglik(
                    y, states[:, r_row == 1].astype(float),
                    **hyper_kwargs(hyper), n_draws=10_000_000, seed=1000 + i,
                )
                assert got == pytest.approx(mc, abs=0.05), f"instance {i}"
                if k == 0:
                    # no covariates: the collapsed value has a closed form
                    c_mu, df, d = hyper.intercept_prec, hyper.resid_df, hyper.resid_scale
                    quad = float(y @ (y - y.sum() / (n + c_mu)))
                    closed = (
                        -0.5 * n * math.log(2 * math.pi)
                        + 0.5 * math.log(c_mu / (c_mu + n))
                        + math.lgamma((n + df) / 2)
                        - math.lgamma(df / 2)
                        + (df / 2) * math.log(d / 2)
                        - ((n + df) / 2) * math.log((d + quad) / 2)
                    )
                    assert got == pytest.approx(closed, abs=1e-12)
            assert seen_sizes == {0, 1, 2}

    def test_criterion_03_state_chain_matches_enumeration(self):
        with criterion(3, budget=120.0):
            x = np.array([[0.1, 0.8]])
            y = np.zeros((1, 1))
            hyper = RegressionHyper(
                slab_prec=1.0, intercept_prec=1.0, resid_df=4.0, resid_scale=1.0
            )
            cfg = make_cfg(
                update_assoc=False, update_means=False, update_sds=False,
                update_trans=False, row_block_p=0.5,
            )
            ctx = raw_context(y, x, hyper=hyper, cfg=cfg)
            trans = np.array(
                [
                    [0.4, 0.3, 0.2, 0.1],
                    [0.25, 0.35, 0.25, 0.15],
                    [0.15, 0.25, 0.35, 0.25],
                    [0.1, 0.2, 0.3, 0.4],
                ]
            )
            means = np.array([-1.0, 0.0, 0.7, 1.6])
            sds = np.array([0.5, 0.4, 0.45, 0.6])
            kernel, state = build_kernel_state(
                ctx,
                assoc=np.zeros((1, 2), dtype=np.int8),
                states=np.full((1, 2), 2, dtype=np.int8),
                trans=trans, means=means, sds=sds,
            )
            exact = oracles.enumerate_state_pairs(
                x[0], trans=trans, means=means, sds=sds, stat_dist=state.stat_dist
            )
            rng = np.random.default_rng(33)
            counts = np.zeros((4, 4), dtype=np.int64)
            n_sweeps = 100_000
            for _ in range(n_sweeps):
                kernel.sweep(state, rng)
                counts[state.states[0, 0] - 1, state.states[0, 1] - 1] += 1
            tv = 0.5 * float(np.abs(counts / n_sweeps - exact).sum())
            assert tv < 0.02, f"total variation {tv:.4f}"

    def test_criterion_04_toy_joint_posterior_equivalence(self):
        with criterion(4, budget=1200.0):
            y = np.array([[-0.8], [0.1], [0.5], [1.2]])
            x = np.array(
                [
                    [-1.05, 0.10],
                    [0.05, 0.75],
                    [0.62, 0.68],
                    [1.45, 1.50],
                ]
            )
            hyper = RegressionHyper(
                slab_prec=1.0, intercept_prec=1.0, resid_df=4.0, resid_scale=1.0,
                incl_a=1.0, incl_b=3.0, alpha=2.0,
            )
            cfg = make_cfg(
                update_means=False, update_sds=False, update_trans=False,
                neutral_mask_frac=1.0, flip_prob=0.5, gene_block_p=0.5,
                row_block_p=0.5,
            )
            ctx = raw_context(y, x, hyper=hyper, cfg=cfg)
            trans = np.array(
                [
                    [0.4, 0.3, 0.2, 0.1],
                    [0.25, 0.35, 0.25, 0.15],
                    [0.15, 0.25, 0.35, 0.25],
                    [0.1, 0.2, 0.3, 0.4],
                ]
            )
            means = np.array([-1.0, 0.0, 0.7, 1.6])
            sds = np.array([0.3, 0.3, 0.3, 0.45])
            kernel, state = build_kernel_state(
                ctx,
                assoc=np.zeros((1, 2), dtype=np.int8),
                states=np.full((4, 2), 2, dtype=np.int8),
                trans=trans, means=means, sds=sds,
            )
            exact, _ = oracles.enumerate_joint_toy(
                y, x,
                trans=trans, means=means, sds=sds, stat_dist=state.stat_dist,
                pos=ctx.data.pos, fragment_length=ctx.data.fragment_length,
                intercept_prec=hyper.intercept_prec, slab_prec=hyper.slab_prec,
                resid_df=hyper.resid_df, resid_scale=hyper.resid_scale,
                incl_a=hyper.incl_a, incl_b=hyper.incl_b, alpha=hyper.alpha,
            )
            rng = np.random.default_rng(44)
            counts = np.zeros((2, 2, 256, 256), dtype=np.int64)
            n_sweeps = 600_000
            for _ in range(n_sweeps):
                kernel.sweep(state, rng)
                s = state.states
                col0 = (
                    (int(s[0, 0]) - 1)
                    | ((int(s[1, 0]) - 1) << 2)
                    | ((int(s[2, 0]) - 1) << 4)
                    | ((int(s[3, 0]) - 1) << 6)
                )
                col1 = (
                    (int(s[0, 1]) - 1)
                    | ((int(s[1, 1]) - 1) << 2)
                    | ((int(s[2, 1]) - 1) << 4)
                    | ((int(s[3, 1]) - 1) << 6)
                )
                counts[state.assoc[0, 0], state.assoc[0, 1], col0, col1] += 1
            tv = 0.5 * float(np.abs(counts / n_sweeps - exact).sum())
            assert tv < 0.03, f"total variation {tv:.4f}"

    def test_criterion_05_scaled_association_recovery(self, independent_truth_runs):
        with criterion(5, budget=1800.0):
            runs = independent_truth_runs
            sens = float(np.mean([r.sensitivity for r in runs]))
            spec = float(np.mean([r.specificity for r in runs]))
            fit_seconds = sum(r.seconds for r in runs)
            assert sens >= 0.75, f"mean sensitivity {sens:.4f}"
            assert spec >= 0.995, f"mean specificity {spec:.5f}"
            assert fit_seconds < 1800.0, f"fits took {fit_seconds:.0f}s"

    def test_criterion_06_scaled_state_recovery(self, independent_truth_runs):
        with criterion(6):
            runs = independent_truth_runs
            err_pct = float(np.mean([r.state_error_pct for r in runs]))
            means = np.mean([r.means_est for r in runs], axis=0)
            sds = np.mean([r.sds_est for r in runs], axis=0)
            mean_err = np.abs(means - STATE_MEANS_TRUE)
            sd_err = np.abs(sds - STATE_SDS_TRUE)
            # one assertion, so a miss on one quantity never hides another
            assert err_pct <= 1.0 and np.all(mean_err <= 0.10) and np.all(sd_err <= 0.05), (
                f"mean state error {err_pct:.3f}% (bound 1%); "
                f"emission-mean errors {np.round(mean_err, 3)} (bound 0.10, "
                f"estimates {np.round(means, 3)}); "
                f"emission-sd errors {np.round(sd_err, 3)} (bound 0.05, "
                f"estimates {np.round(sds, 3)})"
            )

    def test_criterion_07_dependent_prior_benefit(self, clustered_truth_runs):
        with criterion(7, budget=2400.0):
            runs = clustered_truth_runs
            dep = float(np.mean([r["dependent"].sensitivity for r in runs]))
            indep = float(np.mean([r["independent"].sensitivity for r in runs]))
            fit_seconds = sum(
                r["dependent"].seconds + r["independent"].seconds for r in runs
            )
            assert dep >= indep, f"dependent {dep:.4f} < independent {indep:.4f}"
            assert fit_seconds < 2400.0, f"fits took {fit_seconds:.0f}s"

    def test_criterion_08_selection_arithmetic(self):
        with criterion(8, budget=1.0):
            threshold, selected, realized = bfdr_select(
                np.array([[0.9, 0.8, 0.2]]), 0.2
            )
            assert threshold == pytest.approx(0.2, abs=1e-12)
            assert np.array_equal(selected, np.array([[1, 1, 0]], dtype=np.int8))
            assert realized == pytest.approx(0.15, abs=1e-12)
            rng = np.random.default_rng(88)
            for _ in range(1000):
                shape = (int(rng.integers(1, 6)), int(rng.integers(1, 8)))
                mat = rng.random(size=shape)
                q = q_values(mat)
                order = np.argsort(mat.ravel(), kind="stable")
                assert np.all(np.diff(q.ravel()[order]) <= 0.0)

    def test_criterion_09_diagnostics_calibration(self):
        with criterion(9, budget=60.0):
            rng = np.random.default_rng(7)
            z_scores = [abs(geweke(rng.normal(size=10_000))) for _ in range(100)]
            assert sum(z < 3.0 for z in z_scores) >= 99
            step = rng.normal(size=10_000)
            step[5_000:] += 10.0
            assert abs(geweke(step)) > 5.0
            hw_passes = sum(
                heidelberger_welch(rng.normal(size=10_000)).passes
                for _ in range(100)
            )
            assert hw_passes >= 95

    def test_criterion_10_byte_identical_reruns(self, tmp_path):
        with criterion(10, budget=120.0):
            sim = str(tmp_path / "data")
            assert cli_main([
                "simulate",
                "--set", "scenario.n_samples=20",
                "--set", "scenario.n_genes=5",
                "--set", "scenario.n_probes=40",
                "--set", "scenario.n_varied=10",
                "--set", "scenario.n_assoc=3",
                "--set", "scenario.weak_effect_count=0",
                "--seed", "5",
                "--out", sim,
            ]) == 0
            fit_dirs = []
            for name in ("fit_a", "fit_b"):
                out = str(tmp_path / name)
                assert cli_main([
                    "fit", "--data.dir", sim,
                    "--iterations", "3000", "--burn-in", "1500",
                    "--seed", "7", "--out", out,
                ]) == 0
                assert cli_main(["summarize", out]) == 0
                fit_dirs.append(tmp_path / name)
            compared = (
                "ppi.tsv", "qvalues.tsv", "selected.tsv", "xi_modal.tsv",
                "hmm_estimates.tsv", "traces.tsv", "acceptance.tsv",
                "checkpoint.bin", "ppi_long.csv", "metrics.tsv",
            )
            for name in compared:
                a = (fit_dirs[0] / name).read_bytes()
                b = (fit_dirs[1] / name).read_bytes()
                assert a == b, f"{name} differs between identical runs"
