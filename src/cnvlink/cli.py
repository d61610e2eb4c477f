"""Command-line interface: simulate, fit, summarize, diagnose.

Every configuration key can be set in a config file (``--config``), as a
mirrored flag (``--sampler.iterations 500``), or via ``--set KEY=VALUE``;
later sources win in that order. Exit codes: 0 success, 1 usage or validation
problem, 2 numerical or runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import __version__
from .config import (
    SCHEMA,
    load_config_file,
    manifest_view,
    parse_value,
    resolve,
    resolve_out_dir,
    to_hmm_hyper,
    to_regression_hyper,
    to_sampler_config,
    to_scenario_spec,
)
from .diagnostics import geweke, heidelberger_welch
from .inference import bfdr_select, q_values, summarize
from .matrixio import (
    atomic_write_text,
    config_hash,
    default_labels,
    format_value,
    load_checkpoint,
    read_json,
    read_matrix_tsv,
    save_checkpoint,
    write_json,
    write_matrix_tsv,
)
from .model import (
    NumericalError,
    ObservedData,
    STATE_NAMES,
    ValidationError,
    validate,
)
from .sampler import run_chain
from .simulate import evaluate, simulate_dataset

_DATA_FILES = ("Y.tsv", "X.tsv", "pos.tsv")
_TRUTH_FILES = ("R_true.tsv", "xi_true.tsv", "beta_true.tsv")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------- argument plumbing ----------------


def _add_config_options(sub: argparse.ArgumentParser, groups: tuple[str, ...], aliases: dict[str, str]) -> None:
    sub.add_argument("--config", metavar="FILE", help="flat key = value configuration file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable, highest precedence)",
    )
    for key, entry in SCHEMA.items():
        if key.split(".", 1)[0] in groups:
            sub.add_argument(f"--{key}", metavar="VALUE", help=entry.help)
    for option, key in aliases.items():
        sub.add_argument(option, dest=key, metavar="VALUE", help=f"alias for --{key}")


def _collect_flags(args: argparse.Namespace) -> dict:
    typed = {}
    for key, raw in vars(args).items():
        if key in SCHEMA and raw is not None:
            typed[key] = parse_value(key, raw)
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        typed[key] = parse_value(key, raw)
    return typed


def _resolve_config(args: argparse.Namespace):
    file_values = load_config_file(args.config) if getattr(args, "config", None) else None
    resolved, provenance = resolve(file_values, _collect_flags(args))
    overridden = [
        f"  {key} = {manifest_view({key: resolved[key]})[key]!r} ({provenance[key]})"
        for key in sorted(resolved)
        if provenance[key] != "default"
    ]
    if overridden:
        _log("configuration (non-default keys):")
        for line in overridden:
            _log(line)
    n_default = sum(1 for v in provenance.values() if v == "default")
    _log(f"configuration: {n_default} keys at documented defaults")
    return resolved, provenance


# ---------------- simulate ----------------


def cmd_simulate(args: argparse.Namespace) -> int:
    resolved, provenance = _resolve_config(args)
    out_dir = resolve_out_dir(resolved["out.dir"], "cnvlink-sim")
    os.makedirs(out_dir, exist_ok=True)
    spec = to_scenario_spec(resolved)
    data, truth, manifest = simulate_dataset(spec)
    samples = default_labels("s", spec.n_samples)
    genes = default_labels("g", spec.n_genes)
    probes = default_labels("p", spec.n_probes)
    write_matrix_tsv(os.path.join(out_dir, "Y.tsv"), data.y, samples, genes)
    write_matrix_tsv(os.path.join(out_dir, "X.tsv"), data.x, samples, probes)
    write_matrix_tsv(os.path.join(out_dir, "pos.tsv"), data.pos.reshape(-1, 1), probes, ["pos"])
    write_matrix_tsv(os.path.join(out_dir, "xi_true.tsv"), truth.states, samples, probes)
    write_matrix_tsv(os.path.join(out_dir, "R_true.tsv"), truth.assoc, genes, probes)
    write_matrix_tsv(os.path.join(out_dir, "beta_true.tsv"), truth.effects, genes, probes)
    manifest = dict(manifest)
    manifest.update(
        {
            "version": __version__,
            "config_hash": config_hash(manifest_view(resolved)),
            "varied_columns": truth.varied_columns.tolist(),
            "extra_columns": truth.extra_columns.tolist(),
            "files": list(_DATA_FILES) + list(_TRUTH_FILES),
        }
    )
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    _log(f"simulate: wrote dataset to {out_dir}")
    return 0


# ---------------- fit ----------------


def _read_dataset(data_dir: str, fragment_override):
    missing = [f for f in _DATA_FILES if not os.path.exists(os.path.join(data_dir, f))]
    if missing:
        raise ValidationError(
            f"data directory {data_dir} is missing {', '.join(missing)} "
            f"(expected {', '.join(_DATA_FILES)} and manifest.json)"
        )
    y, samples, genes = read_matrix_tsv(os.path.join(data_dir, "Y.tsv"))
    x, samples_x, probes = read_matrix_tsv(os.path.join(data_dir, "X.tsv"))
    pos_mat, probes_pos, _ = read_matrix_tsv(os.path.join(data_dir, "pos.tsv"))
    if samples != samples_x:
        raise ValidationError("Y.tsv and X.tsv disagree on sample labels")
    if len(probes_pos) != len(probes):
        raise ValidationError("pos.tsv and X.tsv disagree on probe count")
    manifest_path = os.path.join(data_dir, "manifest.json")
    manifest_sha = None
    fragment_length = fragment_override
    if os.path.exists(manifest_path):
        manifest_sha = _file_sha256(manifest_path)
        if fragment_length is None:
            fragment_length = read_json(manifest_path).get("fragment_length")
    if fragment_length is None:
        raise ValidationError(
            "fragment length unknown: no dataset manifest and no "
            "--data.fragment_length override"
        )
    data = ObservedData(
        y=y, x=x, pos=pos_mat[:, 0], fragment_length=float(fragment_length)
    )
    return data, samples, genes, probes, manifest_sha


def cmd_fit(args: argparse.Namespace) -> int:
    resolved, provenance = _resolve_config(args)
    if not 0.0 < resolved["fit.fdr"] < 1.0:
        raise ValidationError(f"fit.fdr must lie in (0, 1), got {resolved['fit.fdr']}")
    if resolved["data.dir"] is None or not isinstance(resolved["data.dir"], str):
        raise ValidationError("missing required configuration key: data.dir")
    data_dir = resolved["data.dir"]
    data, samples, genes, probes, data_sha = _read_dataset(
        data_dir, resolved["data.fragment_length"]
    )
    hyper = to_regression_hyper(resolved)
    hmm_hyper = to_hmm_hyper(resolved)
    cfg = to_sampler_config(resolved)
    ctx = validate(data, hyper, hmm_hyper, cfg, standardize=resolved["fit.standardize"])
    out_dir = resolve_out_dir(resolved["out.dir"], "cnvlink-fit")
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.bin")
    resume = None
    if getattr(args, "resume", None):
        resume = load_checkpoint(args.resume)
        _log(f"fit: resuming from {args.resume} at iteration {resume.iteration}")
    every = resolved["fit.checkpoint_every"] or None
    try:
        trace = run_chain(
            ctx,
            resume=resume,
            checkpoint_every=every,
            on_checkpoint=lambda cp: save_checkpoint(checkpoint_path, cp),
        )
    except ValidationError as err:
        # errors inside the sweeps come out as NumericalError, so this one
        # rejects the checkpoint
        if resume is None:
            raise
        raise ValidationError(f"{args.resume}: {err}") from None
    summary = summarize(trace, fdr_target=resolved["fit.fdr"])
    _write_fit_outputs(out_dir, trace, summary, samples, genes, probes)
    manifest = {
        "kind": "cnvlink-fit",
        "version": __version__,
        "seed": cfg.seed,
        "config": manifest_view(resolved),
        "provenance": provenance,
        "config_hash": config_hash(manifest_view(resolved)),
        "data_dir": data_dir,
        "data_manifest_sha256": data_sha,
        "n_kept": trace.n_kept,
        "threshold": summary.threshold,
        "realized_fdr": summary.realized_fdr,
        "fdr_target": summary.fdr_target,
        "acceptance": trace.acceptance,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    _log(
        f"fit: kept {trace.n_kept} samples; selected "
        f"{int(summary.selected.sum())} pairs at FDR target {summary.fdr_target}"
    )
    _log(f"fit: outputs in {out_dir}")
    return 0


def _write_fit_outputs(out_dir, trace, summary, samples, genes, probes) -> None:
    write_matrix_tsv(os.path.join(out_dir, "ppi.tsv"), summary.ppi, genes, probes)
    write_matrix_tsv(os.path.join(out_dir, "qvalues.tsv"), summary.q_values, genes, probes)
    _write_selected_pairs(
        os.path.join(out_dir, "selected.tsv"), summary, genes, probes
    )
    write_matrix_tsv(
        os.path.join(out_dir, "xi_modal.tsv"), summary.state_modes, samples, probes
    )
    est = np.column_stack([summary.means_est, summary.sds_est, summary.trans_est])
    write_matrix_tsv(
        os.path.join(out_dir, "hmm_estimates.tsv"),
        est,
        list(STATE_NAMES),
        ["mean", "sd", *[f"to_{name}" for name in STATE_NAMES]],
    )
    series = trace.scalar_series()
    names = list(series)
    table = np.column_stack([series[name] for name in names])
    write_matrix_tsv(
        os.path.join(out_dir, "traces.tsv"),
        table,
        default_labels("k", table.shape[0]),
        names,
    )
    _write_acceptance(os.path.join(out_dir, "acceptance.tsv"), trace.acceptance)


def _write_selected_pairs(path, summary, genes, probes) -> None:
    rows = np.argwhere(summary.selected == 1)
    order = np.argsort(-summary.ppi[rows[:, 0], rows[:, 1]], kind="stable") if rows.size else []
    lines = ["pair\tgene\tprobe\tppi\tq_value"]
    for rank, idx in enumerate(order, start=1):
        g, m = rows[idx]
        lines.append(
            "\t".join(
                [
                    f"k{rank:04d}",
                    genes[g],
                    probes[m],
                    format_value(summary.ppi[g, m]),
                    format_value(summary.q_values[g, m]),
                ]
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_acceptance(path, acceptance: dict) -> None:
    """One line per move (each ``<move>_proposed``/``<move>_accepted`` pair of
    the counters, in their order), then one per remaining counter."""
    lines = ["move\tproposed\taccepted\trate"]
    moves = [key[: -len("_proposed")] for key in acceptance if key.endswith("_proposed")]
    for move in moves:
        prop = int(acceptance[f"{move}_proposed"])
        acc = int(acceptance[f"{move}_accepted"])
        rate = acc / prop if prop else float("nan")
        lines.append(f"{move}\t{prop}\t{acc}\t{format_value(rate)}")
    for key, count in acceptance.items():
        if not key.endswith(("_proposed", "_accepted")):
            lines.append(f"{key}\t{int(count)}\t0\tnan")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------- summarize ----------------


def cmd_summarize(args: argparse.Namespace) -> int:
    fit_dir = args.fit_dir
    expected = ("ppi.tsv", "manifest.json")
    missing = [f for f in expected if not os.path.exists(os.path.join(fit_dir, f))]
    if missing:
        raise ValidationError(
            f"{fit_dir} does not look like a fit output: missing "
            f"{', '.join(missing)} (expected {', '.join(expected)})"
        )
    fit_manifest = read_json(os.path.join(fit_dir, "manifest.json"))
    out_dir = args.out or fit_dir
    os.makedirs(out_dir, exist_ok=True)
    fdr = args.fdr if args.fdr is not None else fit_manifest.get("fdr_target", 0.05)
    ppi, genes, probes = read_matrix_tsv(os.path.join(fit_dir, "ppi.tsv"))
    data_dir = fit_manifest.get("data_dir")
    recorded_sha = fit_manifest.get("data_manifest_sha256")
    truth_dir = None
    if data_dir and os.path.isdir(data_dir):
        manifest_path = os.path.join(data_dir, "manifest.json")
        if os.path.exists(manifest_path) and recorded_sha:
            current = _file_sha256(manifest_path)
            if current != recorded_sha and not args.force:
                raise ValidationError(
                    f"dataset manifest {manifest_path} has changed since the fit "
                    f"(sha256 {current[:12]}… vs recorded {recorded_sha[:12]}…); "
                    "rerun the fit or pass --force"
                )
        truth_dir = data_dir
    if fdr >= 1.0:
        # A unit (or larger) budget cannot exclude anything on error-rate
        # grounds, so select every pair with nonzero inclusion probability.
        lam = 1.0 - ppi
        positive = ppi > 0.0
        if positive.any():
            threshold = float(lam[positive].max())
            selected = (lam <= threshold).astype(np.int8)
            realized = float(lam[selected == 1].mean())
        else:
            threshold, selected, realized = -1.0, np.zeros(ppi.shape, dtype=np.int8), 0.0
    else:
        threshold, selected, realized = bfdr_select(ppi, fdr)
    qvals = q_values(ppi)
    lines = ["gene,probe,ppi"]
    for g, gene in enumerate(genes):
        for m, probe in enumerate(probes):
            lines.append(f"{gene},{probe},{format_value(ppi[g, m])}")
    atomic_write_text(os.path.join(out_dir, "ppi_long.csv"), "\n".join(lines) + "\n")
    write_matrix_tsv(os.path.join(out_dir, "qvalues.tsv"), qvals, genes, probes)

    pairs_view = SimpleNamespace(selected=selected, ppi=ppi, q_values=qvals)
    _write_selected_pairs(os.path.join(out_dir, "selected.tsv"), pairs_view, genes, probes)
    metrics_written = False
    if truth_dir and os.path.exists(os.path.join(truth_dir, "R_true.tsv")):
        truth, _, _ = read_matrix_tsv(os.path.join(truth_dir, "R_true.tsv"), dtype=np.int64)
        modes = truth_states = None
        modal_path = os.path.join(fit_dir, "xi_modal.tsv")
        truth_states_path = os.path.join(truth_dir, "xi_true.tsv")
        if os.path.exists(modal_path) and os.path.exists(truth_states_path):
            modes, _, _ = read_matrix_tsv(modal_path, dtype=np.int64)
            truth_states, _, _ = read_matrix_tsv(truth_states_path, dtype=np.int64)
        metrics = evaluate(selected, truth, modes, truth_states)
        header = [
            "sensitivity", "specificity", "tp", "fp", "fn", "tn",
            "detections", "threshold", "realized_fdr",
        ]
        row = [
            metrics.sensitivity, metrics.specificity, metrics.tp, metrics.fp,
            metrics.fn, metrics.tn, metrics.n_detected, threshold, realized,
        ]
        if metrics.state_errors is not None:
            header += ["state_errors", "state_error_pct"]
            row += [metrics.state_errors, metrics.state_error_pct]
        lines = ["\t".join(["run", *header])]
        lines.append("\t".join(["r0001", *[format_value(v) for v in row]]))
        atomic_write_text(os.path.join(out_dir, "metrics.tsv"), "\n".join(lines) + "\n")
        metrics_written = True
    write_json(
        os.path.join(out_dir, "summary.json"),
        {
            "kind": "cnvlink-summary",
            "version": __version__,
            "fit_dir": fit_dir,
            "fdr_target": fdr,
            "threshold": threshold,
            "realized_fdr": realized,
            "n_selected": int(selected.sum()),
            "metrics_written": metrics_written,
            "config_hash": fit_manifest.get("config_hash"),
            "seed": fit_manifest.get("seed"),
        },
    )
    if os.path.abspath(out_dir) != os.path.abspath(fit_dir) and not os.path.exists(
        os.path.join(out_dir, "manifest.json")
    ):
        write_json(
            os.path.join(out_dir, "manifest.json"),
            {
                "kind": "cnvlink-summary",
                "version": __version__,
                "config_hash": fit_manifest.get("config_hash"),
                "seed": fit_manifest.get("seed"),
            },
        )
    _log(
        f"summarize: {int(selected.sum())} pairs at FDR {fdr} "
        f"(threshold {threshold:.6g}, realized {realized:.6g})"
        + ("" if metrics_written else "; no truth files, metrics omitted")
    )
    return 0


# ---------------- diagnose ----------------


def cmd_diagnose(args: argparse.Namespace) -> int:
    fit_dir = args.fit_dir
    traces_path = os.path.join(fit_dir, "traces.tsv")
    if not os.path.exists(traces_path):
        raise ValidationError(
            f"{fit_dir} holds no traces.tsv (expected a fit output directory)"
        )
    table, _, names = read_matrix_tsv(traces_path)
    out_dir = args.out or fit_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_lines = ["label,n,geweke_z,hw_passes,hw_burn_in_fraction,hw_statistic,status"]
    txt_lines = [f"convergence diagnostics over {table.shape[0]} retained samples"]
    worst = 0.0
    for j, name in enumerate(names):
        series = table[:, j]
        try:
            z = geweke(series)
            hw = heidelberger_welch(series)
            status = "ok"
            worst = max(worst, abs(z))
            csv_lines.append(
                f"{name},{series.size},{format_value(z)},{int(hw.passes)},"
                f"{format_value(hw.burn_in_fraction)},{format_value(hw.statistic)},{status}"
            )
            verdict = "pass" if hw.passes else "FAIL"
            txt_lines.append(
                f"  {name}: geweke z = {z:+.3f}; stationarity {verdict} "
                f"(drop first {hw.burn_in_fraction:.0%})"
            )
        except ValidationError as err:
            csv_lines.append(f"{name},{series.size},nan,0,nan,nan,degenerate")
            txt_lines.append(f"  {name}: degenerate ({err})")
    txt_lines.append(f"largest |z| among valid series: {worst:.3f}")
    atomic_write_text(os.path.join(out_dir, "diagnostics.csv"), "\n".join(csv_lines) + "\n")
    atomic_write_text(os.path.join(out_dir, "report.txt"), "\n".join(txt_lines) + "\n")
    _log(f"diagnose: wrote diagnostics for {len(names)} series to {out_dir}")
    return 0


# ---------------- entry point ----------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnvlink",
        description=(
            "Joint copy-number segmentation and expression-association "
            "inference via MCMC"
        ),
    )
    parser.add_argument("--version", action="version", version=f"cnvlink {__version__}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_config_options(
        sp,
        ("scenario", "out"),
        {"--seed": "scenario.seed", "--out": "out.dir"},
    )
    sp.set_defaults(func=cmd_simulate)

    fp = sub.add_parser("fit", help="run the sampler on a dataset")
    _add_config_options(
        fp,
        ("data", "out", "fit", "sampler", "prior", "hmm"),
        {
            "--seed": "sampler.seed",
            "--alpha": "prior.alpha",
            "--iterations": "sampler.iterations",
            "--burn-in": "sampler.burn_in",
            "--fdr": "fit.fdr",
            "--out": "out.dir",
        },
    )
    fp.add_argument("--resume", metavar="CHECKPOINT", help="resume from a checkpoint file")
    fp.set_defaults(func=cmd_fit)

    mp = sub.add_parser("summarize", help="selection tables and metrics from a fit")
    mp.add_argument("fit_dir", help="fit output directory")
    mp.add_argument("--fdr", type=float, default=None, help="FDR target (default: the fit's)")
    mp.add_argument("--force", action="store_true", help="ignore dataset manifest hash mismatches")
    mp.add_argument("--out", default=None, help="output directory (default: the fit directory)")
    mp.set_defaults(func=cmd_summarize)

    dp = sub.add_parser("diagnose", help="convergence diagnostics for a fit's scalar traces")
    dp.add_argument("fit_dir", help="fit output directory")
    dp.add_argument("--out", default=None, help="output directory (default: the fit directory)")
    dp.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        return int(args.func(args) or 0)
    except ValidationError as err:
        _log(f"error: {err}")
        return 1
    except NumericalError as err:
        _log(f"numerical error: {err}")
        return 2
    except KeyboardInterrupt:
        _log("interrupted")
        return 2
    except Exception as err:  # runtime failures map to exit 2 by contract
        _log(f"unexpected error: {type(err).__name__}: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
