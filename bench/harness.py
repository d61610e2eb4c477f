"""Run one workload in this process and print its result as one JSON line.

``bench/run.py`` starts this file once per workload, with numpy's BLAS
pinned to one thread and ``src`` on ``PYTHONPATH``. A run first writes the
workload's dataset, then repeats whole rounds until ``--seconds`` have
passed (at least two, so every run checks that reruns are byte-identical).
A round is: the timed set-up calls, ``cnvlink fit``, then ``cnvlink
summarize`` and ``cnvlink diagnose`` repeated a few times (where one pass is
short) into fresh directories, all through ``cnvlink.cli.main``, then every
check. Each command and each check is one operation. The fit and each
summarize-plus-diagnose pass are measured both in wall time and in user-mode
instructions retired (:mod:`counters`).

With ``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer metrics, and the difference of the two kinds' median
instruction count of the fit is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass

import numpy as np

import checks
import counters
import tracing
from workloads import WORKLOADS, Workload

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
#: Spans whose self time is whatever the wrapped functions below them leave
#: over; ``trace.span_coverage`` counts the fit's time outside them.
CATCH_ALL = ("cli.cmd_fit", "sampler.run_chain")


@dataclass
class RoundDirs:
    """Where one round reads and writes; the checks take this."""

    workload: Workload
    data_dir: str
    fit_dir: str
    post_dir: str


def setup_timer(workload: Workload, data_dir: str, seed: int):
    """A function timing one pass from the raw dataset files to the chain's
    initial state, through the fit's own dataset reader, with the fit's
    inputs and configuration."""
    from cnvlink.cli import _read_dataset
    from cnvlink.config import (
        parse_value, resolve, to_hmm_hyper, to_regression_hyper, to_sampler_config,
    )
    from cnvlink.model import validate
    from cnvlink.sampler import Kernel

    typed = {k: parse_value(k, v) for k, v in workload.fit_config(seed).items()}
    resolved, _ = resolve(None, typed)
    hyper = to_regression_hyper(resolved)
    hmm_hyper = to_hmm_hyper(resolved)
    cfg = to_sampler_config(resolved)

    def once() -> float:
        start = time.perf_counter()
        data = _read_dataset(data_dir, resolved["data.fragment_length"])[0]
        ctx = validate(data, hyper, hmm_hyper, cfg, standardize=resolved["fit.standardize"])
        Kernel(ctx).init_state(np.random.Generator(np.random.PCG64(cfg.seed)))
        return time.perf_counter() - start

    return once


def _cli(args: list[str], log) -> bool:
    from cnvlink.cli import main

    with redirect_stderr(log):
        return main(args) == 0


def run_round(dirs: RoundDirs, seed: int, reference: dict | None, recorder, log) -> dict:
    """One round; ``post_s`` and ``post_instr`` hold one figure per repeat of
    summarize plus diagnose, each into its own directory. With a recorder,
    the fit and the first repeat are traced."""
    w = dirs.workload
    counter = counters.InstructionCounter()
    fit_args = ["fit", "--data.dir", dirs.data_dir, "--out", dirs.fit_dir]
    for key, value in w.fit_config(seed).items():
        fit_args += ["--set", f"{key}={value}"]
    post_dirs = [dirs.post_dir] + [f"{dirs.post_dir}{j}" for j in range(1, w.post_repeats)]
    ops: list[tuple[str, str | None]] = []
    post_s, post_instr = [], []
    for j, post_dir in enumerate(post_dirs):
        traced = recorder is not None and j == 0
        with tracing.traced(recorder) if traced else nullcontext():
            if j == 0:
                i0 = counter.read()
                t0 = time.perf_counter()
                ok = _cli(fit_args, log)
                t1 = time.perf_counter()
                fit_instr = counter.read() - i0
                ops.append(("fit", None if ok else "cnvlink fit exited non-zero"))
            i0 = counter.read()
            start = time.perf_counter()
            for cmd in ("summarize", "diagnose"):
                ok = _cli([cmd, dirs.fit_dir, "--out", post_dir], log)
                ops.append((cmd, None if ok else f"cnvlink {cmd} exited non-zero"))
            post_s.append(time.perf_counter() - start)
            post_instr.append(counter.read() - i0)
    counter.close()
    # the process's peak so far, before any check adds its own arrays
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name in w.check_names:
        ops.append((name, _run_check(checks.CHECKS[name], dirs)))
    digests = {}
    try:
        digests = checks.output_digests(dirs.fit_dir, dirs.post_dir)
        for post_dir in post_dirs:
            checks.check_identical(
                checks.output_digests(dirs.fit_dir, post_dir),
                digests if reference is None else reference,
            )
        ops.append(("identical", None))
    except (checks.CheckFailed, OSError) as err:
        ops.append(("identical", str(err)))
    out = {
        "fit_s": t1 - t0, "fit_instr": fit_instr, "post_s": post_s, "post_instr": post_instr,
        "rss_mb": rss_mb, "ops": ops, "digests": digests,
    }
    if recorder is not None:
        out["layers"] = layer_metrics(recorder, w, dirs.fit_dir, t0, t1)
    return out


def _run_check(check, dirs: RoundDirs) -> str | None:
    try:
        check(dirs)
    except checks.CheckFailed as err:
        return str(err)
    except Exception as err:  # a missing or malformed output fails the check
        return f"{type(err).__name__}: {err}"
    return None


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, w: Workload, fit_dir: str, t0: float, t1: float) -> dict:
    """Per-layer figures of one traced round, as {name: (value, unit)}."""
    spans = recorder.summary()
    it = w.iterations

    def get(label, key):
        return spans.get(label, {}).get(key, 0)

    def per_call(label, scale=1.0):
        return _ratio(get(label, "total_s") * scale, get(label, "calls"))

    with open(os.path.join(fit_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        acc = json.load(fh)["acceptance"]
    assoc_prop = acc["add_proposed"] + acc["delete_proposed"] + acc["swap_proposed"]
    assoc_acc = acc["add_accepted"] + acc["delete_accepted"] + acc["swap_accepted"]
    m = {"sampler.sweep.us": (get("sampler.sweep", "total_s") / it * 1e6, "us")}
    for move in ("update_assoc", "update_states", "update_state_row",
                 "update_means", "update_sds", "update_trans"):
        m[f"sampler.{move}.us"] = (get(f"sampler.{move}", "total_s") / it * 1e6, "us")
    m.update({
        "sampler.update_assoc.accept_ratio": (_ratio(assoc_acc, assoc_prop), "ratio"),
        "sampler.update_assoc.noop_ratio": (
            _ratio(acc["assoc_noop"], assoc_prop + acc["assoc_noop"]), "ratio"),
        "sampler.update_states.accept_ratio": (
            _ratio(acc["state_accepted"], acc["state_proposed"]), "ratio"),
        "sampler.update_state_row.accept_ratio": (
            _ratio(acc["row_accepted"], acc["row_proposed"]), "ratio"),
        "sampler.update_trans.accept_ratio": (
            _ratio(acc["trans_accepted"], acc["trans_proposed"]), "ratio"),
        "sampler.log_posterior.us": (per_call("sampler.log_posterior", 1e6), "us"),
        "sampler.run_chain.self_us": (get("sampler.run_chain", "self_s") / it * 1e6, "us"),
        "likelihood.collapsed_loglik_from_parts.calls": (
            get("likelihood.collapsed_loglik_from_parts", "calls") / it, "1/sweep"),
        "likelihood.collapsed_loglik_from_parts.us": (
            per_call("likelihood.collapsed_loglik_from_parts", 1e6), "us"),
        "likelihood.log_emission.us": (per_call("likelihood.log_emission", 1e6), "us"),
        "likelihood.log_state_prior.us": (per_call("likelihood.log_state_prior", 1e6), "us"),
        "priors.mixture_weights.calls": (get("priors.mixture_weights", "calls") / it, "1/sweep"),
        "priors.mixture_weights.us": (per_call("priors.mixture_weights", 1e6), "us"),
        "priors.log_assoc_prior.us": (per_call("priors.log_assoc_prior", 1e6), "us"),
        "model.validate.s": (per_call("model.validate"), "s"),
        "matrixio.read_matrix_tsv.s": (get("matrixio.read_matrix_tsv", "total_s"), "s"),
        "matrixio.read_matrix_tsv.bytes": (get("matrixio.read_matrix_tsv", "bytes"), "bytes"),
        "matrixio.write_matrix_tsv.s": (get("matrixio.write_matrix_tsv", "total_s"), "s"),
        "matrixio.write_matrix_tsv.bytes": (get("matrixio.write_matrix_tsv", "bytes"), "bytes"),
        "matrixio.save_checkpoint.s": (per_call("matrixio.save_checkpoint"), "s"),
        "matrixio.save_checkpoint.bytes": (
            _ratio(get("matrixio.save_checkpoint", "bytes"), get("matrixio.save_checkpoint", "calls")),
            "bytes"),
        "inference.summarize.s": (per_call("inference.summarize"), "s"),
        "diagnostics.geweke.s": (get("diagnostics.geweke", "total_s"), "s"),
        "diagnostics.heidelberger_welch.s": (get("diagnostics.heidelberger_welch", "total_s"), "s"),
        "cli.cmd_fit.self_s": (get("cli.cmd_fit", "self_s"), "s"),
        "cli.cmd_summarize.self_s": (get("cli.cmd_summarize", "self_s"), "s"),
        "trace.span_coverage": (
            recorder.self_seconds_within(t0, t1, CATCH_ALL) / (t1 - t0), "ratio"),
    })
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload_name]
    work = os.path.join(OUT_DIR, f"{w.name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}")
    os.makedirs(work)
    data_dir = os.path.join(work, "data")
    with open(os.path.join(work, "cli.log"), "w", encoding="utf-8") as log:
        with redirect_stderr(log):
            w.make_dataset(data_dir)
        once = setup_timer(w, data_dir, seed)
        recorder = tracing.Recorder() if trace else None
        setup: list[float] = []
        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            k = len(rounds)
            setup += [once() for _ in range(w.setup_calls)]
            traced = trace and k % 2 == 1
            if traced:
                recorder.reset()
            dirs = RoundDirs(
                w, data_dir, os.path.join(work, f"r{k}", "fit"), os.path.join(work, f"r{k}", "post")
            )
            reference = rounds[0]["digests"] if rounds else None
            result = run_round(dirs, seed, reference, recorder if traced else None, log)
            result["traced"] = traced
            rounds.append(result)
            now = time.perf_counter()
            # stop once another round of this length would end more than
            # half a round after the deadline
            if k >= 1 and (now - start) + 0.5 * (now - round_start) >= seconds:
                break
    failures = [f"round {k} {name}: {msg}" for k, r in enumerate(rounds) for name, msg in r["ops"] if msg]
    attempted = sum(len(r["ops"]) for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    if trace:
        recorder.save(os.path.join(OUT_DIR, f"trace-{w.name}-seed{seed}.npz"))
        traced_rounds = [r for r in rounds if r["traced"]]
        names = list(traced_rounds[0]["layers"])
        metrics = {
            name: {
                "value": statistics.median(r["layers"][name][0] for r in traced_rounds),
                "unit": traced_rounds[0]["layers"][name][1],
            }
            for name in names
        }
        metrics["trace.overhead_ginstr"] = {
            "value": (statistics.median(r["fit_instr"] for r in traced_rounds)
                      - statistics.median(r["fit_instr"] for r in plain)) / 1e9,
            "unit": "Ginstr",
        }
        metrics["fit.wall_s"] = {"value": statistics.median(r["fit_s"] for r in plain), "unit": "s"}
        metrics["post.wall_s"] = {
            "value": statistics.median(t for r in plain for t in r["post_s"]), "unit": "s"
        }
    else:
        metrics = {
            # the lowest tenth of the calls: the calls that other tenants'
            # load slowed least
            "setup_s": {"value": statistics.quantiles(setup, n=10)[0], "unit": "s"},
            "fit_ginstr": {
                "value": statistics.median(r["fit_instr"] for r in plain) / 1e9, "unit": "Ginstr"
            },
            "post_ginstr": {
                "value": statistics.median(i for r in plain for i in r["post_instr"]) / 1e9,
                "unit": "Ginstr",
            },
            "peak_rss_mb": {"value": rounds[0]["rss_mb"], "unit": "MB"},
        }
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        print(f"cnvlink messages and outputs kept in {work}", file=sys.stderr)
    else:
        shutil.rmtree(work)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
