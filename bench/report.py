"""Repeat the benchmark over several seeds and print its figures as Markdown.

    python3 bench/report.py

For every workload of ``BENCHMARK.json`` this runs ``bench/run.py`` for
``run_seconds`` with ``--trace 0`` on seeds 0-9 and with ``--trace 1`` on
seeds 0-2. It then prints each end-to-end metric's median, quartiles and
spread (the distance between the quartiles as a share of the median, as
``statistics.quantiles(n=4)`` gives them) next to its bound, and each
per-layer metric's median. The raw results go to ``bench/out/report.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

SEEDS = 10
TRACE_SEEDS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    print(f"<!-- {workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()) + " -->", file=sys.stderr)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    raw: dict = {}
    for w in workloads:
        plain = [run_once(w, s, seconds, 0) for s in range(SEEDS)]
        traced = [run_once(w, s, seconds, 1) for s in range(TRACE_SEEDS)]
        raw[w] = {"trace0": plain, "trace1": traced}
        print(f"\n### `{w}` ({SEEDS} runs of {seconds} s, seeds 0-{SEEDS - 1})\n")
        ops = plain[0]
        print(f"Operations per run: {ops['attempted']} attempted, {ops['failed']} failed "
              f"(first run).\n")
        print("| metric | unit | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name in plain[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in plain]
            med, q1, q3, sp = spread(values)
            print(f"| `{name}` | {plain[0]['metrics'][name]['unit']} | {med:.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {sp:.1%} | {bounds[name]:.0%} |")
        print(f"\nPer layer, median of {TRACE_SEEDS} traced runs:\n")
        print("| metric | unit | median |")
        print("|---|---|---|")
        for name in traced[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in traced]
            print(f"| `{name}` | {traced[0]['metrics'][name]['unit']} | "
                  f"{statistics.median(values):.4g} |")
    os.makedirs(os.path.join("bench", "out"), exist_ok=True)
    with open(os.path.join("bench", "out", "report.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
