"""Benchmark of ``cnvlink fit``, ``summarize`` and ``diagnose``, end to end.

Usage, from the root of a checkout::

    python3 bench/run.py --workload toy --seed 0 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, one after another

Each workload runs in a child process (``bench/harness.py``) with numpy's
BLAS pinned to one thread and a fixed string-hash seed. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without ``--workload`` the last line
carries the summed counts and every workload's metrics under
``<workload>.<metric>``. The exit code is 0 only when every operation
succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("toy", "acceptance", "paper")
CHILD_TIMEOUT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, os.path.join("bench", "harness.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: harness exited {proc.returncode} without a result", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cnvlink end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0, help="offset of the chain seeds")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds for this long (at least two rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports the per-layer metrics of a traced run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cnvlink", "cli.py")):
        print("run from the root of a cnvlink checkout: src/cnvlink/cli.py not found",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        out = results[args.workload]
    else:
        out = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": v
                for name, r in results.items() for metric, v in r["metrics"].items()
            },
        }
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
