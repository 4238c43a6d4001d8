"""Run one windowcert benchmark workload and print its metrics.

    python3 bench/run.py --workload certify_fixtures --seed 1 --seconds 20 --trace 0

Each workload runs in its own process as a closed loop with a single caller:
one call at a time, one thread, BLAS pinned to one thread. Set-up time is the
median over SETUP_PROBES fresh processes and the workload process itself.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer ones
(see bench/README.md). Every metric is printed by name with its unit; the
last line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("certify_fixtures", "cli_roundtrip")
SETUP_PROBES = 8
BUDGET_S = 170.0  # the whole run, set-up probes included


def _env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run the worker to completion and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=WORKER.parent.parent,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        # Half the set-up probes run before the workload and half after, so
        # that they sample the machine at both ends of the run.
        setups = [_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
        result = _worker(common + ["--trace", str(args.trace)], deadline)
        setups += [_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()}
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    env = result["env"]
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    timed = f" ({result['timed']})" if result["timed"] else ""
    print(f"calls: {result['calls']} timed{timed}, {result['calls_per_pass']} per pass; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        print(f"{name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    correct = result["failed"] == 0 and result["calls"] >= 100
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
