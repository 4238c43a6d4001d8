"""Workload process: import the package from this checkout, build one
workload's inputs and run its closed loop. ``run.py`` starts it; it prints
one JSON object as its last line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SRC_MODULES = (
    "__init__", "certify", "cli", "cost", "loggeom", "prony", "rankcert", "signal", "synth"
)
MIN_CALLS = 100  # calls per pass: at least 10 samples beyond p90


def _import_package():
    """Import windowcert from SRC and nowhere else."""
    sys.path.insert(0, str(SRC))
    import windowcert
    import windowcert.cli  # noqa: F401  (brings jsonschema, as the CLI does)

    if Path(windowcert.__file__).resolve().parent != (SRC / "windowcert").resolve():
        raise SystemExit(f"windowcert imported from {windowcert.__file__}, not from {SRC}")


class Loop:
    """Outcome of a closed loop: per-call latencies, failures, verdicts."""

    def __init__(self):
        self.latencies = []
        self.passes = 0
        self.failures = []
        self.verdicts = 0
        self.conclusive = 0

    def run_pass(self, ops):
        clock = time.perf_counter
        for op in ops:
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # an unexpected exception is a failed call
                self.latencies.append(clock() - start)
                self.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            self.latencies.append(clock() - start)
            try:
                error = op.check(result)
                verdict = op.verdict(result)
            except Exception as exc:  # output not in the shape the check reads
                error, verdict = f"unreadable output: {type(exc).__name__}: {exc}", None
            if error:
                self.failures.append(f"{op.kind}: {error}")
            if verdict is not None:
                self.verdicts += 1
                self.conclusive += bool(verdict)
        self.passes += 1

    def fastest(self) -> list:
        """Each call's fastest timing over the passes. Every pass repeats the
        same calls, so this keeps the workload's mix while dropping time that
        other tenants of a shared machine added; that noise only ever adds
        time."""
        n = len(self.latencies) // self.passes
        return [min(self.latencies[i::n]) for i in range(n)]

    def best_rate(self) -> float:
        """Calls per second of a pass made of each call's fastest timing."""
        fastest = self.fastest()
        return len(fastest) / sum(fastest)


def closed_loop(ops, seconds: float) -> Loop:
    """Run whole passes over ``ops``, one call at a time, until ``seconds``
    have passed."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        loop.run_pass(ops)
        if time.perf_counter() - start >= seconds:
            return loop


def _end_to_end(loop: Loop) -> dict:
    q = statistics.quantiles(loop.fastest(), n=100)
    return {
        "latency_p50_ms": (q[49] * 1e3, "ms"),
        "latency_p90_ms": (q[89] * 1e3, "ms"),
        "ops_per_s": (loop.best_rate(), "1/s"),
        "conclusive_share": (loop.conclusive / loop.verdicts if loop.verdicts else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _src_loc() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "windowcert").glob("*.py")):
        lines = path.read_text().count("\n")
        total += lines
        if path.stem in SRC_MODULES:
            out[f"{path.stem.strip('_')}.src_loc"] = (lines, "lines")
    for module in SRC_MODULES:
        out.setdefault(f"{module.strip('_')}.src_loc", (0, "lines"))
    out["src_loc.total"] = (total, "lines")
    return out


def _traced_run(workloads, ops, seconds: float, trace_path: Path):
    import tracing

    metrics = {}
    attempted, failures = 0, []
    for row, counts in workloads.verdict_table().items():
        if counts["zero"]:
            failures.append(f"verdict table {row}: {counts['zero']} zero verdicts, none allowed")
        if sum(counts.values()) != 200:
            failures.append(f"verdict table {row}: row sums to {sum(counts.values())}")
        attempted += 200
        for stage, n in counts.items():
            metrics[f"verdicts.{row}.{stage}"] = (n, "count")

    untraced = closed_loop(ops, seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        counted = Loop()
        tracer.counting = True
        counted.run_pass(ops)
        tracer.counting = False
        tracer.spans.clear()
        traced = closed_loop(ops, seconds / 2)
    finally:
        tracer.uninstall()

    for loop in (untraced, counted, traced):
        attempted += len(loop.latencies)
        failures += loop.failures
    n_ops = len(traced.latencies)
    metrics.update(tracing.count_metrics(tracer.counts))
    metrics.update(tracing.layer_metrics(tracer.spans, n_ops))
    metrics.update(_src_loc())
    metrics["trace.overhead_share"] = (1.0 - traced.best_rate() / untraced.best_rate(), "ratio")

    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    trace_path.write_text(
        json.dumps(
            {
                "fields": ["name", "parent", "start_ns", "end_ns", "key"],
                "names": names,
                "spans": [[index[n], p, a, b, k] for n, p, a, b, k in tracer.spans],
            },
            separators=(",", ":"),
        )
    )
    return metrics, attempted, failures, n_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    _import_package()
    import numpy
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        if len(ops) < MIN_CALLS:
            raise SystemExit(f"{args.workload} has {len(ops)} calls per pass, fewer than {MIN_CALLS}")
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s}
        if not args.setup_only:
            # One untimed pass first, so that lazy imports and first-call
            # set-up inside the package are not timed; its outputs are checked.
            warm = Loop()
            warm.run_pass(ops)
            if args.trace:
                trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
                traced = _traced_run(workloads, ops, args.seconds, trace_path)
                metrics, attempted, failures, calls = traced
                timed = None
            else:
                loop = closed_loop(ops, args.seconds)
                metrics = _end_to_end(loop)
                attempted, failures, calls = len(loop.latencies), loop.failures, len(loop.latencies)
                timed = f"{loop.passes} passes; timings from each call's fastest"
            attempted += len(warm.latencies)
            failures = warm.failures + failures
            result.update(
                attempted=attempted,
                failed=len(failures),
                failures=failures[:20],
                calls=calls,
                calls_per_pass=len(ops),
                timed=timed,
                metrics=metrics,
                env={
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "nproc": len(os.sched_getaffinity(0)),
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "workload": args.workload,
                    "seed": args.seed,
                },
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
