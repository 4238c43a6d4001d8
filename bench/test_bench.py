"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

Runs every workload's traced run twice with one seed and checks that the
count metrics repeat exactly and that no output check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from run import WORKLOADS  # noqa: E402

# Metrics that come from counts, not clocks.
TIME_DERIVED = {
    "rankcert.jacobian.float.pipeline_share",
    "cli.main.certify_self_share",
    "trace.overhead_share",
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = (_result(_run(ROOT, *args)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    counted = [
        name
        for name, m in first["metrics"].items()
        if m["unit"] in ("count", "bits", "ratio", "lines") and name not in TIME_DERIVED
    ]
    assert "rankcert.jacobian.exact.max_entry_bits" in counted
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_verdict_table_rows_are_whole_and_sound():
    for row, counts in wl.verdict_table().items():
        assert sum(counts.values()) == 200, row
        assert counts["zero"] == 0, row


def test_end_to_end_run_reports_declared_metrics():
    args = ("--workload", "cli_roundtrip", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(_run(ROOT, *args))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")


def test_golden_table_covers_every_input():
    golden = wl.load_golden()
    for d in wl.WITNESS_DEGREES:
        assert len(golden["pool"][str(d)]) == wl.WITNESS_POOL
        for pi in golden["pool"][str(d)]:
            for W in wl.WITNESS_BLOCKS:
                assert wl.witness_key(d, W, pi) in golden["witness"]
    assert all(wl.search_key(s) in golden["search"] for s in range(wl.SEARCH_POOL))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    args = ("--workload", "certify_fixtures", "--seed", "1", "--seconds", "1", "--trace", "0")
    proc = _run(tmp_path, *args)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
