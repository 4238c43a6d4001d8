"""Record bench/golden.json: the exact outputs the witness checks compare with.

Run from the repository root on the commit whose exact path is the reference:

    python3 bench/record_golden.py

The committed witness is copied from tests/reference_data.py; every other
residue is computed by the package's exact path.
"""
from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from windowcert.rankcert import certify_witness, search_witness  # noqa: E402
from windowcert.signal import RationalParams  # noqa: E402


def _window_map_regular(q) -> bool:
    """True when every root r of t^d + q_1 t^(d-1) + ... + q_d stays visible
    in the window sums at every grid W: the window nodes r^W are distinct and
    no block sum 1 + r + ... + r^(W-1) vanishes. Otherwise J is singular for
    every choice of initial values."""
    roots = np.roots([1.0] + [float(v) for v in q]).astype(complex)
    for W in wl.WITNESS_BLOCKS:
        nodes = roots**W
        scale = max(1.0, float(np.abs(nodes).max()))
        gaps = np.abs(nodes[:, None] - nodes[None, :]) + np.eye(len(nodes)) * scale
        block = np.array([np.sum(r ** np.arange(W)) for r in roots])
        if gaps.min() < 1e-9 * scale or np.abs(block).min() < 1e-9 * scale:
            return False
    return True


def witness_q(d: int) -> list:
    """Fixed recurrence of the witness pool at degree d.

    Holding q per degree keeps the size of the exact Jacobian entries, and so
    the cost of a grid cell, the same for every workload seed."""
    rng = random.Random(10_000 + d)
    while True:
        q = [rng.randint(-2, 2) for _ in range(d)]
        if q[-1] != 0 and _window_map_regular(q):
            return q


def witness_pool(d: int) -> list:
    """WITNESS_POOL integer points (y_0..y_d, q_1..q_d) at degree d."""
    rng = random.Random(20_000 + d)
    q = witness_q(d)
    return [[rng.randint(-5, 5) for _ in range(d + 1)] + q for _ in range(wl.WITNESS_POOL)]


def _reference_data():
    path = ROOT / "tests" / "reference_data.py"
    spec = importlib.util.spec_from_file_location("reference_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    ref = _reference_data()
    params = RationalParams.from_vector(ref.WITNESS_VECTOR, ref.WITNESS_D)
    committed = certify_witness(params, ref.WITNESS_D, ref.WITNESS_W, ref.PRIME)
    expected = (ref.WITNESS_JACOBIAN, ref.WITNESS_DET_RESIDUE)
    if (committed.jacobian, committed.det_residue) != expected:
        raise SystemExit("the exact path does not reproduce tests/reference_data.py")
    golden = {
        "prime": wl.PRIME,
        "committed": {
            "d": ref.WITNESS_D,
            "W": ref.WITNESS_W,
            "pi0": list(ref.WITNESS_VECTOR),
            "jacobian": [[str(v) for v in row] for row in ref.WITNESS_JACOBIAN],
            "det_mod_p": ref.WITNESS_DET_RESIDUE,
        },
        "pool": {str(d): witness_pool(d) for d in wl.WITNESS_DEGREES},
        "witness": {},
        "window_sums": {},
        "search": {},
    }
    for d in wl.WITNESS_DEGREES:
        for pi in golden["pool"][str(d)]:
            for W in wl.WITNESS_BLOCKS:
                cert = certify_witness(RationalParams.from_vector(pi, d), d, W, wl.PRIME)
                key = wl.witness_key(d, W, pi)
                golden["witness"][key] = cert.det_residue
                if d == 3 and W == 8:
                    golden["window_sums"][key] = [str(v) for v in cert.window_sums]
    for s in range(wl.SEARCH_POOL):
        cert = search_witness(
            wl.SEARCH["d"],
            wl.SEARCH["W"],
            coordinate_bound=wl.SEARCH["bound"],
            p=wl.PRIME,
            seed=s,
            max_trials=wl.SEARCH["max_trials"],
        )
        golden["search"][wl.search_key(s)] = None if cert is None else cert.det_residue
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    found = sum(v is not None for v in golden["search"].values())
    singular = sum(v == 0 for v in golden["witness"].values())
    print(f"wrote {wl.GOLDEN_PATH.name}: {len(golden['witness'])} witness residues "
          f"({singular} singular), searches {found} found / {wl.SEARCH_POOL - found} exhausted")


if __name__ == "__main__":
    main()
