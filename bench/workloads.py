"""Seeded workload inputs, the calls they make, and the checks on each output.

A workload is a list of ``Op``s: one public call into ``windowcert`` each.
The timed loop runs the whole list per pass, in the same seeded order every
pass, so every pass has the same mix and quantiles and shares do not depend
on where the clock stopped.

Calls go through module attributes looked up at call time
(``certify.pipeline``, ``cli.main``) so that the traced run, which rebinds
those attributes, sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

import windowcert.cli as cli
from windowcert import certify
from windowcert.signal import WindowData
from windowcert.synth import add_multiplicative_noise, case_a_fixture, case_b_fixture

GOLDEN_PATH = Path(__file__).with_name("golden.json")
PRIME = 10**9 + 7

# Noise levels of certify_fixtures; eps_bound raises above eps0 = 1e-2.
FIXTURE_EPS = (0.0, 1e-6, 1e-4, 1e-3, 1e-2)
FIXTURE_DRAWS = 100  # noisy redraws per (case, eps)
CONSTANT_DRAWS = 40  # constant d=1 inputs per eps

WITNESS_DEGREES = (3, 6, 10, 16)
WITNESS_BLOCKS = (8, 16, 32, 64)
WITNESS_POOL = 16  # points per degree, recorded in golden.json
# search_witness on a small box, where some trials are singular.
SEARCH = {"d": 2, "W": 3, "bound": 1, "max_trials": 3}
SEARCH_POOL = 64  # search seeds 0..63

# Exit stages of pipeline, in the order the pipeline reaches them.
EXIT_STAGES = (
    "hankel_singular",
    "repeated_nodes",
    "zero_node",
    "complex_nodes",
    "zero_amplitude",
    "positivity",
    "lipschitz_singular",
    "neutral_inconsistent",
    "zero",
    "nonzero",
    "other",
)


def exit_stage(report) -> str:
    """Stage that decided a CertReport: its verdict or its earliest flag."""
    if report.decision.value in ("zero", "nonzero"):
        return report.decision.value
    for stage in EXIT_STAGES[:-3]:
        if stage in report.flags:
            return stage
    return "other"


class Op:
    """One call: ``run()`` returns its result, ``check(result)`` returns an
    error message or None, and ``verdict(result)`` is True/False for a
    conclusive/inconclusive verdict, or None for calls that issue none."""

    __slots__ = ("kind", "run", "check", "verdict")

    def __init__(self, kind, run, check, verdict=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.verdict = verdict or (lambda result: None)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


# --------------------------------------------------------------- pipeline


def _conclusive(report) -> bool:
    return report.decision.value in ("zero", "nonzero")


def _pipeline_op(w: WindowData, d: int, eps: float, constant: bool) -> Op:
    def run():
        return certify.pipeline(w, d, noise_eps=eps)

    def check(report):
        if report.decision.value == "zero" and not constant:
            return "zero verdict on a non-constant configuration"
        if constant and eps == 0.0 and report.decision.value != "zero":
            return f"exactly constant windows gave {report.decision.value}"
        return None

    return Op("pipeline", run, check, _conclusive)


def _fixture_windows(fixture, eps: float, noise_seed: int) -> WindowData:
    sums = add_multiplicative_noise(fixture.true_windows, eps, noise_seed)
    return WindowData(tuple(float(s) for s in sums), fixture.W, len(sums))


def _constant_windows(rng: np.random.Generator, eps: float) -> WindowData:
    """Constant positive signal, window sums perturbed by at most eps."""
    level = rng.uniform(0.5, 5.0)
    W = int(rng.integers(4, 17))
    K = int(rng.integers(4, 13))
    sums = W * level + eps * rng.uniform(-1.0, 1.0, K)
    return WindowData(tuple(float(s) for s in sums), W, K)


def certify_fixtures(seed: int, workdir: Path) -> list:
    rng = _rng(seed, 1)
    ops = []
    for fixture in (case_a_fixture(), case_b_fixture()):
        for eps in FIXTURE_EPS:
            for _ in range(FIXTURE_DRAWS):
                w = _fixture_windows(fixture, eps, int(rng.integers(2**31)))
                ops.append(_pipeline_op(w, fixture.d, eps, constant=False))
    for eps in FIXTURE_EPS:
        for _ in range(CONSTANT_DRAWS):
            ops.append(_pipeline_op(_constant_windows(rng, eps), 1, eps, constant=True))
    return ops


# ----------------------------------------------------------- rank certificates


def witness_key(d: int, W: int, pi) -> str:
    return f"{d}|{W}|{' '.join(str(v) for v in pi)}"


def search_key(search_seed: int) -> str:
    return "{d}|{W}|{bound}|{max_trials}|".format(**SEARCH) + str(search_seed)


def _search_seeds(golden: dict, rng: random.Random, found: int, exhausted: int) -> list:
    """Seeds from the recorded pool: ``found`` whose search finds a witness
    and ``exhausted`` whose search runs out of trials, so that the outcome mix
    of a pass, and with it its cost, is the same for every workload seed."""
    outcome = {s: golden["search"][search_key(s)] is not None for s in range(SEARCH_POOL)}
    hits = [s for s in range(SEARCH_POOL) if outcome[s]]
    misses = [s for s in range(SEARCH_POOL) if not outcome[s]]
    return rng.sample(hits, found) + rng.sample(misses, exhausted)


# ---------------------------------------------------------------------- cli


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


_DISCARD = _Discard()


def _cli_op(kind: str, argv: list, check, out: Path | None = None, verdict=None) -> Op:
    def run():
        if out is not None and out.exists():
            out.unlink()
        with contextlib.redirect_stdout(_DISCARD), contextlib.redirect_stderr(_DISCARD):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv as the CLI process would
                return exc.code

    return Op(kind, run, check, verdict)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def _write_windows(path: Path, w: WindowData) -> Path:
    path.write_text(w.to_json())
    return path


def cli_roundtrip(seed: int, workdir: Path) -> list:
    """101 commands per pass: certify x48, reconstruct x8, windows x10,
    witness x17 (the committed witness and one seeded point per cell of the
    d x W grid), witness --search x6 (three find a witness, three run out),
    synth x8 and malformed input x4."""
    rng = _rng(seed, 4)
    prng = random.Random(seed)
    golden = load_golden()
    case_a, case_b = case_a_fixture(), case_b_fixture()
    ops = []

    def certify_cmd(w: WindowData, d: int, eps: float, constant: bool, i: int):
        src = _write_windows(workdir / f"certify{i}.json", w)
        out = workdir / f"certify{i}.out.json"
        argv = ["certify", str(src), "-d", str(d), "--noise-eps", repr(eps), "--out", str(out)]

        def check(code):
            obj = _read_json(out)
            if obj is None:
                return f"certify exit {code} wrote no report"
            expected = {"zero": 0, "nonzero": 1, "inconclusive": 3}[obj["decision"]]
            if code != expected:
                return f"certify exit {code} contradicts decision {obj['decision']}"
            if obj["decision"] == "zero" and not constant:
                return "zero verdict on a non-constant configuration"
            if constant and eps == 0.0 and obj["decision"] != "zero":
                return f"exactly constant windows gave {obj['decision']}"
            return None

        return _cli_op("cli.certify", argv, check, out, lambda code: code in (0, 1))

    # Verdict classes chosen so that the pass mix does not depend on the draw:
    # true windows (nonzero), case A at 1e-6 (inconclusive), case B at 1e-6
    # (nonzero) and exactly constant windows (zero).
    certify_inputs = (
        [(case_a, 0.0)] * 9 + [(case_a, 1e-6)] * 12 + [(case_b, 0.0)] * 9 + [(case_b, 1e-6)] * 6
    )
    for i, (fixture, eps) in enumerate(certify_inputs):
        w = _fixture_windows(fixture, eps, int(rng.integers(2**31)))
        ops.append(certify_cmd(w, fixture.d, eps, False, i))
    for i in range(12):
        ops.append(certify_cmd(_constant_windows(rng, 0.0), 1, 0.0, True, 100 + i))

    for i, fixture in enumerate((case_a, case_b) * 4):
        w = _fixture_windows(fixture, 1e-3, int(rng.integers(2**31)))
        src = _write_windows(workdir / f"reconstruct{i}.json", w)
        out = workdir / f"reconstruct{i}.out.json"

        def check(code, out=out):
            obj = _read_json(out)
            if obj is None:
                return f"reconstruct exit {code} wrote no model"
            if code != (1 if obj["flags"] else 0):
                return f"reconstruct exit {code} contradicts flags {obj['flags']}"
            return None

        argv = ["reconstruct", str(src), "-d", str(fixture.d), "--out", str(out)]
        ops.append(_cli_op("cli.reconstruct", argv, check, out))

    for i in range(10):
        pi = golden["pool"]["3"][prng.randrange(WITNESS_POOL)]
        out = workdir / f"windows{i}.out.json"
        expected = [float(s) for s in golden["window_sums"][witness_key(3, 8, pi)]]

        def check(code, out=out, expected=expected):
            obj = _read_json(out)
            if code != 0 or obj is None:
                return f"windows exit {code}"
            if obj["sums"] != expected:
                return "windows sums differ from the exact sums"
            return None

        argv = ["windows", "-d", "3", "-W", "8", "-K", "7",
                "--pi0", " ".join(map(str, pi)), "--out", str(out)]
        ops.append(_cli_op("cli.windows", argv, check, out))

    def witness_check(out: Path, expected):
        def check(code):
            obj = _read_json(out)
            if code == 3:
                if obj is None and expected is None:
                    return None
                return "search exit 3 but golden has a witness"
            if obj is None:
                return f"witness exit {code} wrote no certificate"
            if code != (0 if obj["nonzero"] else 1):
                return f"witness exit {code} contradicts nonzero={obj['nonzero']}"
            if obj["det_mod_p"] != expected:
                return f"witness residue {obj['det_mod_p']} != golden {expected}"
            return None

        return check

    def witness_cmd(d: int, W: int, pi, name: str, check_of):
        out = workdir / f"{name}.out.json"
        argv = ["witness", "-d", str(d), "-W", str(W),
                "--pi0", " ".join(map(str, pi)), "--out", str(out)]
        ops.append(_cli_op("cli.witness", argv, check_of(out), out))

    for d in WITNESS_DEGREES:
        for W in WITNESS_BLOCKS:
            pi = golden["pool"][str(d)][prng.randrange(WITNESS_POOL)]
            expected = golden["witness"][witness_key(d, W, pi)]
            witness_cmd(d, W, pi, f"witness-d{d}-W{W}", lambda out, e=expected: witness_check(out, e))

    ref = golden["committed"]

    def committed_check(out: Path):
        residue = witness_check(out, ref["det_mod_p"])

        def check(code):
            obj = _read_json(out)
            if obj is not None and obj["jacobian"] != ref["jacobian"]:
                return "committed witness Jacobian differs from the reference"
            return residue(code)

        return check

    witness_cmd(ref["d"], ref["W"], ref["pi0"], "committed", committed_check)

    for i, search_seed in enumerate(_search_seeds(golden, prng, 3, 3)):
        out = workdir / f"search{i}.out.json"
        argv = [
            "witness", "-d", str(SEARCH["d"]), "-W", str(SEARCH["W"]), "--search",
            "--bound", str(SEARCH["bound"]), "--max-trials", str(SEARCH["max_trials"]),
            "--seed", str(search_seed), "--out", str(out),
        ]
        check = witness_check(out, golden["search"][search_key(search_seed)])
        ops.append(_cli_op("cli.witness", argv, check, out))

    for i in range(4):
        out = workdir / f"case{i}.csv"

        def synth_check(code, out=out):
            return None if code == 0 and out.exists() else f"synth exit {code}"

        case = prng.choice(("case-a", "case-b"))
        ops.append(_cli_op("cli.synth", ["synth", case, "--out", str(out)], synth_check, out))
        prefix = workdir / f"collision{i}"
        argv = ["synth", "collision", "-d", "3", "-W", "8", "-K", "11", "--out", str(prefix)]
        check = lambda code: f"collision exit {code}" if code else None  # noqa: E731
        ops.append(_cli_op("cli.synth", argv, check))

    malformed = (
        "{\"W\": 8, \"K\": 3, \"sums\": [1.0, 2.0,",
        json.dumps({"W": 0, "K": 2, "sums": [1.0, 2.0]}),
    )
    for i, text in enumerate(malformed * 2):
        src = workdir / f"malformed{i}.json"
        src.write_text(text)
        argv = ["certify", str(src), "-d", "1", "--out", str(workdir / "malformed.out.json")]
        check = lambda code: None if code == 2 else f"malformed input exit {code}"  # noqa: E731
        ops.append(_cli_op("cli.malformed", argv, check))

    prng.shuffle(ops)
    return ops


BUILDERS = {"certify_fixtures": certify_fixtures, "cli_roundtrip": cli_roundtrip}


def verdict_table() -> dict:
    """ROADMAP item 2's verdict-rate table: noise seeds 0-199, declared
    noise equal to the noise level. Returns {row: {exit stage: count}}."""
    rows = {}
    for name, fixture, level in (
        ("case_a_eps1e-2", case_a_fixture(), 1e-2),
        ("case_b_eps1e-3", case_b_fixture(), 1e-3),
    ):
        counts = dict.fromkeys(EXIT_STAGES, 0)
        for noise_seed in range(200):
            w = _fixture_windows(fixture, level, noise_seed)
            counts[exit_stage(certify.pipeline(w, fixture.d, noise_eps=level))] += 1
        rows[name] = counts
    return rows
