import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import windowcert
from windowcert.certify import EPS0, eps_bound
from windowcert.cli import _emit_json, main
from windowcert.signal import WindowData

from reference_data import (
    PRIME,
    WITNESS_DET_RESIDUE,
    WITNESS_WINDOW_SUMS,
)
from test_certify import HOSTILE, INFINITE_AMPLITUDES, NEAR_CONSTANT, NEAR_HOSTILE

WITNESS_PI0 = "1 1 5 1 2 2 -2"
# A witness search with no trials: exit 3 and one warning line.
EXHAUSTED_SEARCH = ["witness", "-d", "2", "-W", "3", "--search", "--bound", "1",
                    "--max-trials", "0"]


def run_python(*args):
    """A fresh interpreter on ``args``, with the package's source on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(windowcert.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def write_windows(path, sums, W):
    path.write_text(
        json.dumps({"W": W, "K": len(sums), "sums": list(sums)})
    )
    return str(path)


class TestWindows:
    def test_witness_windows_exact(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        rc = main(
            ["windows", "-d", "3", "-W", "8", "-K", "7", "--pi0", WITNESS_PI0,
             "--out", str(out)]
        )
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["W"] == 8 and obj["K"] == 7
        assert tuple(obj["sums"]) == tuple(float(s) for s in WITNESS_WINDOW_SUMS)

    def test_stdout_default(self, capsys):
        rc = main(["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "1 1 -1"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["sums"] == [2.0, 2.0]

    def test_csv_suffix_writes_json(self, tmp_path, capsys):
        # The windows document has one encoding, whatever the path's suffix,
        # and certify reads it back from that path.
        out = tmp_path / "w.csv"
        rc = main(
            ["windows", "-d", "1", "-W", "2", "-K", "3", "--pi0", "1 2 -2",
             "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text()) == {"W": 2, "K": 3, "sums": [3.0, 12.0, 48.0]}
        assert main(["certify", str(out), "-d", "1"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert (report["decision"], report["W"], report["K"]) == ("nonzero", 2, 3)

    def test_fewer_samples_than_initial_values(self, capsys):
        # W * K = 2 samples take only y_0 and y_1 of the d = 3 point.
        rc = main(["windows", "-d", "3", "-W", "1", "-K", "2", "--pi0", WITNESS_PI0])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["sums"] == [1.0, 1.0]

    def test_bad_pi0_length(self):
        assert main(["windows", "-d", "2", "-W", "2", "-K", "5", "--pi0", "1 2 3"]) == 2

    def test_sequence_file_collision(self, tmp_path, capsys):
        # The collision pair agrees on the first K+1 = 12 windows and
        # differs in the next one, which holds its first two unit bumps.
        prefix = tmp_path / "coll"
        assert main(["synth", "collision", "-d", "3", "-W", "8", "-K", "11",
                     "--out", str(prefix)]) == 0
        sums = {}
        for name in ("in", "out"):
            out = tmp_path / f"{name}.json"
            rc = main(["windows", "-W", "8", "-K", "13", "--sequence-file",
                       f"{prefix}.{name}.csv", "--out", str(out)])
            assert rc == 0
            sums[name] = json.loads(out.read_text())["sums"]
        assert sums["in"][:12] == sums["out"][:12]
        assert sums["out"][12] == pytest.approx(sums["in"][12] + 2.0, rel=1e-12)

    def test_exact_mode_rejects_floats(self):
        rc = main(
            ["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "1.5 2 -1"]
        )
        assert rc == 2


class TestWitness:
    def test_reference_witness(self, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(
            ["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0, "--out", str(out)]
        )
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["det_mod_p"] == WITNESS_DET_RESIDUE
        assert obj["nonzero"] is True
        assert obj["p"] == PRIME
        assert obj["window_sums"] == [str(v) for v in WITNESS_WINDOW_SUMS]

    def test_singular_witness_exit_one(self, tmp_path):
        rc = main(
            ["witness", "-d", "1", "-W", "2", "--pi0", "1 1 0",
             "--out", str(tmp_path / "c.json")]
        )
        assert rc == 1

    def test_composite_prime_rejected(self):
        rc = main(
            ["witness", "-d", "1", "-W", "1", "--pi0", "1 1 -2", "--prime", "10"]
        )
        assert rc == 2

    @pytest.mark.parametrize("prime,message", [
        ("318665857834031151167461", "not prime"),  # a strong pseudoprime to 2..37
        ("3317044064679887385961981", "not deterministic"),  # and to 2..41
    ])
    def test_modulus_outside_deterministic_range(self, capsys, prime, message):
        argv = ["witness", "-d", "3", "-W", "8", "--pi0", "1 1 5 1 2 2 -2", "--prime", prime]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_search_finds(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["witness", "-d", "2", "-W", "3", "--search", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["nonzero"] is True

    def test_search_exhausted(self):
        rc = main(["witness", "-d", "2", "-W", "3", "--search", "--max-trials", "0"])
        assert rc == 3

    @pytest.mark.parametrize("seed,code", [("0", 0), ("1", 3)], ids=["found", "exhausted"])
    def test_search_options(self, capsys, seed, code):
        # The benchmark's search shape: seed 0 finds a witness within three
        # trials, seed 1 runs out, and the warning names the trial count.
        argv = ["witness", "-d", "2", "-W", "3", "--search", "--bound", "1",
                "--max-trials", "3", "--seed", seed]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err == ("WARNING windowcert: witness search exhausted after 3 trials\n"
                       if code else "")

    def test_missing_pi0(self):
        assert main(["witness", "-d", "1", "-W", "1"]) == 2


class TestReconstruct:
    def test_success(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2)
        out = tmp_path / "m.json"
        rc = main(["reconstruct", path, "-d", "2", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["nodes"] == pytest.approx([3.0, 2.0], rel=1e-12)
        assert obj["flags"] == []

    def test_degenerate_exit_one(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [1.0, 2.0, 4.0, 8.0], 2)
        rc = main(["reconstruct", path, "-d", "2", "--out", str(tmp_path / "m.json")])
        assert rc == 1

    def test_insufficient_windows(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [1.0, 2.0], 2)
        assert main(["reconstruct", path, "-d", "2"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reconstruct", str(bad), "-d", "1"]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["reconstruct", str(tmp_path / "nope.json"), "-d", "1"]) == 2

    def test_schema_violation_message(self, tmp_path, capsys):
        # Two bad sums, one reason; the same one on every call.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"W": 1, "K": 2, "sums": [[1.0], "x"]}))
        for _ in range(2):
            assert main(["reconstruct", str(bad), "-d", "1"]) == 2
            err = capsys.readouterr().err
            assert err == (
                f"error: malformed windows file {bad}: sums must be a list of numbers\n"
            )


class TestCertify:
    def test_neutral_zero_exit(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [8.0] * 7, 8)
        out = tmp_path / "r.json"
        rc = main(["certify", path, "-d", "1", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["decision"] == "zero"
        assert obj["bound_vacuous"] is False

    def test_case_a_nonzero_exit(self, tmp_path):
        from windowcert.synth import case_a_fixture

        fixture = case_a_fixture()
        path = write_windows(tmp_path / "w.json", fixture.true_windows, fixture.W)
        out = tmp_path / "r.json"
        rc = main(["certify", path, "-d", "3", "--out", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["decision"] == "nonzero"

    def test_degenerate_inconclusive_exit(self, tmp_path):
        # Within the noise of a constant, so the singular Hankel solve decides.
        path = write_windows(tmp_path / "w.json", [1e-3, 2e-3, 4e-3, 8e-3], 2)
        rc = main(["certify", path, "-d", "2", "--noise-eps", "1e-2",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 3

    def test_noise_beyond_regime(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [8.0] * 7, 8)
        assert main(["certify", path, "-d", "1", "--noise-eps", "0.5"]) == 2

    def test_constant_above_bound_exit(self, tmp_path, capsys):
        w, d, noise = NEAR_CONSTANT
        path = write_windows(tmp_path / "w.json", w.sums, w.block_length)
        assert main(["certify", path, "-d", str(d), "--noise-eps", repr(noise)]) == 3
        obj = json.loads(capsys.readouterr().out)
        assert (obj["decision"], obj["flags"]) == ("inconclusive", ["bound_exceeded"])


class TestSynth:
    @pytest.mark.parametrize("label,rows", [("case-a", 12), ("case-b", 8)])
    def test_case_csv(self, tmp_path, label, rows):
        from windowcert.synth import case_a_fixture, case_b_fixture

        out = tmp_path / "case.csv"
        rc = main(["synth", label, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,true,observed"
        assert len(lines) == rows + 1
        # Every field is decimal text, and the columns are the fixture's.
        fixture = case_a_fixture() if label == "case-a" else case_b_fixture()
        rows_read = [[float(v) for v in line.split(",")] for line in lines[1:]]
        k, true, observed = zip(*rows_read)
        assert k == tuple(range(rows))
        assert true == fixture.true_windows
        assert observed == fixture.observed_windows

    def test_collision_files(self, tmp_path, capsys):
        # -d 3 -W 8 -K 11 are the defaults: typed or not, the same files.
        written = []
        for args in (["-d", "3", "-W", "8", "-K", "11"], []):
            rc = main(["synth", "collision", *args, "--out", str(tmp_path / "coll")])
            assert rc == 0
            assert capsys.readouterr().out == "N=95\n"
            written.append([(tmp_path / f"coll.{name}.csv").read_bytes() for name in ("in", "out")])
        assert written[0] == written[1] and all(written[0])

    def test_unknown_target(self):
        assert main(["synth", "case-z"]) == 2


class TestRejectedInput:
    """Bad input exits 2 with one ``error:`` line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["windows", "-d", "3", "-W", "0", "-K", "2", "--pi0", WITNESS_PI0],
            ["windows", "-W", "2", "-K", "2"],
            ["windows", "-W", "2", "-K", "2", "--pi0", "1 1 -1"],
            # argparse's rejections take the same path: no usage block, no
            # SystemExit.
            [],
            ["verify", "w.json"],
            ["certify", "w.json", "-d", "1", "--strict"],
            ["witness", "-d", "1", "-W", "x", "--pi0", "1 1 -1"],
            # search_witness tests the modulus before the first trial.
            ["witness", "-d", "1", "-W", "2", "--search", "--prime", "10", "--max-trials", "0"],
            # A degree below 1, before any count of --pi0 or file written.
            pytest.param(["synth", "collision", "-d", "0", "--out", "{out}"], id="collision_d0"),
            pytest.param(["synth", "collision", "-d", "-5", "--out", "{out}"], id="collision_d-5"),
            pytest.param(["windows", "-d", "-1", "-W", "2", "-K", "2", "--pi0", "1"],
                         id="windows_d-1"),
            pytest.param(["witness", "-d", "-1", "-W", "2", "--pi0", "1"], id="witness_d-1"),
            pytest.param(["reconstruct", "{windows}", "-d", "0"], id="reconstruct_d0"),
            pytest.param(["certify", "{windows}", "-d", "-2"], id="certify_d-2"),
        ],
    )
    def test_bad_arguments(self, argv, tmp_path, capsys):
        windows = write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2)
        assert main([a.format(out=tmp_path / "out", windows=windows) for a in argv]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["w.json"]
        if "-d" in argv and int(argv[argv.index("-d") + 1]) < 1:
            assert err.startswith("error: d must be >= 1, got ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "5 5 -1",
             "--sequence-file", "{sequence}"],
            ["witness", "-d", "1", "-W", "2", "--pi0", "1 1 -1", "--search"],
        ],
        ids=["windows", "witness"],
    )
    def test_conflicting_inputs(self, tmp_path, capsys, argv):
        # Neither source is dropped in favour of the other.
        sequence = tmp_path / "y.txt"
        sequence.write_text("1.0 2.0 3.0 4.0")
        assert main([a.format(sequence=sequence) for a in argv]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert re.fullmatch(r"error: argument \S+: not allowed with argument \S+\n", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["windows", "-d", "7", "-W", "2", "-K", "2", "--sequence-file", "{sequence}"],
            ["witness", "-d", "1", "-W", "2", "--pi0", "1 1 -1", "--seed", "5", "--bound", "9",
             "--max-trials", "0"],
            ["synth", "case-a", "-d", "9", "-W", "1", "-K", "2", "--out", "{out}"],
            ["synth", "case-b", "-d", "9", "-W", "1", "-K", "2", "--out", "{out}"],
        ],
        ids=["windows", "witness", "case-a", "case-b"],
    )
    def test_option_the_mode_does_not_read(self, tmp_path, capsys, argv):
        # Each mode accepts only the options it reads, so none is dropped.
        sequence = tmp_path / "y.txt"
        sequence.write_text("1.0 2.0 3.0 4.0")
        out = tmp_path / "case.csv"
        assert main([a.format(sequence=sequence, out=out) for a in argv]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["windows", "-d", "1", "-W", str(10**20), "-K", "2", "--pi0", "1 1 -1"],
            ["witness", "-d", "1", "-W", str(10**20), "--pi0", "1 1 -1"],
        ],
        ids=["windows", "witness"],
    )
    def test_window_past_index_range(self, capsys, argv):
        # A W at or above 2^63 overflows a C ssize_t before any term is built.
        # A W such as 10^12 would build its W K terms first: never test one.
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert re.fullmatch(r"error: input too large for this machine \([^\n]+\)\n", err)

    def test_no_windows(self, capsys):
        # K = 0 is reported as such, not as a sequence too short for d.
        assert main(["windows", "-d", "3", "-W", "1", "-K", "0", "--pi0", WITNESS_PI0]) == 2
        assert capsys.readouterr().err == "error: W and K must be >= 1\n"

    def test_csv_windows_file(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("k,S_k\n0,2.0\n1,5.0\n")
        assert main(["certify", str(path), "-d", "1"]) == 2
        err = capsys.readouterr().err
        # The content, not the suffix, decides: this is not a windows document.
        assert err == (
            f"error: malformed windows file {path}: "
            "Expecting value: line 1 column 1 (char 0)\n"
        )

    @pytest.mark.parametrize("text", [None, "1.0 2.0 x 4.0"], ids=["missing", "non_numeric"])
    def test_bad_sequence_file(self, tmp_path, capsys, text):
        path = tmp_path / "y.txt"
        if text is not None:
            path.write_text(text)
        assert main(["windows", "-W", "2", "-K", "2", "--sequence-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed sequence file: ") and err.count("\n") == 1

    def test_zero_degree(self, tmp_path, capsys):
        path = write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2)
        assert main(["reconstruct", path, "-d", "0"]) == 2
        assert capsys.readouterr().err == "error: d must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["reconstruct", "certify"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_sums(self, tmp_path, capsys, command, literal):
        path = tmp_path / "w.json"
        path.write_text(f'{{"W": 2, "K": 4, "sums": [2.0, {literal}, 13.0, 35.0]}}')
        assert main([command, str(path), "-d", "2"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: malformed windows file {path}: window sums must be finite\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--config", "cfg.json"],
            ["--params-file", "p.json"],
            ["--mode", "float"],
            ["--prime", "7"],
            ["--seed", "1"],
        ],
    )
    def test_removed_options(self, extra, capsys):
        assert main(["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "1 1 -1", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "[2.0, 5.0]",
            '"W K sums"',
            '{"W": 2, "K": 2}',
            '{"W": 2.5, "K": 2, "sums": [2.0, 5.0]}',
            '{"W": true, "K": 2, "sums": [2.0, 5.0]}',
            '{"W": 2, "K": 2, "sums": ["x", 5.0]}',
            '{"W": 2, "K": 2, "sums": [true, 5.0]}',
            '{"W": 2, "K": 2, "sums": [[2.0], 5.0]}',
            # Beyond the JSON decoder's recursion limit: a RecursionError
            # escaping here would exit 1, the code of a nonzero verdict.
            "[" * 100000 + "]" * 100000,
            '{"W": 2, "K": 3, "sums": [1.0, 2.0]}',
            # UTF-16 with its byte-order mark \xff\xfe: RFC 8259 fixes UTF-8.
            b"\xff\xfe" + '{"W": 2, "K": 2, "sums": [2.0, 5.0]}'.encode("utf-16-le"),
        ],
        ids=["list", "string", "missing_sums", "W_fraction", "W_bool", "sum_string", "sum_bool",
             "sum_list", "deep_nesting", "K_mismatch", "utf16"],
    )
    def test_malformed_windows_file(self, tmp_path, capsys, text):
        path = tmp_path / "w.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["reconstruct", str(path), "-d", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed windows file {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_integral_float_and_extra_key_accepted(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"W": 8.0, "K": 2, "sums": [2.0, 5.0], "note": "x"}')
        assert main(["reconstruct", str(path), "-d", "1"]) == 0

    def test_window_sum_beyond_float_range(self, capsys):
        # The exact sums reach about 10^399, which no float holds.
        argv = ["windows", "-d", "1", "-W", "1", "-K", "400", "--pi0", "1 1 -10"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: a window sum exceeds the float range\n"
        )

    def test_witness_search_zero_degree(self, capsys):
        assert main(["witness", "-d", "0", "-W", "3", "--search"]) == 2
        assert capsys.readouterr().err == "error: d must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["reconstruct", "certify"])
    def test_integer_sum_beyond_float_range(self, tmp_path, capsys, command):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"W": 8, "K": 2, "sums": [10**400, 1.0]}))
        assert main([command, str(path), "-d", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed windows file {path}: "
            "a window sum exceeds the float range\n"
        )

    @pytest.mark.parametrize(
        "W,trials",
        [("0", "0"), ("0", "5"), ("3", "-1")],
        ids=["W0_trials0", "W0", "trials_negative"],
    )
    def test_witness_search_bad_window_or_trials(self, capsys, W, trials):
        argv = ["witness", "-d", "1", "-W", W, "--search", "--max-trials", trials]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: need W >= 1 and max_trials >= 0, got {W} and {trials}\n"

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["certify", "{windows}", "-d", "1", "--out", "{out}"], "{out}"),
            (["synth", "collision", "--out", "{out}"], "{out}.in.csv"),
        ],
        ids=["certify", "collision"],
    )
    def test_unwritable_out(self, tmp_path, capsys, argv, target):
        names = {
            "windows": write_windows(tmp_path / "w.json", [8.0] * 7, 8),
            "out": tmp_path / "missing" / "x",
        }
        assert main([a.format(**names) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target.format(**names)}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("eps", ["0.02", "0.5"])
    def test_noise_above_eps0_before_reconstruction(self, tmp_path, capsys, eps):
        # All-zero windows make the Hankel matrix singular, an inconclusive
        # verdict, if the declared noise is looked at only afterwards.
        path = write_windows(tmp_path / "w.json", [0.0] * 7, 8)
        assert main(["certify", path, "-d", "1", "--noise-eps", eps]) == 2
        err = capsys.readouterr().err
        assert err == f"error: noise_eps={eps} is outside [0, eps0=0.01]\n"

    @pytest.mark.parametrize(
        "exc",
        [MemoryError(), MemoryError("Unable to allocate 29.1 TiB for an array")],
        ids=["bare", "numpy_message"],
    )
    def test_refused_allocation(self, tmp_path, monkeypatch, capsys, exc):
        # Constant windows at W = 10^12 reach the zero path, which asks numpy
        # for W K samples.  A stand-in refuses the allocation: a real one of
        # some sizes gets the process killed instead of refused.
        def refuse(*args):
            raise exc

        monkeypatch.setattr("windowcert.certify.exponential_sum", refuse)
        path = write_windows(tmp_path / "w.json", [8.0] * 4, 10**12)
        assert main(["certify", path, "-d", "1"]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S[^\n]*\n", err)

    @pytest.mark.parametrize("level", ["ERROR", "verbose", "INFO"])
    def test_stderr_ignores_environment(self, tmp_path, monkeypatch, capsys, level):
        # No setting gates or adds a line: the exhausted search writes its one
        # warning, and a written --out file leaves stderr empty.
        monkeypatch.setenv("WINDOWCERT_LOG", level)
        assert main(EXHAUSTED_SEARCH) == 3
        assert capsys.readouterr() == (
            "", "WARNING windowcert: witness search exhausted after 0 trials\n"
        )
        out = str(tmp_path / "w.json")
        assert main(["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0, "--out", out]) == 0
        assert capsys.readouterr() == ("", "")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_vacuous_bound_is_null(self, tmp_path):
        # Within the noise of a constant at d = 2, where L is about 1e10: an
        # infinite bound certifies nothing, so the verdict is not zero.
        path = write_windows(tmp_path / "w.json", [8.0, 8.001, 8.0005, 8.0], 2)
        out = tmp_path / "r.json"
        assert main(["certify", path, "-d", "2", "--noise-eps", "1e-3", "--out", str(out)]) == 3
        obj = _strict_json(out.read_text())
        assert obj["threshold"] is None
        assert obj["bound_vacuous"] is True
        assert (obj["decision"], obj["flags"]) == ("inconclusive", ["bound_exceeded"])

    def test_degenerate_model_conditions_are_null(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [1.0, 2.0, 4.0, 8.0], 2)
        out = tmp_path / "m.json"
        assert main(["reconstruct", path, "-d", "2", "--out", str(out)]) == 1
        obj = _strict_json(out.read_text())
        assert obj["vandermonde_condition"] is None
        report = tmp_path / "r.json"
        # Far from the constants: nonzero, with the flagged model reported.
        assert main(["certify", path, "-d", "2", "--out", str(report)]) == 1
        obj = _strict_json(report.read_text())
        assert obj["model"]["vandermonde_condition"] is None
        assert obj["model"]["flags"] == ["hankel_singular"]
        assert obj["bound_vacuous"] is False

    @pytest.mark.parametrize("case", HOSTILE)
    def test_hostile_sums_are_flagged(self, tmp_path, capsys, case):
        # The flags are the model's: far from the constants, none of them
        # vetoes the nonzero verdict.
        sums, W, d, flags = case
        path = write_windows(tmp_path / "w.json", sums, W)
        assert main(["certify", path, "-d", str(d)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        obj = _strict_json(captured.out)
        assert (obj["decision"], obj["flags"], obj["model"]["flags"]) == ("nonzero", [], flags)

    @pytest.mark.parametrize("case", NEAR_HOSTILE, ids=["positivity", "lipschitz_singular"])
    def test_near_constant_hostile_sums_are_flagged(self, tmp_path, capsys, case):
        w, d, noise, flags = case
        path = write_windows(tmp_path / "w.json", w.sums, w.block_length)
        assert main(["certify", path, "-d", str(d), "--noise-eps", repr(noise)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        obj = _strict_json(captured.out)
        assert (obj["decision"], obj["flags"]) == ("inconclusive", flags)

    def test_infinite_amplitudes_are_null(self, tmp_path, capsys):
        # The Prony step flags the overflowed amplitudes, so reconstruct
        # exits 1; certify reports that model beside its nonzero verdict.
        sums, W, d, _ = INFINITE_AMPLITUDES
        path = write_windows(tmp_path / "w.json", sums, W)
        for command, code in (("certify", 1), ("reconstruct", 1)):
            assert main([command, path, "-d", str(d)]) == code
            captured = capsys.readouterr()
            assert captured.err == ""
            obj = _strict_json(captured.out)
            model = obj["model"] if command == "certify" else obj
            assert model["amplitudes"] == [None, None]

    def test_non_finite_output_refused(self, capsys):
        with pytest.raises(ValueError):
            _emit_json(
                {"decision": "zero", "flags": [], "bound_vacuous": True, "L": math.inf},
                None,
            )
        assert capsys.readouterr().out == ""


def _is_int(v):
    return type(v) is int


def _is_int_text(v):
    return isinstance(v, str) and re.fullmatch(r"-?[0-9]+", v) is not None


def _float_or_null(v):
    return v is None or isinstance(v, float)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _witness_or_null(v):
    return v is None or (
        isinstance(v, dict)
        and list(v) == ["k_max", "k_min", "margin"]
        and _is_int(v["k_max"])
        and _is_int(v["k_min"])
        and isinstance(v["margin"], float)
    )


def _real_or_complex(v):
    return isinstance(v, float) or (
        isinstance(v, dict)
        and set(v) == {"re", "im"}
        and all(isinstance(x, float) for x in v.values())
    )


MODEL_SHAPE = {
    "nodes": _list_of(_real_or_complex),
    "amplitudes": _list_of(_real_or_complex),
    "char_coeffs": _list_of(_real_or_complex),
    "hankel_condition": _float_or_null,
    "vandermonde_condition": _float_or_null,
    "flags": _list_of(lambda v: isinstance(v, str)),
}

DOCUMENT_SHAPES = {
    "windows": {
        "W": lambda v: _is_int(v) and v >= 1,
        "K": lambda v: _is_int(v) and v >= 1,
        "sums": _list_of(lambda v: isinstance(v, float)),
    },
    "witness": {
        "d": lambda v: _is_int(v) and v >= 1,
        "W": lambda v: _is_int(v) and v >= 1,
        "p": lambda v: _is_int(v) and v >= 2,
        "pi0": _list_of(_is_int),
        "window_sums": _list_of(_is_int_text),
        "jacobian": _list_of(_list_of(_is_int_text)),
        "det_mod_p": lambda v: _is_int(v) and v >= 0,
        "nonzero": lambda v: isinstance(v, bool),
        "exact": lambda v: isinstance(v, bool),
    },
    "reconstruct": MODEL_SHAPE,
    "certify": {
        "decision": lambda v: v in ("zero", "nonzero", "inconclusive"),
        "certificate_value": _float_or_null,
        "defect": _float_or_null,
        "threshold": _float_or_null,
        "bound_vacuous": lambda v: isinstance(v, bool),
        "L": _float_or_null,
        "noise_eps": lambda v: isinstance(v, float) and v >= 0.0,
        "eps0": lambda v: isinstance(v, float) and v > 0.0,
        "W": lambda v: _is_int(v) and v >= 1,
        "K": lambda v: _is_int(v) and v >= 1,
        "flags": _list_of(lambda v: isinstance(v, str)),
        "nonzero_witness": _witness_or_null,
        "model": lambda v: _has_shape(v, MODEL_SHAPE),
    },
}


def _has_shape(obj, shape):
    return (
        isinstance(obj, dict)
        and set(obj) == set(shape)
        and all(check(obj[key]) for key, check in shape.items())
    )


@pytest.mark.parametrize(
    "argv,code",
    [
        (["windows", "-d", "3", "-W", "8", "-K", "7", "--pi0", WITNESS_PI0], 0),
        (["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0], 0),
        (["witness", "-d", "2", "-W", "3", "--search"], 0),
        (["reconstruct", "{windows}", "-d", "2"], 0),
        (["reconstruct", "{degenerate}", "-d", "2"], 1),
        (["certify", "{windows}", "-d", "2"], 1),
        (["certify", "{degenerate}", "-d", "2"], 1),
        (["certify", "{constant}", "-d", "1"], 0),
        # Window-level steps at W = 8d and below W = d, and a modulus on each
        # side of det_mod's int64 bound, 2^31.
        (["witness", "-d", "3", "-W", "64", "--pi0", WITNESS_PI0], 0),
        (["witness", "-d", "3", "-W", "64", "--pi0", WITNESS_PI0, "--prime", str(2**61 - 1)], 0),
        (["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0, "--prime", str(2**31 - 1)], 0),
        (["witness", "-d", "6", "-W", "3", "--pi0", "2 -1 3 1 5 -4 2 1 -3 2 4 -1 3"], 0),
        (["reconstruct", "{complex}", "-d", "2"], 1),
    ],
    ids=["windows", "witness", "search", "reconstruct", "reconstruct_degenerate",
         "certify", "certify_degenerate", "certify_zero", "witness_W64", "witness_W64_p61",
         "witness_p31", "witness_d6_W3", "reconstruct_complex"],
)
def test_document_shape(tmp_path, capsys, argv, code):
    # The exit code, key set and value types of each document that the CLI
    # writes.
    paths = {
        "windows": write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2),
        "degenerate": write_windows(tmp_path / "g.json", [1.0, 2.0, 4.0, 8.0], 2),
        "constant": write_windows(tmp_path / "c.json", [8.0] * 7, 8),
        "complex": write_windows(tmp_path / "z.json", [1.0, 0.5, -1.0, -0.5, 1.0, 0.5], 2),
    }
    assert main([arg.format(**paths) for arg in argv]) == code
    out = capsys.readouterr().out
    obj = _strict_json(out)
    assert _has_shape(obj, DOCUMENT_SHAPES[argv[0]])
    # One line, written by json's compact encoder.
    assert out == json.dumps(obj, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["windows", "-d", "3", "-W", "8", "-K", "7", "--pi0", WITNESS_PI0],
        ["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0],
        ["certify", "{constant}", "-d", "1"],
        ["synth", "case-a"],
    ],
    ids=["windows", "witness", "certify", "synth"],
)
def test_out_file_matches_stdout(tmp_path, capsys, argv):
    argv = [a.format(constant=write_windows(tmp_path / "c.json", [8.0] * 7, 8)) for a in argv]
    code = main(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == stdout.encode()


class TestReusedParserAndValidators:
    def test_consecutive_calls_get_independent_arguments(self, tmp_path, capsys):
        path = write_windows(tmp_path / "w.json", [8.0] * 7, 8)
        report = tmp_path / "r.json"
        rc = main(["certify", path, "-d", "1", "--noise-eps", "1e-3", "--out", str(report)])
        assert rc == 0
        capsys.readouterr()
        # No --out, -d or --noise-eps carried over from the certify call.
        assert main(["witness", "-d", "1", "-W", "1", "--pi0", "1 1 -2"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["d"] == 1 and cert["det_mod_p"] == PRIME - 1
        assert json.loads(report.read_text())["threshold"] > 0.0
        assert main(["certify", path, "-d", "1", "--out", str(report)]) == 0
        assert json.loads(report.read_text())["threshold"] == 0.0

    def test_host_logger_untouched(self, tmp_path, monkeypatch, capsys):
        # main reads and sets no logging state: a host's windowcert logger
        # keeps its level and flags, and its DEBUG level adds no line.
        logger = logging.getLogger("windowcert")
        monkeypatch.setattr(logger, "level", logging.DEBUG)
        monkeypatch.setattr(logger, "propagate", False)
        assert main(EXHAUSTED_SEARCH) == 3
        out = str(tmp_path / "w.json")
        assert main(["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0, "--out", out]) == 0
        assert (logger.level, logger.propagate, logger.handlers) == (logging.DEBUG, False, [])
        assert capsys.readouterr().err == (
            "WARNING windowcert: witness search exhausted after 0 trials\n"
        )

    def test_records_do_not_propagate(self):
        # A host that configured the root logger gets the warning once, as
        # main writes it, and its windowcert logger still propagates.
        script = (
            "import logging\n"
            "from windowcert.cli import main\n"
            "logging.basicConfig(format='host: %(message)s')\n"
            f"assert main({EXHAUSTED_SEARCH!r}) == 3\n"
            "print(logging.getLogger('windowcert').propagate)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "WARNING windowcert: witness search exhausted after 0 trials\n"
        assert proc.stdout == "True\n"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0], 0),
        (["certify", "{geometric}", "-d", "1"], 1),
        (["witness", "-d", "1", "-W", "x", "--pi0", "1 1 -1"], 2),
        (EXHAUSTED_SEARCH, 3),
        (["--help"], 0),
    ],
    ids=["zero", "one", "two", "three", "help"],
)
def test_module_exit_status(tmp_path, argv, code):
    # python -m windowcert.cli exits with main's return value, and --help,
    # which argparse ends with SystemExit, with 0; stderr holds at most the
    # one line of an exit 2 or 3.
    geometric = write_windows(tmp_path / "w.json", [8.0, 4.0, 2.0, 1.0], 4)
    proc = run_python("-m", "windowcert.cli", *(a.format(geometric=geometric) for a in argv))
    assert proc.returncode == code, proc.stderr
    line = {2: r"error: [^\n]+\n", 3: r"WARNING windowcert: [^\n]+\n"}.get(code, "")
    assert re.fullmatch(line, proc.stderr)


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]], ids=["top", "certify"])
def test_help_returns_zero(capsys, argv):
    # In process, --help returns 0 like every other outcome returns its code,
    # with the usage on stdout.
    assert main(argv) == 0
    stdout, err = capsys.readouterr()
    assert stdout.startswith(" ".join(["usage: windowcert", *argv[:-1]]) + " ")
    assert err == ""


def test_roundtrip_windows_to_certify(tmp_path):
    # windows -> certify: a constant integer signal certifies as zero.
    wpath = tmp_path / "w.json"
    rc = main(["windows", "-d", "1", "-W", "3", "-K", "4", "--pi0", "2 2 -1",
               "--out", str(wpath)])
    assert rc == 0
    data = WindowData.from_dict(json.loads(wpath.read_text()))
    assert data.sums == (6.0, 6.0, 6.0, 6.0)
    assert main(["certify", str(wpath), "-d", "1"]) == 0


def test_certify_threshold_recomputes_from_document(tmp_path, capsys):
    # The report carries every input of its threshold besides L.
    path = write_windows(tmp_path / "w.json", [8.0, 8.001, 8.0, 8.0005], 2)
    assert main(["certify", path, "-d", "1", "--noise-eps", "1e-3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["W"], obj["K"], obj["noise_eps"]) == (2, 4, 1e-3)
    assert 0.0 < obj["threshold"] < math.inf
    assert obj["eps0"] == EPS0
    assert obj["threshold"] == eps_bound(obj["L"], obj["K"], obj["noise_eps"])
