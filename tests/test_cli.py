import json
import math
import re

import pytest

from windowcert.certify import eps_bound
from windowcert.cli import _emit_json, main
from windowcert.signal import WindowData

from reference_data import (
    PRIME,
    WITNESS_DET_RESIDUE,
    WITNESS_WINDOW_SUMS,
)

WITNESS_PI0 = "1 1 5 1 2 2 -2"


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

    def test_csv_output(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(
            ["windows", "-d", "1", "-W", "2", "-K", "3", "--pi0", "1 2 -2",
             "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == "k,S_k"

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

    def test_search_finds(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["witness", "-d", "2", "-W", "3", "--search", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["nonzero"] is True

    def test_search_exhausted(self):
        rc = main(["witness", "-d", "2", "-W", "3", "--search", "--max-trials", "0"])
        assert rc == 3

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
        path = write_windows(tmp_path / "w.json", [1.0, 2.0, 4.0, 8.0], 2)
        rc = main(["certify", path, "-d", "2", "--out", str(tmp_path / "r.json")])
        assert rc == 3

    def test_noise_beyond_regime(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [8.0] * 7, 8)
        assert main(["certify", path, "-d", "1", "--noise-eps", "0.5"]) == 2


class TestSynth:
    @pytest.mark.parametrize("label,rows", [("case-a", 12), ("case-b", 8)])
    def test_case_csv(self, tmp_path, label, rows):
        out = tmp_path / "case.csv"
        rc = main(["synth", label, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,true,observed"
        assert len(lines) == rows + 1

    def test_collision_files(self, tmp_path, capsys):
        out = tmp_path / "coll"
        rc = main(["synth", "collision", "-d", "3", "-W", "8", "-K", "11",
                   "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "coll.in.csv").exists()
        assert (tmp_path / "coll.out.csv").exists()
        assert "N=95" in capsys.readouterr().out

    def test_unknown_target(self):
        assert main(["synth", "case-z"]) == 2


class TestRejectedInput:
    """Bad input exits 2 with one ``error:`` line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            # W * K samples do not reach y_d.
            ["windows", "-d", "3", "-W", "1", "-K", "1", "--pi0", WITNESS_PI0],
            ["windows", "-W", "2", "-K", "2"],
            ["windows", "-W", "2", "-K", "2", "--pi0", "1 1 -1"],
        ],
    )
    def test_bad_arguments(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csv_windows_file(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("k,S_k\n0,2.0\n1,5.0\n")
        assert main(["certify", str(path), "-d", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: CSV window input needs a block length; use the JSON format\n"

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
        assert capsys.readouterr().err == "error: d must be >= 1\n"

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
        with pytest.raises(SystemExit) as exc:
            main(["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "1 1 -1", *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1

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
        ],
        ids=["list", "string", "missing_sums", "W_fraction", "W_bool", "sum_string", "sum_bool", "sum_list"],
    )
    def test_malformed_windows_file(self, tmp_path, capsys, text):
        path = tmp_path / "w.json"
        path.write_text(text)
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

    @pytest.mark.parametrize("level,code", [("verbose", 2), ("debug", 0)])
    def test_log_level(self, monkeypatch, capsys, level, code):
        monkeypatch.setenv("WINDOWCERT_LOG", level)
        assert main(["windows", "-d", "1", "-W", "2", "-K", "2", "--pi0", "1 1 -1"]) == code
        err = capsys.readouterr().err
        assert err == ("error: unknown WINDOWCERT_LOG level 'VERBOSE'\n" if code else "")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_vacuous_bound_is_null(self, tmp_path):
        from windowcert.synth import case_a_fixture

        fixture = case_a_fixture()
        path = write_windows(tmp_path / "w.json", fixture.true_windows, fixture.W)
        out = tmp_path / "r.json"
        main(["certify", path, "-d", "3", "--noise-eps", "1e-6", "--out", str(out)])
        obj = _strict_json(out.read_text())
        assert obj["threshold"] is None
        assert obj["bound_vacuous"] is True

    def test_degenerate_model_conditions_are_null(self, tmp_path):
        path = write_windows(tmp_path / "w.json", [1.0, 2.0, 4.0, 8.0], 2)
        out = tmp_path / "m.json"
        assert main(["reconstruct", path, "-d", "2", "--out", str(out)]) == 1
        obj = _strict_json(out.read_text())
        assert obj["vandermonde_condition"] is None
        report = tmp_path / "r.json"
        assert main(["certify", path, "-d", "2", "--out", str(report)]) == 3
        obj = _strict_json(report.read_text())
        assert obj["model"]["vandermonde_condition"] is None
        assert obj["bound_vacuous"] is False

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
    "argv",
    [
        ["windows", "-d", "3", "-W", "8", "-K", "7", "--pi0", WITNESS_PI0],
        ["witness", "-d", "3", "-W", "8", "--pi0", WITNESS_PI0],
        ["witness", "-d", "2", "-W", "3", "--search"],
        ["reconstruct", "{windows}", "-d", "2"],
        ["reconstruct", "{degenerate}", "-d", "2"],
        ["certify", "{windows}", "-d", "2"],
        ["certify", "{degenerate}", "-d", "2"],
    ],
    ids=["windows", "witness", "search", "reconstruct", "reconstruct_degenerate",
         "certify", "certify_degenerate"],
)
def test_document_shape(tmp_path, capsys, argv):
    # The key set and value types of each document that the CLI writes.
    paths = {
        "windows": write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2),
        "degenerate": write_windows(tmp_path / "g.json", [1.0, 2.0, 4.0, 8.0], 2),
    }
    main([arg.format(**paths) for arg in argv])
    obj = _strict_json(capsys.readouterr().out)
    assert _has_shape(obj, DOCUMENT_SHAPES[argv[0]])


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
    path = write_windows(tmp_path / "w.json", [2.0, 5.0, 13.0, 35.0], 2)
    assert main(["certify", path, "-d", "2", "--noise-eps", "1e-3"]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert (obj["W"], obj["K"], obj["noise_eps"]) == (2, 4, 1e-3)
    assert obj["threshold"] == eps_bound(obj["L"], obj["K"], obj["eps0"], obj["noise_eps"])
