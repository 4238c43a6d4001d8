"""Command-line surface: windows, witness, reconstruct, certify, synth.

Exit codes are part of the contract:
  0  success (certify: zero verdict; witness: nonzero determinant)
  1  conclusive negative (certify: nonzero; witness: singular; reconstruct:
     degenerate flags)
  2  malformed input or configuration (argparse's rejections, conflicting
     inputs, an option the mode does not read: ``windows -d`` without
     ``--pi0``, ``witness --seed|--bound|--max-trials`` without ``--search``),
     or a size the machine refuses or cannot index; one ``error:`` line on stderr
  3  inconclusive outcome / search exhaustion

Each JSON document is produced by one encoder, the ``to_dict`` of its type,
and is written as one newline-terminated line of strict RFC 8259 JSON by
json's compact (C) encoder, the same bytes on stdout and to ``--out``:
non-finite floats are written as null.  Large integers are serialized as
strings; CSV holds decimal text.  Stderr holds at most one line, and no
setting gates it: ``error: ...`` with exit 2, or ``WARNING windowcert: witness
search exhausted after N trials`` with exit 3.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from pathlib import Path

from .certify import Decision, pipeline
from .prony import prony_reconstruct
from .rankcert import certify_witness, search_witness
from .signal import RationalParams, WindowData, generate_sequence, window_sums
from .synth import case_a_fixture, case_b_fixture, collision_pair

# The witness search's defaults, stated once, in search_witness's signature.
_SEARCH_DEFAULTS = {k: v.default for k, v in inspect.signature(search_witness).parameters.items()
                    if v.default is not v.empty}


class _Parser(argparse.ArgumentParser):
    """Rejections raise ValueError, reported by ``main`` as any bad input is."""

    def error(self, message):
        raise ValueError(message)


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _write(json.dumps(obj, allow_nan=False) + "\n", out)


def _load_windows(path: str) -> WindowData:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return WindowData.from_dict(json.loads(raw.decode()))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError (RFC 8259 fixes UTF-8) and json.JSONDecodeError
        # are ValueErrors; nesting deeper than the decoder's recursion limit
        # raises RecursionError.
        raise ValueError(f"malformed windows file {path}: {exc}") from exc


def _parse_pi0(text: str, d: int) -> RationalParams:
    """The integer parameter vector y0..yd,q1..qd of ``--pi0``."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    try:
        vals = [int(v) for v in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"--pi0 takes integers: {exc}") from exc
    if len(vals) != 2 * d + 1:
        raise ValueError(f"--pi0 needs {2 * d + 1} integers for d={d}")
    return RationalParams.from_vector(vals, d)


def cmd_windows(args) -> int:
    if (args.d is None) != (args.pi0 is None):
        raise ValueError("-d goes with --pi0 and only with it")
    if args.sequence_file is not None:
        try:
            seq = [float(v) for v in Path(args.sequence_file).read_text().split()]
        except (OSError, ValueError) as exc:
            raise ValueError(f"malformed sequence file: {exc}") from exc
    else:
        # At least y_0..y_d, so that the recurrence is defined however few
        # samples the windows take; window_sums checks W and K.
        n_max = max(args.W * args.K - 1, args.d)
        seq = generate_sequence(_parse_pi0(args.pi0, args.d), n_max)
    _emit_json(window_sums(seq, args.W, args.K).to_dict(), args.out)
    return 0


def cmd_witness(args) -> int:
    typed = {k: getattr(args, k) for k in _SEARCH_DEFAULTS if k in args}
    if args.search:
        cert = search_witness(args.d, args.W, args.prime, **typed)
        if cert is None:
            trials = typed.get("max_trials", _SEARCH_DEFAULTS["max_trials"])
            sys.stderr.write(
                f"WARNING windowcert: witness search exhausted after {trials} trials\n"
            )
            return 3
    elif typed:
        raise ValueError("--seed, --bound and --max-trials go only with --search")
    else:
        params = _parse_pi0(args.pi0, args.d)
        cert = certify_witness(params, args.d, args.W, args.prime)
    _emit_json(cert.to_dict(), args.out)
    return 0 if cert.nonzero else 1


def cmd_reconstruct(args) -> int:
    data = _load_windows(args.windows)
    model = prony_reconstruct(data, args.d)
    _emit_json(model.to_dict(), args.out)
    return 1 if model.degenerate else 0


def cmd_certify(args) -> int:
    data = _load_windows(args.windows)
    report = pipeline(data, args.d, noise_eps=args.noise_eps)
    _emit_json(report.to_dict(), args.out)
    return {Decision.ZERO: 0, Decision.NONZERO: 1, Decision.INCONCLUSIVE: 3}[report.decision]


def cmd_synth(args) -> int:
    if args.what == "collision":
        y_in, y_out, big_n = collision_pair(case_a_fixture().mixture, args.d, args.W, args.K)
        out = args.out or "collision"
        for name, seq in (("in", y_in), ("out", y_out)):
            _write("\n".join(repr(v) for v in seq) + "\n", f"{out}.{name}.csv")
        sys.stdout.write(f"N={big_n}\n")
        return 0
    fixture = case_a_fixture() if args.what == "case-a" else case_b_fixture()
    rows = enumerate(zip(fixture.true_windows, fixture.observed_windows))
    lines = ["k,true,observed", *(f"{k},{t!r},{o!r}" for k, (t, o) in rows)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use and shared."""
    parser = _Parser(
        prog="windowcert",
        description="Certification of neutrality from W-block window sums",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("windows", parents=[common], help="compute window sums")
    p.add_argument("-d", type=int)
    p.add_argument("-W", type=int, required=True)
    p.add_argument("-K", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pi0", help="integer parameters y0..yd,q1..qd")
    source.add_argument("--sequence-file", help="samples y0, y1, ... (floats)")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("witness", parents=[common], help="rank certificate")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-W", type=int, required=True)
    point = p.add_mutually_exclusive_group(required=True)
    point.add_argument("--pi0", help="integer parameters y0..yd,q1..qd")
    point.add_argument("--search", action="store_true")
    p.add_argument("--prime", type=int, default=10**9 + 7)
    for option, dest, metavar in (("--seed", "seed", "SEED"),
                                  ("--bound", "coordinate_bound", "BOUND"),
                                  ("--max-trials", "max_trials", "MAX_TRIALS")):
        p.add_argument(option, dest=dest, metavar=metavar, type=int, default=argparse.SUPPRESS,
                       help=f"default {_SEARCH_DEFAULTS[dest]}")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("reconstruct", parents=[common], help="Prony recovery")
    p.add_argument("windows")
    p.add_argument("-d", type=int, required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("certify", parents=[common], help="end-to-end decision")
    p.add_argument("windows")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--noise-eps", type=float, default=0.0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("synth", help="fixtures and collisions")
    p.set_defaults(func=cmd_synth)
    targets = p.add_subparsers(dest="what", required=True)
    for what in ("case-a", "case-b"):
        targets.add_parser(what, parents=[common])
    p = targets.add_parser("collision", parents=[common])
    p.add_argument("-d", type=int, default=3)
    p.add_argument("-W", type=int, default=8)
    p.add_argument("-K", type=int, default=11)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, MemoryError, OverflowError) as exc:
        # Bad input or configuration (argparse's, the CLI's and the package's
        # checks, numpy.linalg.LinAlgError), an allocation the machine refuses,
        # or a size past its index range (itertools.repeat at W >= 2^63).
        message = str(exc) or type(exc).__name__
        if isinstance(exc, OverflowError):
            message = f"input too large for this machine ({message})"
        sys.stderr.write(f"error: {message}\n")
        return 2
    except SystemExit as exc:  # --help, after argparse printed the usage
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
