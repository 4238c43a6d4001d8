"""Spans and counters around the package's public functions, from outside.

``install`` rebinds the module attributes that the package resolves at call
time (``windowcert.certify.jacobian`` is the float Jacobian path,
``windowcert.rankcert.jacobian`` the exact one) to wrappers that record a span
(name, parent, start, end, key) per call. A span's key is a grid label such as
``d16.W64`` or a CLI subcommand; a span without its own key inherits its
parent's. Spans stay in memory; ``layer_metrics`` folds them into per-layer
self times, where self time is a span's duration minus its children's.

With ``counting`` set, wrappers also tally the count metrics from the call
results. Counts are taken over one pass of the workload, so they repeat
exactly for a seed.
"""
from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import windowcert.cli as cli
from windowcert import certify, prony, rankcert

from workloads import EXIT_STAGES, WITNESS_BLOCKS, WITNESS_DEGREES, exit_stage

SELF_MS_LAYERS = (
    "certify.pipeline",
    "certify.estimate_lipschitz",
    "rankcert.jacobian.float",
    "rankcert.jacobian.exact",
    "rankcert.det_mod",
    "rankcert.certify_witness",
    "rankcert.search_witness",
    "signal.generate_sequence.exact",
    "signal.generate_sequence.float",
    "signal.window_sums",
    "prony.prony_reconstruct",
    "prony.solve_recurrence_coeffs",
    "prony.char_roots",
    "prony.solve_amplitudes",
    "loggeom.project_mean_zero",
    "loggeom.certificate_value",
    "cli.main",
    "synth",
)
GRID_LAYERS = ("rankcert.jacobian.exact", "rankcert.det_mod")
CLI_EXIT_CODES = (0, 1, 2, 3)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start ns, end ns, key]
        self._stack = []
        self.counting = False
        self.counts = defaultdict(int)
        self._saved = []

    def wrap(self, name, fn, key=None, observe=None):
        """Traced version of ``fn``. ``name`` may be a callable of the call's
        arguments, ``key`` computes the span key, ``observe(args, kwargs,
        result, parent)`` tallies counts in counting mode."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span_name = name(args, kwargs) if callable(name) else name
            span_key = key(args, kwargs) if key else None
            if span_key is None and parent >= 0:
                span_key = spans[parent][4]
            record = [span_name, parent, clock(), 0, span_key]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if self.counting and observe is not None:
                observe(args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def rebind(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> None:
    """Rebind every traced function of the package to its wrapper."""
    c = tracer.counts

    def grid_key(d, W):
        return f"d{d}.W{W}"

    def seq_name(args, kwargs):
        return "signal.generate_sequence." + ("exact" if args[0].is_integer else "float")

    def on_sequence(args, kwargs, result, parent):
        c["signal.terms_generated"] += len(result)

    def on_jacobian_exact(args, kwargs, result, parent):
        bits = max(abs(v).bit_length() for row in result for v in row)
        name = "rankcert.jacobian.exact.max_entry_bits"
        c[name] = max(c[name], bits)

    def on_certify_witness(args, kwargs, result, parent):
        if parent == "rankcert.search_witness":
            c["rankcert.search_witness.trials"] += 1

    def on_search(args, kwargs, result, parent):
        c["search_witness.calls"] += 1
        c["rankcert.search_witness.exhausted" if result is None else "search_witness.found"] += 1

    def on_prony(args, kwargs, result, parent):
        c["prony.calls"] += 1
        c["prony.degenerate"] += result.degenerate

    def on_pipeline(args, kwargs, report, parent):
        w = args[0]
        c["certify.calls"] += 1
        c["certify.exit." + exit_stage(report)] += 1
        c["certify.bound_vacuous"] += report.threshold == math.inf
        model = report.reconstruction
        if not model.degenerate and all(
            complex(mu).imag == 0.0 and complex(mu).real > 0.0 for mu in model.nodes
        ):
            c["certify.samples_rebuilt"] += w.block_length * w.count

    def on_cli(args, kwargs, code, parent):
        c[f"cli.exit_code.{code}"] += 1

    wrap = tracer.wrap
    pipeline = wrap("certify.pipeline", certify.pipeline, observe=on_pipeline)
    reconstruct = wrap("prony.prony_reconstruct", prony.prony_reconstruct, observe=on_prony)
    sequence = wrap(seq_name, rankcert.generate_sequence, observe=on_sequence)
    sums = wrap("signal.window_sums", rankcert.window_sums)
    cert_witness = wrap(
        "rankcert.certify_witness",
        rankcert.certify_witness,
        key=lambda a, k: grid_key(a[1], a[2]),
        observe=on_certify_witness,
    )
    search = wrap("rankcert.search_witness", rankcert.search_witness, observe=on_search)
    bindings = [
        (certify, "pipeline", pipeline),
        (cli, "pipeline", pipeline),
        (certify, "prony_reconstruct", reconstruct),
        (cli, "prony_reconstruct", reconstruct),
        (certify, "jacobian", wrap("rankcert.jacobian.float", certify.jacobian)),
        (
            rankcert,
            "jacobian",
            wrap(
                "rankcert.jacobian.exact",
                rankcert.jacobian,
                key=lambda a, k: grid_key(a[0].degree, a[1]),
                observe=on_jacobian_exact,
            ),
        ),
        (rankcert, "det_mod", wrap("rankcert.det_mod", rankcert.det_mod)),
        (rankcert, "generate_sequence", sequence),
        (cli, "generate_sequence", sequence),
        (rankcert, "window_sums", sums),
        (cli, "window_sums", sums),
        (rankcert, "certify_witness", cert_witness),
        (cli, "certify_witness", cert_witness),
        (rankcert, "search_witness", search),
        (cli, "search_witness", search),
        (cli, "case_a_fixture", wrap("synth", cli.case_a_fixture)),
        (cli, "case_b_fixture", wrap("synth", cli.case_b_fixture)),
        (cli, "collision_pair", wrap("synth", cli.collision_pair)),
        (cli, "main", wrap("cli.main", cli.main, key=lambda a, k: a[0][0], observe=on_cli)),
    ]
    for module, layer, attrs in (
        (certify, "certify", ("estimate_lipschitz",)),
        (certify, "loggeom", ("project_mean_zero", "certificate_value")),
        (prony, "prony", ("solve_recurrence_coeffs", "char_roots", "solve_amplitudes")),
    ):
        for attr in attrs:
            bindings.append((module, attr, wrap(f"{layer}.{attr}", getattr(module, attr))))
    for module, attr, wrapper in bindings:
        tracer.rebind(module, attr, wrapper)


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer self times from the spans of a traced run of ``n_ops`` calls.

    ``<layer>.self_ms`` is the layer's self time per call of the workload, so
    the layers add up to the traced latency. The grid metrics are per call of
    the layer at that (d, W). ``rankcert.jacobian.float.pipeline_share`` is
    the float Jacobian's time, its sequence generation included, over
    pipeline time; ``cli.main.certify_self_share`` is cli.main's self time
    over the time of ``certify`` commands."""
    self_ns = [end - start for _, _, start, end, _ in spans]
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            self_ns[parent] -= end - start
    by_layer = defaultdict(int)
    by_grid = defaultdict(lambda: [0, 0])
    certify_cli = [0, 0]  # cli.main self, cli.main total in certify commands
    float_jac = [0, 0]  # jacobian.float total, pipeline total
    for (name, parent, start, end, key), own in zip(spans, self_ns):
        by_layer[name] += own
        if name in GRID_LAYERS and key:
            cell = by_grid[(name, key)]
            cell[0] += own
            cell[1] += 1
        if name == "cli.main" and key == "certify":
            certify_cli[0] += own
            certify_cli[1] += end - start
        if name == "rankcert.jacobian.float":
            float_jac[0] += end - start
        if name == "certify.pipeline":
            float_jac[1] += end - start

    out = {}
    for layer in SELF_MS_LAYERS:
        out[f"{layer}.self_ms"] = (by_layer[layer] / n_ops / 1e6, "ms")
    for layer in GRID_LAYERS:
        for d in WITNESS_DEGREES:
            for W in WITNESS_BLOCKS:
                total, calls = by_grid[(layer, f"d{d}.W{W}")]
                out[f"{layer}.self_ms.d{d}.W{W}"] = (total / calls / 1e6 if calls else 0.0, "ms")
    out["rankcert.jacobian.float.pipeline_share"] = (
        float_jac[0] / float_jac[1] if float_jac[1] else 0.0,
        "ratio",
    )
    out["cli.main.certify_self_share"] = (
        certify_cli[0] / certify_cli[1] if certify_cli[1] else 0.0,
        "ratio",
    )
    return out


def count_metrics(counts) -> dict:
    """Count metrics of one counted pass."""

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {
        "rankcert.jacobian.exact.max_entry_bits": (
            counts["rankcert.jacobian.exact.max_entry_bits"],
            "bits",
        ),
        "signal.terms_generated": (counts["signal.terms_generated"], "count"),
        "rankcert.search_witness.trials": (counts["rankcert.search_witness.trials"], "count"),
        "rankcert.search_witness.useful_share": (
            share("search_witness.found", "rankcert.search_witness.trials"),
            "ratio",
        ),
        "rankcert.search_witness.exhausted": (counts["rankcert.search_witness.exhausted"], "count"),
        "prony.degenerate_share": (share("prony.degenerate", "prony.calls"), "ratio"),
        "certify.samples_rebuilt": (counts["certify.samples_rebuilt"], "count"),
        "certify.bound_vacuous_share": (share("certify.bound_vacuous", "certify.calls"), "ratio"),
    }
    for stage in EXIT_STAGES:
        value = share(f"certify.exit.{stage}", "certify.calls")
        out[f"certify.exit.{stage}_share"] = (value, "ratio")
    for code in CLI_EXIT_CODES:
        out[f"cli.exit_code.{code}"] = (counts[f"cli.exit_code.{code}"], "count")
    return out
