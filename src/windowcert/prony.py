"""Prony/Hankel recovery of window-sum nodes and amplitudes.

From 2d consecutive window sums S_0..S_{2d-1} the recovery runs in three
steps: solve the d x d Hankel system for the monic characteristic
coefficients, extract the nodes as polynomial roots (companion-matrix
eigenvalues with a short Newton polish), and solve the Vandermonde system for
the amplitudes.  Degeneracies (singular Hankel, repeated/zero nodes, vanishing
amplitudes) are reported as flags on the model, never as exceptions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .signal import WindowData

# Flag names.
HANKEL_SINGULAR = "hankel_singular"
REPEATED_NODES = "repeated_nodes"
ZERO_NODE = "zero_node"
ZERO_AMPLITUDE = "zero_amplitude"
COMPLEX_NODES = "complex_nodes"


# Numerical thresholds for degeneracy detection, relative to the largest
# singular value, node modulus or amplitude.
SINGULAR_RATIO = 1e-12
NODE_SEPARATION = 1e-8
ZERO_NODE_RATIO = 1e-12
ZERO_AMPLITUDE_RATIO = 1e-10
IMAG_RATIO = 1e-8
NEWTON_STEPS = 2


def finite_or_none(v):
    """``v`` for JSON output: None (null) when it is a non-finite float."""
    return v if v is None or math.isfinite(v) else None


@dataclass(frozen=True)
class PronyModel:
    """Recovered exponential-sum model of a window-sum sequence."""

    nodes: tuple
    amplitudes: tuple
    char_coeffs: tuple
    hankel_condition: float
    vandermonde_condition: float
    flags: frozenset = field(default_factory=frozenset)

    @property
    def degenerate(self) -> bool:
        return bool(self.flags)

    def predict(self, k) -> np.ndarray:
        """Window sums sum_i A_i mu_i^k at the given indices."""
        k = np.asarray(k)
        mu = np.asarray(self.nodes)
        amp = np.asarray(self.amplitudes)
        vals = (amp[None, :] * mu[None, :] ** k[:, None]).sum(axis=1)
        return vals.real if not np.iscomplexobj(np.asarray(self.nodes)) else vals

    def to_dict(self) -> dict:
        def enc(v):
            v = complex(v)
            return v.real if v.imag == 0.0 else {"re": v.real, "im": v.imag}

        return {
            "nodes": [enc(v) for v in self.nodes],
            "amplitudes": [enc(v) for v in self.amplitudes],
            "char_coeffs": [enc(v) for v in self.char_coeffs],
            "hankel_condition": finite_or_none(self.hankel_condition),
            "vandermonde_condition": finite_or_none(self.vandermonde_condition),
            "flags": sorted(self.flags),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PronyModel":
        def dec(v):
            return complex(v["re"], v["im"]) if isinstance(v, dict) else float(v)

        def condition(v):
            return math.inf if v is None else float(v)

        return cls(
            nodes=tuple(dec(v) for v in obj["nodes"]),
            amplitudes=tuple(dec(v) for v in obj["amplitudes"]),
            char_coeffs=tuple(dec(v) for v in obj["char_coeffs"]),
            hankel_condition=condition(obj["hankel_condition"]),
            vandermonde_condition=condition(obj["vandermonde_condition"]),
            flags=frozenset(obj["flags"]),
        )


def _sums(S) -> np.ndarray:
    if isinstance(S, WindowData):
        return np.asarray(S.sums, dtype=float)
    return np.asarray(S, dtype=float)


def solve_recurrence_coeffs(S, d: int):
    """Monic characteristic coefficients (a_1..a_d) of the window-sum recurrence.

    Solves sum_m a_m S_{k+d-m} = -S_{k+d} for k = 0..d-1.  Returns
    (coeffs, hankel_condition, flags); a numerically rank-deficient Hankel
    matrix sets the singular flag and falls back to a least-squares solve.
    """
    s = _sums(S)
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(s) < 2 * d:
        raise ValueError(f"need at least 2d={2 * d} window sums, got {len(s)}")
    hankel = np.array([[s[i + j] for j in range(d)] for i in range(d)])
    lhs = np.array([[s[k + d - m] for m in range(1, d + 1)] for k in range(d)])
    rhs = -s[d : 2 * d]
    sv = np.linalg.svd(hankel, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    flags = set()
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RATIO * sv[0]:
        flags.add(HANKEL_SINGULAR)
        coeffs = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        coeffs = np.linalg.solve(lhs, rhs)
    return tuple(float(c) for c in coeffs), condition, flags


def _node_order(v):
    v = complex(v)
    return (-abs(v), -v.real, -v.imag)


def char_roots(coeffs):
    """Roots of t^d + a_1 t^{d-1} + ... + a_d, Newton-polished and ordered.

    Ordering is by descending modulus, ties broken by descending real then
    imaginary part.  Returns (nodes, flags).
    """
    coeffs = tuple(coeffs)
    d = len(coeffs)
    if d == 0:
        raise ValueError("need at least one coefficient")
    poly = np.concatenate([[1.0], np.asarray(coeffs, dtype=float)])
    roots = np.roots(poly)
    dpoly = np.polyder(poly)
    for _ in range(NEWTON_STEPS):
        num = np.polyval(poly, roots)
        den = np.polyval(dpoly, roots)
        safe = np.where(np.abs(den) > 0.0, den, 1.0)
        roots = roots - np.where(np.abs(den) > 0.0, num / safe, 0.0)
    roots = sorted(roots, key=_node_order)
    flags = set()
    mags = [abs(r) for r in roots]
    top = max(mags) if mags else 0.0
    if top > 0.0:
        if min(mags) < ZERO_NODE_RATIO * top:
            flags.add(ZERO_NODE)
        min_sep = min(
            (abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d)),
            default=np.inf,
        )
        if min_sep < NODE_SEPARATION * top:
            flags.add(REPEATED_NODES)
        if any(abs(r.imag) > IMAG_RATIO * abs(r) for r in roots):
            flags.add(COMPLEX_NODES)
    else:
        flags.add(ZERO_NODE)
    if COMPLEX_NODES not in flags:
        roots = [r.real for r in roots]
    return tuple(roots), flags


def solve_amplitudes(S, nodes):
    """Amplitudes from the Vandermonde system V(mu) A = (S_0..S_{d-1}).

    Repeated nodes make the system singular and raise; near-vanishing
    amplitudes are flagged.  Returns (amplitudes, vandermonde_condition, flags).
    """
    s = _sums(S)
    nodes = tuple(nodes)
    d = len(nodes)
    if d == 0:
        raise ValueError("need at least one node")
    if len(set(nodes)) != d:
        raise ValueError("nodes must be distinct")
    vdm = np.array([[mu**k for mu in nodes] for k in range(d)])
    sv = np.linalg.svd(vdm, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    amps = np.linalg.solve(vdm, s[:d].astype(vdm.dtype))
    flags = set()
    mags = np.abs(amps)
    if mags.max() == 0.0 or mags.min() < ZERO_AMPLITUDE_RATIO * mags.max():
        flags.add(ZERO_AMPLITUDE)
    if np.iscomplexobj(amps):
        amps = tuple(complex(a) for a in amps)
    else:
        amps = tuple(float(a) for a in amps)
    return amps, condition, flags


def prony_reconstruct(S, d: int) -> PronyModel:
    """Full recovery S_0..S_{2d-1} -> (nodes, amplitudes) with diagnostics.

    Only the first 2d sums are consulted.  Degenerate inputs produce a model
    with the corresponding flags set rather than raising.
    """
    s = _sums(S)
    coeffs, hankel_condition, flags = solve_recurrence_coeffs(s, d)
    if HANKEL_SINGULAR in flags:
        return PronyModel(
            nodes=(),
            amplitudes=(),
            char_coeffs=coeffs,
            hankel_condition=hankel_condition,
            vandermonde_condition=float("inf"),
            flags=frozenset(flags),
        )
    nodes, root_flags = char_roots(coeffs)
    flags |= root_flags
    if REPEATED_NODES in flags or ZERO_NODE in flags:
        return PronyModel(
            nodes=nodes,
            amplitudes=(),
            char_coeffs=coeffs,
            hankel_condition=hankel_condition,
            vandermonde_condition=float("inf"),
            flags=frozenset(flags),
        )
    amps, vdm_condition, amp_flags = solve_amplitudes(s, nodes)
    flags |= amp_flags
    return PronyModel(
        nodes=nodes,
        amplitudes=amps,
        char_coeffs=coeffs,
        hankel_condition=hankel_condition,
        vandermonde_condition=vdm_condition,
        flags=frozenset(flags),
    )
