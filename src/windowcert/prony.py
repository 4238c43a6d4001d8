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
    i = np.arange(d)
    hankel = s[i[:, None] + i]
    # Row k of the solve matrix is (S_{k+d-1}, ..., S_k): the Hankel row reversed.
    lhs = hankel[:, ::-1]
    rhs = -s[d : 2 * d]
    top, low = np.linalg.svd(hankel, compute_uv=False)[[0, -1]].tolist()
    condition = top / low if low > 0.0 else math.inf
    flags = set()
    if top == 0.0 or low < SINGULAR_RATIO * top:
        flags.add(HANKEL_SINGULAR)
        coeffs = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        coeffs = np.linalg.solve(lhs, rhs)
    return tuple(coeffs.tolist()), condition, flags


def _node_order(v):
    v = complex(v)
    return (-abs(v), -v.real, -v.imag)


def char_roots(coeffs):
    """Roots of t^d + a_1 t^{d-1} + ... + a_d, Newton-polished and ordered.

    Ordering is by descending modulus, ties broken by descending real then
    imaginary part.  Returns (nodes, flags).  The array operations, and so
    the roundings, are those of ``np.roots`` and of ``np.polyval`` steps.
    """
    coeffs = tuple(coeffs)
    d = len(coeffs)
    if d == 0:
        raise ValueError("need at least one coefficient")
    poly = np.array((1.0, *coeffs), dtype=float)
    n = max(k for k, c in enumerate(poly.tolist()) if c != 0.0)
    companion = np.eye(n, k=-1)
    companion[:1] = -poly[1 : n + 1]
    # Trailing zero coefficients give exact zero roots, as in np.roots.
    roots = np.concatenate([np.linalg.eigvals(companion), np.zeros(d - n)])
    dpoly = poly[:-1] * np.arange(d, 0, -1)
    # Subnormal coefficients can overflow the Horner sums and the step; such
    # a root is kept as is, so the floating-point warnings say nothing.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(NEWTON_STEPS):
            num = np.zeros_like(roots)
            for c in poly:
                num = num * roots + c
            den = np.zeros_like(roots)
            for c in dpoly:
                den = den * roots + c
            nonzero = np.abs(den) > 0.0
            step = np.where(nonzero, num / np.where(nonzero, den, 1.0), 0.0)
            roots = np.where(np.isfinite(step), roots - step, roots)
    # Python scalars: sorting and flagging only compare, subtract and take
    # moduli, which round as in numpy.
    roots = sorted(roots.tolist(), key=_node_order)
    flags = set()
    mags = [abs(r) for r in roots]
    top = max(mags)
    if top > 0.0:
        if min(mags) < ZERO_NODE_RATIO * top:
            flags.add(ZERO_NODE)
        min_sep = min(
            (abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d)),
            default=math.inf,
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
    top, low = np.linalg.svd(vdm, compute_uv=False)[[0, -1]].tolist()
    condition = top / low if low > 0.0 else math.inf
    amps = np.linalg.solve(vdm, s[:d].astype(vdm.dtype))
    flags = set()
    mags = np.abs(amps).tolist()
    if max(mags) == 0.0 or min(mags) < ZERO_AMPLITUDE_RATIO * max(mags):
        flags.add(ZERO_AMPLITUDE)
    return tuple(amps.tolist()), condition, flags


def prony_reconstruct(S, d: int) -> PronyModel:
    """Full recovery S_0..S_{2d-1} -> (nodes, amplitudes) with diagnostics.

    Only the first 2d sums are consulted.  Degenerate inputs produce a model
    with the corresponding flags set rather than raising.
    """
    s = _sums(S)
    coeffs, hankel_condition, flags = solve_recurrence_coeffs(s, d)
    nodes, amps, vdm_condition = (), (), math.inf
    if HANKEL_SINGULAR not in flags:
        nodes, root_flags = char_roots(coeffs)
        flags |= root_flags
    if not flags & {HANKEL_SINGULAR, REPEATED_NODES, ZERO_NODE}:
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
