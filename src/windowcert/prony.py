"""Prony/Hankel recovery of window-sum nodes and amplitudes.

From 2d consecutive window sums S_0..S_{2d-1} the recovery runs in three
steps: solve the d x d Hankel system for the monic characteristic
coefficients, extract the nodes as polynomial roots (companion-matrix
eigenvalues with a short Newton polish), and solve the Vandermonde system for
the amplitudes.  Degeneracies (singular Hankel, repeated/zero nodes, vanishing
amplitudes) are reported as flags on the model, never as exceptions.

At order one the three steps have a closed form: S_k = A mu^k with A = S_0
and mu = S_1 / S_0.  ``prony_reconstruct`` returns it directly whenever
c = -S_1 / S_0 is finite and nonzero, bit for bit the model of the three
LAPACK steps: a 1 x 1 solve is the IEEE quotient, a 1 x 1 matrix has one
singular value, so both condition numbers are exactly 1, the first Newton
step of ``char_roots`` lands exactly on -c (r + c is exact for an estimate r
within an ulp of -c), and V = [[1.0]] leaves the amplitude S_0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import combinations

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
            re, im = finite_or_none(v.real), finite_or_none(v.imag)
            return re if v.imag == 0.0 else {"re": re, "im": im}

        return {
            "nodes": [enc(v) for v in self.nodes],
            "amplitudes": [enc(v) for v in self.amplitudes],
            "char_coeffs": [enc(v) for v in self.char_coeffs],
            "hankel_condition": finite_or_none(self.hankel_condition),
            "vandermonde_condition": finite_or_none(self.vandermonde_condition),
            "flags": sorted(self.flags),
        }


def _sums(S) -> list:
    """The sums as a list of Python floats."""
    return S.floats() if isinstance(S, WindowData) else list(map(float, S))


def _hankel_sums(S, d: int) -> list:
    """The sums as floats, checked to hold the 2d that a d x d Hankel system reads."""
    s = _sums(S)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if len(s) < 2 * d:
        raise ValueError(f"need at least 2d={2 * d} window sums, got {len(s)}")
    return s


def _singular_extremes(m):
    """The largest and smallest singular values of m, and their ratio."""
    sv = np.linalg.svd(m, compute_uv=False).tolist()
    return sv[0], sv[-1], (sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf)


def solve_recurrence_coeffs(S, d: int):
    """Monic characteristic coefficients (a_1..a_d) of the window-sum recurrence.

    Solves sum_m a_m S_{k+d-m} = -S_{k+d} for k = 0..d-1.  Returns
    (coeffs, hankel_condition, flags); a numerically rank-deficient Hankel
    matrix, or one that the solve finds singular, sets the singular flag and
    falls back to a least-squares solve.  Coefficients that overflow set it
    too.
    """
    s = _hankel_sums(S, d)
    hankel = np.array([s[k : k + d] for k in range(d)])
    # Row k of the solve matrix is (S_{k+d-1}, ..., S_k): the Hankel row reversed.
    lhs = hankel[:, ::-1]
    rhs = np.array([-v for v in s[d : 2 * d]])
    top, low, condition = _singular_extremes(hankel)
    flags = set()
    coeffs = None
    # At or below: the threshold underflows to 0 below a subnormal top, and
    # an all-zero Hankel matrix (top = low = 0) is singular too.
    if not low <= SINGULAR_RATIO * top:
        try:
            coeffs = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:  # a pivot underflows to 0 among subnormals
            pass
    if coeffs is None:
        flags.add(HANKEL_SINGULAR)
        coeffs = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    coeffs = tuple(coeffs.tolist())
    if not all(map(math.isfinite, coeffs)):  # the solve overflowed
        flags.add(HANKEL_SINGULAR)
    return coeffs, condition, flags


def _node_order(v):
    return (-abs(v), -v.real, -v.imag)


def _polish(r, poly, dpoly):
    """``NEWTON_STEPS`` Newton steps on the root estimate ``r``, a Python
    float or complex, with the Horner sums of ``np.polyval``.  A step is
    skipped where the derivative is zero (``den != 0``, since ``abs`` of a
    finite complex can raise ``OverflowError``) or the step is not finite,
    so an overflowing root is kept as is, with no floating-point warning."""
    for _ in range(NEWTON_STEPS):
        num = den = 0.0
        for c in poly:
            num = num * r + c
        for c in dpoly:
            den = den * r + c
        if den != 0:
            step = num / den
            if cmath.isfinite(step):
                r = r - step
    return r


def char_roots(coeffs):
    """Roots of t^d + a_1 t^{d-1} + ... + a_d, Newton-polished and ordered.

    The estimates are the eigenvalues of the companion matrix of the
    nonzero-trailing part, as in ``np.roots``, plus one exact zero of the
    same type per trailing zero coefficient; each gets ``_polish`` in Python
    scalars, whose real products, sums and quotients round exactly as
    numpy's float64 loops do.  Ordering is by descending modulus, ties
    broken by descending real then imaginary part.  Returns (nodes, flags).
    """
    coeffs = tuple(coeffs)
    d = len(coeffs)
    if d == 0:
        raise ValueError("need at least one coefficient")
    poly = [1.0, *map(float, coeffs)]
    n = d
    while poly[n] == 0.0:  # poly[0] = 1
        n -= 1
    estimates = [0.0] * d
    if n:  # a 0 x 0 companion matrix has no eigenvalues
        companion = [[-c for c in poly[1 : n + 1]]]
        companion += ([0.0] * k + [1.0] + [0.0] * (n - k - 1) for k in range(n - 1))
        eig = np.linalg.eigvals(np.array(companion))
        estimates = eig.tolist() + [0j if eig.dtype.kind == "c" else 0.0] * (d - n)
    dpoly = [c * k for c, k in zip(poly, range(d, 0, -1))]
    roots = sorted([_polish(r, poly, dpoly) for r in estimates], key=_node_order)
    flags = set()
    mags = [abs(r) for r in roots]
    top = max(mags)
    if top > 0.0:
        # At or below: below a subnormal top the thresholds underflow to 0,
        # and an exact zero or repeated node must still be flagged.
        if min(mags) <= ZERO_NODE_RATIO * top:
            flags.add(ZERO_NODE)
        min_sep = min((abs(a - b) for a, b in combinations(roots, 2)), default=math.inf)
        if min_sep <= NODE_SEPARATION * top:
            flags.add(REPEATED_NODES)
        if any(abs(r.imag) > IMAG_RATIO * m for r, m in zip(roots, mags)):
            flags.add(COMPLEX_NODES)
    else:
        flags.add(ZERO_NODE)
    if COMPLEX_NODES not in flags:
        roots = [r.real for r in roots]
    return tuple(roots), flags


def solve_amplitudes(S, nodes):
    """Amplitudes from the Vandermonde system V(mu) A = (S_0..S_{d-1}).

    Repeated nodes make the system singular and raise; tiny or non-finite
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
    condition = _singular_extremes(vdm)[2]
    amps = np.linalg.solve(vdm, np.array(s[:d], dtype=vdm.dtype))
    flags = set()
    # The modulus from numpy, not abs(): abs() of a finite complex can raise
    # OverflowError, and it rounds some moduli an ulp apart from numpy.
    mags = np.abs(amps).tolist()
    # inf/NaN from an overflowed solve; <= as the threshold underflows to 0.
    if not all(map(math.isfinite, mags)) or min(mags) <= ZERO_AMPLITUDE_RATIO * max(mags):
        flags.add(ZERO_AMPLITUDE)
    return tuple(amps.tolist()), condition, flags


def prony_reconstruct(S, d: int) -> PronyModel:
    """Full recovery S_0..S_{2d-1} -> (nodes, amplitudes) with diagnostics.

    Only the first 2d sums are consulted.  Degenerate inputs produce a model
    with the corresponding flags set rather than raising.  At d = 1, when
    c = -S_1 / S_0 is finite and nonzero, the model is the closed form
    (nodes (-c,), amplitudes (S_0,), both condition numbers 1.0, no flags)
    in Python floats, which equals the staged path bit for bit (see the
    module docstring); S_0 = 0, S_1 = 0 or an overflowing quotient take the
    staged path and its flags.
    """
    s = _hankel_sums(S, d)
    if d == 1:  # the order-one closed form
        s0, s1 = s[:2]
        c = -s1 / s0 if s0 != 0.0 else 0.0
        if c != 0.0 and math.isfinite(c):
            return PronyModel(
                nodes=(-c,),
                amplitudes=(s0,),
                char_coeffs=(c,),
                hankel_condition=1.0,
                vandermonde_condition=1.0,
            )
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
