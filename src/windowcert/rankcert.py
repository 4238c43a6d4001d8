"""Identifiability certificates for the truncated window map.

The map from parameters (y_0..y_d, q_1..q_d) to the first 2d+1 window sums is
polynomial; a single integer point where its Jacobian determinant is nonzero
modulo a prime certifies that the determinant is nonzero over the reals, hence
that the map is locally invertible on an open dense parameter set.

Differentiating y_n + q_1 y_{n-1} + ... + q_d y_{n-d} = 0 (n > d) gives the
same recurrence for each derivative sequence, with source 0 for an initial
value and -y_{n-j} for q_j.  Rather than run it once per column, the Jacobian
is assembled from two sequences.  With Q(z) = 1 + q_1 z + ... + q_d z^d these
are the impulse response g = 1/Q and the tail response
E = (y_d z^d + y_{d+1} z^{d+1} + ...)/Q:

  g_0 = 1,  g_t = -(q_1 g_{t-1} + ... + q_d g_{t-d}),
  E_t = 0 for t < d,  E_t = y_t - (q_1 E_{t-1} + ... + q_d E_{t-d}) for t >= d.

Writing z^s x for x delayed by s samples, the derivative sequences are

  dy/dy_a = e_a - sum_{m=d-a+1..d} q_m z^{a+m} g,
  dy/dq_j = -z^j E - sum_{s=d+1-j..d-1} y_s z^{j+s} g,

so each Jacobian column is the same combination of the window sums of the
delayed g and E.  Every term is a part of the derivative itself: the formula
builds in no cancellation between large terms, which keeps float columns
accurate when the initial values decay fast.  For N = W(2d+1) samples this
costs about 2Nd + d^2 K multiplications instead of (2d+1)Nd.  Integer
parameters give a bit-exact integer matrix (Python ints are arbitrary
precision, so exact assembly never overflows).  The program assembles it
only at integer witness points; float (and Fraction) parameters reach it
only from the tests, where it is the oracle for the closed-form Jacobian of
``certify.estimate_lipschitz``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .signal import ExponentialMixture, RationalParams, block_sums
from .signal import generate_sequence, mixture_window_params
from .signal import window_sums  # noqa: F401  (bench/tracing.py rebinds rankcert.window_sums)

# Witness bases make Miller-Rabin deterministic below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for moduli used in certificates."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobian(params: RationalParams, W: int) -> list:
    """(2d+1) x (2d+1) Jacobian of the window map; exact for integer params.

    Row k is window k; column order is (y_0..y_d, q_1..q_d).  Each column
    combines window sums of the impulse response g and the tail response E,
    delayed by a few samples (see the module docstring).
    """
    if W < 1:
        raise ValueError("W must be >= 1")
    d = params.degree
    K = 2 * d + 1
    n = W * K  # the windows cover y_0..y_{n-1}
    q = params.recurrence
    y = generate_sequence(params, n - 1)
    # x[:-d-1:-1] is (x_{t-1}, ..., x_{t-d}), paired with (q_1, ..., q_d).
    # g enters only with delays >= d+1, so g_0..g_{n-d-2} suffice.
    g = [0] * d + [1]  # d leading zeros, then g_0
    for _ in range(n - d - 2):
        g.append(-sum(map(mul, q, g[: -d - 1 : -1])))
    tail = [0] * (2 * d)  # d leading zeros, then E_0..E_{d-1} = 0
    for t in range(d, n - 1):
        tail.append(y[t] - sum(map(mul, q, tail[: -d - 1 : -1])))
    g = g[d:]
    tail = tail[d:]
    win_g = {s: block_sums(g, W, K, s) for s in range(d + 1, 2 * d + 1)}

    columns = []
    for alpha in range(d + 1):
        col = [0] * K
        col[alpha // W] = 1  # e_a: sample a lies in window a // W
        for m in range(d - alpha + 1, d + 1):
            col = [c - q[m - 1] * w for c, w in zip(col, win_g[alpha + m])]
        columns.append(col)
    for j in range(1, d + 1):
        col = [-v for v in block_sums(tail, W, K, j)]
        for s in range(d + 1 - j, d):
            col = [c - y[s] * w for c, w in zip(col, win_g[j + s])]
        columns.append(col)
    return [list(row) for row in zip(*columns)]


def det_mod(matrix, p: int) -> int:
    """Determinant residue in [0, p) by Gaussian elimination over F_p."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    m = [[int(v) % p for v in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    det = 1
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det % p
        det = det * m[i][i] % p
        inv = pow(m[i][i], p - 2, p)
        tail = m[i][i + 1 :]  # columns up to i are never read again
        for r in range(i + 1, n):
            f = m[r][i] * inv % p
            if f:
                m[r][i + 1 :] = [(a - f * b) % p for a, b in zip(m[r][i + 1 :], tail)]
    return det


@dataclass(frozen=True)
class RankCertificate:
    """Integer witness point, its exact Jacobian and the determinant residue
    mod p.  Every other claim of the document is derived from these."""

    params: RationalParams
    W: int
    prime: int
    jacobian: tuple
    det_residue: int

    exact = True  # the Jacobian is assembled in integer arithmetic

    @property
    def d(self) -> int:
        return self.params.degree

    @property
    def nonzero(self) -> bool:
        return self.det_residue != 0

    @property
    def window_sums(self) -> tuple:
        """The first 2d+1 window sums.  The signal is linear in its initial
        values, so S_k = sum_a J[k][a] y_a."""
        y = self.params.initial
        return tuple(sum(map(mul, row[: len(y)], y)) for row in self.jacobian)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "W": self.W,
            "p": self.prime,
            "pi0": [int(v) for v in self.params.as_vector()],
            "window_sums": [str(v) for v in self.window_sums],
            "jacobian": [[str(v) for v in row] for row in self.jacobian],
            "det_mod_p": self.det_residue,
            "nonzero": self.nonzero,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RankCertificate":
        """Check and decode the measured fields; ``d`` is read from the
        length of ``pi0``, and the derived claims are not read, so
        re-encoding restates them from the point, Jacobian and residue.

        Raises ValueError unless W >= 1, p is prime, the Jacobian is
        (2d+1) x (2d+1) and the residue lies in [0, p).
        """
        pi0 = [int(v) for v in obj["pi0"]]
        params = RationalParams.from_vector(pi0, len(pi0) // 2)
        W, p, residue = int(obj["W"]), int(obj["p"]), int(obj["det_mod_p"])
        jac = tuple(tuple(int(v) for v in row) for row in obj["jacobian"])
        n = 2 * params.degree + 1
        if W < 1:
            raise ValueError(f"W must be >= 1, got {W}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if len(jac) != n or any(len(row) != n for row in jac):
            raise ValueError(f"jacobian must be {n} x {n} for d = {params.degree}")
        if not 0 <= residue < p:
            raise ValueError(f"det_mod_p={residue} is outside [0, {p})")
        return cls(params=params, W=W, prime=p, jacobian=jac, det_residue=residue)


def certify_witness(params: RationalParams, d: int, W: int, p: int) -> RankCertificate:
    """Assemble the exact Jacobian at an integer point and its verdict mod p."""
    if params.degree != d:
        raise ValueError(f"params have degree {params.degree}, expected {d}")
    if not params.is_integer:
        raise ValueError("witness certification requires integer parameters")
    jac = tuple(map(tuple, jacobian(params, W)))
    return RankCertificate(params, W, p, jac, det_mod(jac, p))  # det_mod rejects a composite p


def search_witness(
    d: int,
    W: int,
    coordinate_bound: int,
    p: int,
    seed: int = 0,
    max_trials: int = 100,
) -> Optional[RankCertificate]:
    """Randomized search for an integer point with nonsingular Jacobian mod p.

    Deterministic given the seed; trials draw coordinates uniformly from
    [-bound, bound], skipping the all-zero recurrence.  Returns None after
    max_trials failures.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if W < 1 or max_trials < 0:
        raise ValueError(f"need W >= 1 and max_trials >= 0, got {W} and {max_trials}")
    if coordinate_bound < 1:
        raise ValueError("coordinate_bound must be >= 1")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    rng = random.Random(seed)
    for _ in range(max_trials):
        pi = [rng.randint(-coordinate_bound, coordinate_bound) for _ in range(2 * d + 1)]
        if all(v == 0 for v in pi[d + 1 :]):
            continue
        cert = certify_witness(RationalParams.from_vector(pi, d), d, W, p)
        if cert.nonzero:
            return cert
    return None


def hankel_witness_det(d: int, W: int) -> float:
    """Explicit positive Hankel determinant of the rate family a_i = 1/(i+1).

    The window sums of y_n = sum_i a_i^n have Hankel determinant
    (prod_{i<j} (mu_j - mu_i))^2 * prod_i B_i, with the window nodes mu_i and
    amplitudes B_i of ``mixture_window_params`` at unit weights.
    """
    if d < 1 or W < 1:
        raise ValueError("d and W must be >= 1")
    rates = [1.0 / (i + 2) for i in range(d)]
    mu, amp = mixture_window_params(ExponentialMixture(rates, (1.0,) * d), W)
    vdm = 1.0
    for i in range(d):
        for j in range(i + 1, d):
            vdm *= mu[j] - mu[i]
    det = vdm * vdm
    for b in amp:
        det *= b
    return det
