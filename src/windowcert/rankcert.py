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
delayed g and E: those of g at delays d+1..2d and those of E at delays 1..d.

A window sum of a recurrent sequence obeys a window-level recurrence
(Fiduccia 1985, SIAM J. Comput. 14(1)).  If s_t = (x_t, ..., x_{t-d+1})
obeys s_{t+1} = C s_t, with C the companion matrix of Q, then
s_{t+W} = C^W s_t, and so do the W-sample sums of x.  The d sums of g that
one window needs thus move to the next window by one product with C^W; the
d sums of E, which obeys the recurrence forced by y, move with the y sums by
one product with [C^W X; 0 C^W].  At W >= d every row of C^W and X comes
from g and g/Q near index W, at about d^2 multiply-adds each.  The first
k0 + 1 windows, k0 = ceil(2d/W) (all 2d + 1 at W < d), come from prefix
sums of the samples, and ``_stepped_states`` steps the rest.  A step takes
about 4d^2 multiply-adds, a count that does not grow with W (the entries
still do, linearly); a window of samples takes about 3dW, one recurrence
step each of y, g and E per sample.  The costs meet near W = d, so the
split is there.  The columns then take about 2d^2 K multiply-adds, as one
product with Toeplitz weights.  The steps and the column product run as
numpy products over arrays of Python ints and Fractions (dtype object):
numpy runs the loops, and the arithmetic stays that of the entries.

The Jacobian is exact for int and Fraction parameters: ints give a
bit-exact integer matrix (Python ints are arbitrary precision, so exact
assembly never overflows), Fractions an exact rational one.  The program
assembles it only at integer witness points, which ``certify_witness``
checks; Fractions reach it only from the tests, where it is the oracle for
the closed-form Jacobian of ``certify.estimate_lipschitz``.  Floats get no
such guarantee: a window step extrapolates W samples ahead from d
consecutive ones, which in floating point loses up to 2e-9 of a column
when the rates crowd near 1.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .signal import ExponentialMixture, RationalParams, extend_recurrence
from .signal import generate_sequence, mixture_window_params
from .signal import window_sums  # noqa: F401  (bench/tracing.py rebinds rankcert.window_sums)

# Miller-Rabin with the first k primes as bases is exact below psi_k, the
# least strong pseudoprime to all of them (Jaeschke 1993, Math. Comp.
# 61(204); Sorenson & Webster 2017, Math. Comp. 86(304)); the bound is strict.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # psi_13


@functools.cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for moduli used in certificates.

    Exact for n below psi_13 = 3317044064679887385961981; raises ValueError
    at or above it, where no base set here is known to be exact.  Each
    modulus is tested once per process; later calls are cache lookups.
    """
    if n >= _MR_BOUND:
        raise ValueError(
            f"modulus {n} is at or above {_MR_BOUND}, where primality is not deterministic"
        )
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
    """(2d+1) x (2d+1) Jacobian of the window map; exact for int and
    Fraction params.

    Row k is window k; column order is (y_0..y_d, q_1..q_d).  Each row
    combines window sums of the impulse response g and the tail response E,
    delayed by a few samples, which ``_stepped_states`` gives.
    """
    if W < 1:
        raise ValueError("W must be >= 1")
    d = params.degree
    b, e = _stepped_states(params, W)
    # Weights on the g sums at delays d+1, d+2, ...: column y_a takes -q_m
    # at delay a+m, column q_j takes -y_s at delay j+s.  Both blocks are
    # Toeplitz, read from one vector that holds zeros past each run.
    weights = [-v for v in params.recurrence] + [0] * d
    weights += [-v for v in params.initial[:d]] + [0] * d
    columns = [d - a for a in range(d + 1)] + [3 * d + 1 - j for j in range(1, d + 1)]
    rows = b @ np.array(weights, dtype=object)[np.add.outer(range(d), columns)]
    rows[:, d + 1 :] -= e
    rows = rows.tolist()
    for a in range(d + 1):
        rows[a // W][a] += 1  # e_a: sample a lies in window a // W
    return rows


def _responses(params: RationalParams, n: int):
    """The samples of y, g and E that window sums over y_0..y_{n-1} read:
    y_0..y_{n-2}, g_0..g_{n-d-2} (g enters with delays >= d+1) and
    E_0..E_{n-2} (E enters with delays >= 1)."""
    d = params.degree
    q = params.recurrence
    y = generate_sequence(params, n - 2)
    g = extend_recurrence(q, [0] * d + [1], [0] * (n - d - 2))  # d zeros, then g_0
    tail = extend_recurrence(q, [0] * (2 * d), y[d : n - 1])  # d zeros, then E_0..E_{d-1} = 0
    return y, g[d:], tail[d:]


def _stepped_states(params: RationalParams, W: int):
    """Two (2d+1) x d arrays: row k holds the W-sample sums of window k of
    g at delays d+1..2d in the first, and of E at delays 1..d in the second.

    Windows 0..k0 come from prefix sums of the samples: all 2d + 1 at W < d,
    where they cost less than steps, and k0 = ceil(2d/W) <= 2 at W >= d.
    From there three states move one window per step:

      B = (B_{t-d-1}, ..., B_{t-2d})  the g sums,     B' = C^W B,
      T = (T_{t-1}, ..., T_{t-d})     the E sums,     T' = C^W T + X Y,
      Y = (Y_{t-1}, ..., Y_{t-d})     the y sums,     Y' = C^W Y,

    at t = Wk, where B_s, T_s and Y_s sum W samples from s on (Y counts
    y_n from n = d on).  B_s obeys the recurrence of Q from s = 1 on, Y_s
    from s = 2d on, and T_s obeys it forced by Y_s, so every step from
    window k0 on is exact.
    """
    d = params.degree
    q = params.recurrence
    k0 = 2 * d if W < d else -(-2 * d // W)
    n = W * (k0 + 1)
    y, g, tail = _responses(params, n)
    # One prefix-sum table, a row each for g, E and y behind 2d zeros: column
    # 2d + t of a row sums the samples before t, so the sum of a window
    # delayed by at most 2d is the difference of two columns of its row.
    # The table is read flat, where row i starts at i * width.
    width = 2 * d + n
    table = np.zeros((3, width), dtype=object)
    for i, x in enumerate((g, tail, y)):
        table[i, 2 * d + 1 : 2 * d + 1 + len(x)] = x
    table = table.cumsum(axis=1).ravel()
    first = [2 * d - s for s in range(d + 1, 2 * d + 1)]  # g at delays d+1..2d
    first += [i * width + 2 * d - j for i in (1, 2) for j in range(1, d + 1)]  # E, y at 1..d
    start = np.add.outer(range(0, n, W), first)
    sums = table[start + W] - table[start]
    b, e = list(sums[:, :d]), list(sums[:, d : 2 * d])
    if k0 < 2 * d:
        g2 = extend_recurrence(q, [0] * d, g[: W + d - 1])  # d zeros, then g/Q = 1/Q^2
        power = _step_matrix(q, g, W)  # C^W
        coupled = [row + x_row for row, x_row in zip(power, _step_matrix(q, g2[d:], W))]
        coupled = np.array(coupled + [[0] * d + row for row in power], dtype=object)
        power = coupled[d:, d:]
        ty = sums[k0, d:]  # (T, Y) at window k0
        for _ in range(k0 + 1, 2 * d + 1):
            b.append(power.dot(b[-1]))
            ty = coupled.dot(ty)
            e.append(ty[:d])
    return np.array(b), np.array(e)


def _step_matrix(q, x, W: int) -> list:
    """Rows of the d x d matrix with entries -sum_{m=c+1..d} q_m x_{W-r+c-m},
    where x is 0 at a negative index, for W >= d.

    With x = g this is C^W, the W-th power of the companion matrix of Q
    acting on (s_t, ..., s_{t-d+1}): row r holds the coefficients of
    s_{t+W-r}, a sample past the state.  With x = g/Q it is the block X of
    the (T, Y) step.  Entries on one diagonal share their terms, so each
    costs one multiply-add.
    """
    d = len(q)
    rows = [[0] * d for _ in range(d)]
    for diagonal in range(W - d + 1, W + d):  # diagonal = W - r + c
        acc = 0
        for c in range(d - 1, -1, -1):
            if diagonal > c:
                acc -= q[c] * x[diagonal - c - 1]
            r = W + c - diagonal
            if 0 <= r < d:
                rows[r][c] = acc
    return rows


def det_mod(matrix, p: int) -> int:
    """Determinant residue in [0, p) by Gaussian elimination over F_p.

    The entries are reduced in one operation on an object array, and each
    pivot updates all rows below it at once.  For p < 2^31 every product of
    two residues fits int64, and the matrix is an int64 array; a larger p
    keeps Python ints (dtype object).
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    m = np.array(matrix, dtype=object).reshape(n, n) % p
    if p < 2**31:
        m = m.astype(np.int64)
    det = 1
    for i in range(n):
        if not m[i, i]:
            below = np.flatnonzero(m[i + 1 :, i])
            if below.size == 0:
                return 0
            pivot = i + 1 + int(below[0])
            m[[i, pivot]] = m[[pivot, i]]
            det = -det
        pivot_value = int(m[i, i])
        det = det * pivot_value % p
        f = m[i + 1 :, i] * pow(pivot_value, -1, p) % p
        rest = m[i + 1 :, i + 1 :]  # columns up to i are never read again
        rest -= f[:, None] * m[i, i + 1 :]
        rest %= p
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
    d: int, W: int, p: int, *, coordinate_bound: int = 5, seed: int = 0, max_trials: int = 100
) -> Optional[RankCertificate]:
    """Randomized search for an integer point with nonsingular Jacobian mod p.

    Deterministic given the seed; trials draw coordinates uniformly from
    [-coordinate_bound, coordinate_bound], skipping the all-zero recurrence.
    Returns None after max_trials failures.  The CLI reads these defaults.
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
