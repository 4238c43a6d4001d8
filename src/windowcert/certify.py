"""Decision layer: the end-to-end pipeline and its noise bound.

``pipeline`` has the paper's shape Phi* = A o B o P: a test on the data,
the reconstruction on the identifiability locus, and the projection and
coercivity core, which weighs the certificate against ``eps_bound``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .cost import certificate_value, project_mean_zero
from .prony import PronyModel, finite_or_none, prony_reconstruct
from .rankcert import jacobian  # noqa: F401  (bench/tracing.py rebinds certify.jacobian)
from .signal import WindowData, exponential_sum

POSITIVITY = "positivity"
LIPSCHITZ_SINGULAR = "lipschitz_singular"
BOUND_EXCEEDED = "bound_exceeded"


class Decision(str, enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


# Noise regime on which the reconstruction Lipschitz constant is taken.
EPS0 = 1e-2
# Floor on the zero decision threshold; absorbs the O(eps_mach^2)
# certificate value that mean-projection roundoff produces on an exactly
# constant configuration when the declared noise (and hence the bound)
# is zero.
CERTIFICATE_FLOOR = 1e-24


class NonzeroWitness(NamedTuple):
    """The windows that decide a nonzero verdict: S[k_max] - S[k_min] > 2 eps,
    so no constant is within eps of both.  ``margin`` is
    (S[k_max] - S[k_min]) / 2 - eps in floats, for display; the pair is the
    certificate, checked by one exact subtraction.  Where the floats do not
    resolve the pair, the margin can read 0.0: on a rounding tie, where the
    float difference equals 2 eps and the exact one exceeds it, and on int
    sums that their floats round together."""

    k_max: int
    k_min: int
    margin: float


@dataclass(frozen=True)
class CertReport:
    """Decision plus the evidence backing it, and the inputs of the
    threshold: declared noise, block length W and window count K (eps0 is
    ``EPS0``).  A nonzero report carries its window pair and leaves the
    bounds None, since its verdict reads none of them; an inconclusive one
    leaves them None unless the bound decided it."""

    decision: Decision
    reconstruction: PronyModel
    noise_eps: float
    W: int
    K: int
    flags: frozenset = field(default_factory=frozenset)
    certificate_value: Optional[float] = None
    defect_estimate: Optional[float] = None
    threshold: Optional[float] = None
    lipschitz_estimate: Optional[float] = None
    nonzero_witness: Optional[NonzeroWitness] = None

    def to_dict(self) -> dict:
        """The report document: non-finite values are None (JSON null), and
        ``bound_vacuous`` says whether the threshold is infinite.  When L is
        set, the threshold is ``eps_bound(L, K, noise_eps)``."""
        return {
            "decision": self.decision.value,
            "certificate_value": finite_or_none(self.certificate_value),
            "defect": finite_or_none(self.defect_estimate),
            "threshold": finite_or_none(self.threshold),
            "bound_vacuous": self.threshold == math.inf,
            "L": finite_or_none(self.lipschitz_estimate),
            "noise_eps": self.noise_eps,
            "eps0": EPS0,
            "W": self.W,
            "K": self.K,
            "flags": sorted(self.flags),
            "nonzero_witness": self.nonzero_witness._asdict() if self.nonzero_witness else None,
            "model": self.reconstruction.to_dict(),
        }


def eps_bound(L: float, K: int, eps: float) -> float:
    """Quadratic certificate bound exp(L sqrt(K) eps0) * L^2 K eps^2 / 2,
    with eps0 = ``EPS0``.

    Valid for window noise of sup-norm eps within the regime eps <= eps0 on
    which the reconstruction Lipschitz constant L was established.
    """
    if L <= 0.0 or K < 1:
        raise ValueError("L, K must be positive")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps > EPS0:
        raise ValueError(f"eps={eps} exceeds the certified regime eps0={EPS0}")
    if eps == 0.0:
        return 0.0
    exponent = L * math.sqrt(K) * EPS0
    if exponent > 700.0:
        # Conditioning so poor the bound is vacuous.
        return math.inf
    return 0.5 * math.exp(exponent) * L * L * K * eps * eps


def estimate_lipschitz(rates, weights, W: int) -> float:
    """Conditioning of local parameter recovery from window sums.

    L = 1 / sigma_min(J), the operator 2-norm of the inverse of the Jacobian
    J of the first 2d+1 window sums S_k with respect to the rational
    parameters (y_0..y_d, q_1..q_d), at the signal y_n = sum_i w_i a_i^n.
    J is not assembled from a regenerated sequence but by the chain rule
    through the modes phi = (c, a_1..a_d, w_1..w_d) of

        y_n = sum_i w_i a_i^n + c [n = 0],

    which is every solution of the degree-d recurrence (it holds for
    n >= d+1 only, so y_0 never feeds it and enters S_0 alone; the free
    impulse c carries that coordinate).  With H = dS/dphi and
    M = d(y_0..y_d, q)/dphi, J = H M^-1, where

        H[k] = sum over window k of ([n = 0], n w_i a_i^(n-1), a_i^n),
        M    = the same unsummed rows for n = 0..d, then
               dq/da_i = -coeffs of prod_{j != i} (x - a_j)

    (q are the coefficients of prod_i (x - a_i) below its leading 1).  One
    power table over n < (2d+1)W gives H and the y rows of M.  The point
    (c = 0) and the quantity are those of the float window-map Jacobian at
    (y_0..y_d, q); only the arithmetic differs.  Raises ValueError on a
    singular M or J (``LinAlgError`` subclasses it), i.e. on the degenerate
    locus: repeated rates or a vanishing weight.
    """
    smallest = float(np.linalg.svd(_modal_jacobian(rates, weights, W), compute_uv=False)[-1])
    if smallest <= 0.0 or not math.isfinite(smallest):
        raise ValueError("Jacobian is singular")
    return 1.0 / smallest


def _modal_jacobian(rates, weights, W: int) -> np.ndarray:
    """J = H M^-1 of ``estimate_lipschitz``, columns (y_0..y_d, q_1..q_d).

    Raises ``LinAlgError`` when M is singular.
    """
    a = np.asarray(rates, dtype=float)
    w = np.asarray(weights, dtype=float)
    d = a.size
    K = 2 * d + 1
    n = np.arange(K * W)
    powers = a ** n[:, None]
    table = np.zeros((K * W, K))  # row n: dy_n/dphi
    table[0, 0] = 1.0
    table[1:, 1 : d + 1] = n[1:, None] * powers[:-1] * w
    table[:, d + 1 :] = powers
    M = np.zeros((K, K))
    M[: d + 1] = table[: d + 1]
    modes = a.tolist()
    columns = []
    for i in range(d):
        # -prod_{j != i} (x - a_j), leading coefficient first; a product,
        # not a deflation of prod_j (x - a_j), so close rates cancel nothing.
        coeffs = [-1.0]
        for aj in modes[:i] + modes[i + 1 :]:
            coeffs = [c - aj * p for c, p in zip(coeffs + [0.0], [0.0] + coeffs)]
        columns.append(coeffs)
    M[d + 1 :, 1 : d + 1] = np.array(columns).T
    H = table.reshape(K, W, K).sum(axis=1)
    return np.linalg.solve(M.T, H.T).T  # J^T = M^-T H^T


def data_test(w: WindowData, noise_eps: float) -> Optional[NonzeroWitness]:
    """The window pair of a ``nonzero`` verdict, or None within the noise.

    Nonzero iff the half-range (max S - min S) / 2, the sup-norm distance
    from the sums to the constant ray c * (1, ..., 1), exceeds ``noise_eps``:
    no constant is within the noise, so this is sound for every class with
    the constants, and no model flag can veto it.  The distance does not
    depend on sign: finite sums are never malformed, and sums no positive
    signal produces, such as (1, -0.5, 0.25, -0.125), read nonzero when far
    from every constant.  The test compares the floats of the extremes, which
    the reconstruction has checked.  Rounding is monotone and 2 eps exact, so
    it can err only on a tie (max S - min S rounds onto 2 eps) or where an
    extreme is an int its float does not hold; there Fractions decide.
    """
    # Python compares an int and a float exactly, so the extremes come from
    # the stored sums, and turns extreme float differences into inf quietly.
    hi, lo = max(w.sums), min(w.sums)
    k_max, k_min = w.sums.index(hi), w.sums.index(lo)
    top, bottom = float(hi), float(lo)
    beyond = top - bottom > 2.0 * noise_eps
    if top - bottom == 2.0 * noise_eps or top != hi or bottom != lo:
        # Equal extremes (constant windows at zero noise) need no Fractions.
        beyond = hi != lo and Fraction(hi) - Fraction(lo) > 2 * Fraction(noise_eps)
    if not beyond:
        return None
    # Halving first keeps the margin finite for sums of opposite sign near
    # the float range.
    return NonzeroWitness(k_max, k_min, max(top / 2.0 - bottom / 2.0 - noise_eps, 0.0))


def reconstruct_on_locus(model: PronyModel, W: int, K: int) -> tuple | frozenset:
    """The positive samples y_n, n < W K, of a model on the locus and their
    Lipschitz estimate L, or the flags that keep it off; never an exception.

    A degenerate model gives its own flags.  Otherwise its nodes and
    amplitudes are real, and each node mu maps to the sample rate
    a = mu^(1/W), weighted so the geometric block sums reproduce the window
    amplitudes (a node at 1 gives the constant A/W).  This is the
    pipeline's one positivity gate: a node <= 0, or a sample that is not
    positive and finite, gives ``positivity``.  A singular Jacobian
    (repeated rates, a vanishing weight) gives ``lipschitz_singular``.
    """
    if model.degenerate:
        return model.flags
    # Growing modes overflow the powers to inf (and inf * 0 to NaN); the
    # positivity gate and the singular check turn those into flags.
    with np.errstate(over="ignore", invalid="ignore"):
        rates, weights = [], []
        for mu, amp in zip(model.nodes, model.amplitudes):
            if mu <= 0.0:
                return frozenset({POSITIVITY})
            if abs(mu - 1.0) <= 1e-12:
                rates.append(1.0)
                weights.append(amp / W)
            else:
                a = mu ** (1.0 / W)
                rates.append(a)
                weights.append(amp * (1.0 - a) / (1.0 - mu))
        samples = exponential_sum(rates, weights, W * K)
        if not (samples.min() > 0.0 and samples.max() < math.inf):  # NaN fails both
            return frozenset({POSITIVITY})
        try:
            return samples, estimate_lipschitz(rates, weights, W)
        except ValueError:  # LinAlgError included
            return frozenset({LIPSCHITZ_SINGULAR})


def project_and_decide(samples: np.ndarray, L: float, K: int, noise_eps: float) -> dict:
    """The report's fields: ``zero`` iff the threshold
    ``eps_bound(L, K, noise_eps)`` is finite and the certificate of the
    mean-zero log of the samples is at most ``max(threshold,
    CERTIFICATE_FLOOR)``, since an infinite bound holds every value and
    certifies nothing; else ``inconclusive`` with ``bound_exceeded``, where
    the report's ``bound_vacuous`` tells the two cases apart.
    """
    threshold = eps_bound(L, K, noise_eps)
    u = project_mean_zero(np.log(samples))
    value = certificate_value(u)
    zero = threshold < math.inf and value <= max(threshold, CERTIFICATE_FLOOR)
    return dict(
        decision=Decision.ZERO if zero else Decision.INCONCLUSIVE,
        flags=frozenset() if zero else frozenset({BOUND_EXCEEDED}),
        certificate_value=value,
        defect_estimate=math.sqrt(u.dot(u)),  # np.linalg.norm of a real vector
        threshold=threshold,
        lipschitz_estimate=L,
    )


def pipeline(w: WindowData, d: int, noise_eps: float = 0.0) -> CertReport:
    """End-to-end certification of K window sums at declared noise level.

    Three stages decide, in order: ``data_test`` gives ``nonzero``; within
    the noise, ``reconstruct_on_locus`` gives ``inconclusive`` with its
    flags; on the locus, ``project_and_decide`` gives ``zero`` (certified
    neutral) or ``inconclusive``.  Every report carries the Prony model,
    whose own flags stay in it for observability.

    At ``noise_eps`` > 0 zero does not say the signal is constant: a
    constant plus a mode whose window sums stay within the noise gives the
    same data.  It says that every signal y_n = sum_i w_i a_i^n of order at
    most d with real rates a_i > 0 whose window sums are within
    ``noise_eps`` of the data has certificate at most the threshold (or
    ``CERTIFICATE_FLOOR``, if larger).  That is the class
    ``reconstruct_on_locus`` realizes, with a = mu^(1/W).  Negative or
    complex rates lie outside it: at even W, y_n = c (1 + b (-1)^n) has
    exactly constant windows, and its certificate grows without bound as
    b -> 1, so no finite threshold covers it.

    Invalid input raises ValueError: noise outside [0, eps0], a sum beyond
    the float range, or fewer than 2d windows (from the reconstruction).
    """
    W, K = w.block_length, w.count
    if not 0.0 <= noise_eps <= EPS0:  # also rejects NaN, which no comparison admits
        raise ValueError(f"noise_eps={noise_eps} is outside [0, eps0={EPS0}]")
    noise_eps = float(noise_eps)  # the report's document field is a float
    model = prony_reconstruct(w, d)  # raises first on a sum beyond the float range
    witness = data_test(w, noise_eps)
    if witness is not None:
        fields = dict(decision=Decision.NONZERO, nonzero_witness=witness)
    else:
        located = reconstruct_on_locus(model, W, K)
        if isinstance(located, frozenset):
            fields = dict(decision=Decision.INCONCLUSIVE, flags=located)
        else:
            fields = project_and_decide(*located, K, noise_eps)
    return CertReport(reconstruction=model, noise_eps=noise_eps, W=W, K=K, **fields)
