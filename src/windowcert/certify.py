"""Decision layer: the end-to-end pipeline and its noise bound.

The pipeline takes K window sums, recovers an exponential-sum model
(reconstruction step), rebuilds the positive sample configuration over the
observed horizon, projects its log to mean zero, and compares the summed
reciprocal cost (``cost.certificate_value``) against ``eps_bound``, the
threshold set by the declared noise and the Lipschitz estimate of the
reconstruction.  Outcomes are ternary: ``zero`` (certified neutral),
``nonzero`` (certified non-neutral), or ``inconclusive`` (degenerate or
unresolvable data).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cost import certificate_value, project_mean_zero
from .prony import PronyModel, finite_or_none, prony_reconstruct
from .rankcert import jacobian
from .signal import RationalParams, WindowData

POSITIVITY = "positivity"
NEUTRAL_INCONSISTENT = "neutral_inconsistent"
LIPSCHITZ_SINGULAR = "lipschitz_singular"


class Decision(str, enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


# Noise regime on which the reconstruction Lipschitz constant is taken.
EPS0 = 1e-2
# Absolute slack added to the neutral-consistency window check, scaled by
# the magnitude of the first sum; absorbs roundtrip roundoff at eps = 0.
NEUTRAL_SLACK = 1e-9
# Floor on the zero/nonzero decision threshold; absorbs the O(eps_mach^2)
# certificate value that mean-projection roundoff produces on an exactly
# constant configuration when the declared noise (and hence the bound)
# is zero.
CERTIFICATE_FLOOR = 1e-24


@dataclass(frozen=True)
class CertReport:
    """Decision plus the quantitative bounds backing it."""

    decision: Decision
    certificate_value: Optional[float]
    defect_estimate: Optional[float]
    threshold: Optional[float]
    lipschitz_estimate: Optional[float]
    reconstruction: Optional[PronyModel]
    flags: frozenset = field(default_factory=frozenset)

    def to_dict(self) -> dict:
        """The report document: non-finite values are None (JSON null), and
        ``bound_vacuous`` says whether the threshold is infinite."""
        return {
            "decision": self.decision.value,
            "certificate_value": finite_or_none(self.certificate_value),
            "defect": finite_or_none(self.defect_estimate),
            "threshold": finite_or_none(self.threshold),
            "bound_vacuous": self.threshold == math.inf,
            "L": finite_or_none(self.lipschitz_estimate),
            "flags": sorted(self.flags),
            "model": self.reconstruction.to_dict()
            if self.reconstruction is not None
            else None,
        }


def eps_bound(L: float, K: int, eps0: float, eps: float) -> float:
    """Quadratic certificate bound exp(L sqrt(K) eps0) * L^2 K eps^2 / 2.

    Valid for window noise of sup-norm eps within the regime eps <= eps0 on
    which the reconstruction Lipschitz constant L was established.
    """
    if L <= 0.0 or K < 1 or eps0 <= 0.0:
        raise ValueError("L, K, eps0 must be positive")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps > eps0:
        raise ValueError(f"eps={eps} exceeds the certified regime eps0={eps0}")
    if eps == 0.0:
        return 0.0
    exponent = L * math.sqrt(K) * eps0
    if exponent > 700.0:
        # Conditioning so poor the bound is vacuous.
        return math.inf
    return 0.5 * math.exp(exponent) * L * L * K * eps * eps


def estimate_lipschitz(params: RationalParams, W: int) -> float:
    """Conditioning of local parameter recovery from window sums.

    Operator 2-norm of the inverse Jacobian of the window map at ``params``,
    1 / its smallest singular value.  Raises on a singular Jacobian
    (degenerate locus).
    """
    jac = np.asarray(jacobian(params, W), dtype=float)
    smallest = np.linalg.svd(jac, compute_uv=False)[-1]
    if smallest <= 0.0 or not np.isfinite(smallest):
        raise ValueError("Jacobian is singular")
    return float(1.0 / smallest)


def decide_certificate(u, threshold: float) -> Decision:
    """Two-valued coercive decision on a projected log-vector."""
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    value = certificate_value(u)
    return Decision.ZERO if value <= threshold else Decision.NONZERO


def _samples_from_model(model: PronyModel, W: int, n_samples: int):
    """Per-sample reconstruction of the model over the report horizon.

    Each window-sum node mu maps to the sample rate a = mu^(1/W) with weight
    chosen so the geometric block sums reproduce the window amplitudes; a node
    at 1 contributes a constant A/W per sample.  Returns (rates, samples), or
    None when a node is not a positive real (no positive sample realization in
    this family).
    """
    rates = []
    weights = []
    for mu, amp in zip(model.nodes, model.amplitudes):
        mu = complex(mu)
        if abs(mu.imag) > 0.0 or mu.real <= 0.0:
            return None
        mu = mu.real
        amp = complex(amp).real
        if abs(mu - 1.0) <= 1e-12:
            rates.append(1.0)
            weights.append(amp / W)
        else:
            a = mu ** (1.0 / W)
            rates.append(a)
            weights.append(amp * (1.0 - a) / (1.0 - mu))
    n = np.arange(n_samples)
    samples = np.zeros(n_samples)
    for a, w in zip(rates, weights):
        samples = samples + w * a**n
    return rates, samples


def _inconclusive(model: Optional[PronyModel], flags) -> CertReport:
    return CertReport(
        decision=Decision.INCONCLUSIVE,
        certificate_value=None,
        defect_estimate=None,
        threshold=None,
        lipschitz_estimate=None,
        reconstruction=model,
        flags=frozenset(flags),
    )


def pipeline(w: WindowData, d: int, noise_eps: float = 0.0) -> CertReport:
    """End-to-end certification of K window sums at declared noise level.

    Reconstruction failures (degenerate Prony step, non-positive sample
    values, singular conditioning) yield ``inconclusive`` with flags; they
    never escape as exceptions.  Invalid input raises ValueError: noise
    outside [0, eps0], or fewer than 2d windows (from the reconstruction).
    """
    K = w.count
    if not 0.0 <= noise_eps <= EPS0:  # also rejects NaN, which no comparison admits
        raise ValueError(f"noise_eps={noise_eps} is outside [0, eps0={EPS0}]")

    model = prony_reconstruct(w, d)
    if model.degenerate:
        return _inconclusive(model, model.flags)

    horizon = w.block_length * K
    rebuilt = _samples_from_model(model, w.block_length, horizon)
    if rebuilt is None:
        return _inconclusive(model, {POSITIVITY})
    rates, samples = rebuilt
    if not (samples.min() > 0.0 and samples.max() < math.inf):  # NaN fails both
        return _inconclusive(model, {POSITIVITY})

    try:
        # Parameters of the rebuilt signal: the recurrence has the rates as roots.
        recurrence = np.poly(np.asarray(rates))[1:].tolist()
        lipschitz = estimate_lipschitz(
            RationalParams(samples[: d + 1].tolist(), recurrence, d), w.block_length
        )
    except (ValueError, np.linalg.LinAlgError):
        return _inconclusive(model, {LIPSCHITZ_SINGULAR})

    threshold = eps_bound(lipschitz, K, EPS0, noise_eps)
    log_samples = np.log(samples)
    u = project_mean_zero(log_samples)
    value = certificate_value(u)
    defect_estimate = math.sqrt(u.dot(u))  # np.linalg.norm of a real vector

    flags = set()
    if value <= max(threshold, CERTIFICATE_FLOOR):
        # A zero verdict additionally requires the observed windows to be
        # consistent with a constant (neutral) realization within the noise.
        neutral_level = float(np.exp(log_samples.mean()))
        neutral_sums = w.block_length * neutral_level
        slack = noise_eps + NEUTRAL_SLACK * max(1.0, abs(neutral_sums))
        observed = np.asarray(w.sums, dtype=float)
        if np.abs(observed - neutral_sums).max() <= slack:
            decision = Decision.ZERO
        else:
            decision = Decision.INCONCLUSIVE
            flags.add(NEUTRAL_INCONSISTENT)
    else:
        decision = Decision.NONZERO

    return CertReport(
        decision=decision,
        certificate_value=value,
        defect_estimate=defect_estimate,
        threshold=threshold,
        lipschitz_estimate=lipschitz,
        reconstruction=model,
        flags=frozenset(flags),
    )
