"""Canonical reciprocal cost, its log form, and the bounds derived from it.

The cost of a positive ratio x is J(x) = (x + 1/x)/2 - 1, equivalently
(x-1)^2/(2x).  In log-coordinates t = log x it becomes cosh(t) - 1.  A
positive configuration x is mapped to y = log x and projected to mean zero,
P(y) = y - mean(y); the projected coordinates sum to zero, so the projection
enforces the conservation constraint.  ``certificate_value`` sums the log-form
cost over the projected coordinates and dominates ||P(y)||^2 / 2.  The scalar
bounds (Lipschitz constants, noise tolerances, quadratic upper bounds) and
the epsilon-tolerant candidate ranking are computed from these forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class RatioBand:
    """Closed interval [lower, upper] of admissible positive ratios."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("band endpoints must be finite")
        if not 0.0 < self.lower <= self.upper:
            raise ValueError(
                f"band requires 0 < lower <= upper, got [{self.lower}, {self.upper}]"
            )

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _check_positive(x: float, name: str = "x") -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return x


def cost(x: float) -> float:
    """Reciprocal cost J(x) = (x + 1/x)/2 - 1 for x > 0.

    Nonnegative, zero exactly at x = 1, and symmetric under x -> 1/x.
    """
    x = _check_positive(x)
    # (x-1)^2/(2x), free of the cancellation in (x + 1/x)/2 - 1 near x = 1;
    # dividing before the second factor keeps d * d from overflowing.
    d = x - 1.0
    return d * (d / x) / 2.0


def _as_finite_vector(y, name: str = "y") -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector of length >= 1")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def project_mean_zero(y) -> np.ndarray:
    """Subtract the mean: the orthogonal projection onto the sum-zero subspace."""
    arr = _as_finite_vector(y)
    return arr - arr.sum() / arr.size  # arr.mean(), bit for bit


def certificate_value(u) -> float:
    """Total reciprocal cost of exp(u): sum_i (cosh(u_i) - 1).

    For mean-zero u this dominates ||u||^2 / 2, so a vanishing certificate
    forces u = 0.
    """
    arr = _as_finite_vector(u, "u")
    s = np.sinh(0.5 * arr)
    return float((2.0 * s * s).sum())


def lipschitz_constant(band: RatioBand) -> float:
    """Lipschitz constant of the cost on the band: (1 + lower^-2)/2."""
    a = band.lower
    return 0.5 * (1.0 + 1.0 / (a * a))


def tolerance_epsilon(band: RatioBand, delta: float) -> float:
    """Cost perturbation bound for relative ratio error delta on the band.

    A measured ratio with relative error at most delta can move the cost of
    any in-band ratio by at most lipschitz_constant(band) * delta * upper.
    """
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta!r}")
    return lipschitz_constant(band) * delta * band.upper


def rcl_residual(x: float, y: float) -> float:
    """Residual of the composition identity at (x, y).

    J(xy) + J(x/y) - 2J(x) - 2J(y) - 2J(x)J(y); identically zero for the
    reciprocal cost up to roundoff.
    """
    x = _check_positive(x, "x")
    y = _check_positive(y, "y")
    jx = cost(x)
    jy = cost(y)
    return cost(x * y) + cost(x / y) - 2.0 * jx - 2.0 * jy - 2.0 * jx * jy


def quadratic_upper_bound(t: float) -> float:
    """Upper bound exp(|t|) * t^2 / 2 for cosh(t) - 1; tight only at t = 0."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    return 0.5 * math.exp(abs(t)) * t * t


def rank_candidates(band: RatioBand, observed_ratios, delta: float):
    """Pick the candidate with minimal cost of its observed ratio.

    Every observed ratio must lie in the band.  With relative ratio error at
    most delta, the winner's true cost is within 2 * guarantee_eps of the
    true minimum.  Returns (best_index, guarantee_eps).
    """
    ratios = [float(r) for r in observed_ratios]
    for r in ratios:
        if not band.contains(r):
            raise ValueError(f"observed ratio {r} outside band")
    costs = [cost(r) for r in ratios]
    best = min(range(len(costs)), key=costs.__getitem__)
    return best, tolerance_epsilon(band, delta)
