"""Canonical reciprocal cost and the scalar bounds derived from it.

The cost of a positive ratio x is J(x) = (x + 1/x)/2 - 1, equivalently
(x-1)^2/(2x).  In log-coordinates t = log x it becomes cosh(t) - 1, which
``loggeom.certificate_value`` sums over a configuration.  All downstream
certification thresholds (Lipschitz constants, noise tolerances, quadratic
upper bounds) are computed from these two forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Below this distance from 1, evaluate via (x-1)^2/(2x) to avoid cancellation.
_NEAR_ONE = 1e-4


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
    if abs(x - 1.0) < _NEAR_ONE:
        d = x - 1.0
        return d * d / (2.0 * x)
    return 0.5 * (x + 1.0 / x) - 1.0


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
