"""Log-coordinate geometry: mean-zero projection and certificate value.

A positive configuration x is mapped to y = log x.  The mean-zero projection
P(y) = y - mean(y) removes the global scale; its coordinates sum to zero, so
the projection enforces the conservation constraint.  The Euclidean norm of
P(y) is the defect.  The certificate value sums the reciprocal cost over the
projected coordinates and dominates defect^2 / 2.
"""
from __future__ import annotations

import numpy as np


def _as_finite_vector(y, name: str = "y") -> np.ndarray:
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector of length >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    return arr


def project_mean_zero(y) -> np.ndarray:
    """Subtract the mean: the orthogonal projection onto the sum-zero subspace."""
    arr = _as_finite_vector(y)
    return arr - arr.mean()


def certificate_value(u) -> float:
    """Total reciprocal cost of exp(u): sum_i (cosh(u_i) - 1).

    For mean-zero u this dominates ||u||^2 / 2, so a vanishing certificate
    forces u = 0.
    """
    arr = _as_finite_vector(u, "u")
    s = np.sinh(0.5 * arr)
    return float(np.sum(2.0 * s * s))
