"""Rational (finite-state) signals and the W-block window operator.

A degree-d rational signal is parameterized by initial values (y_0..y_d) and
recurrence coefficients (q_1..q_d); for n >= d+1 it satisfies
y_n = -(q_1 y_{n-1} + ... + q_d y_{n-d}), run by ``extend_recurrence`` (also
for the response sequences of ``rankcert``).  The observable is the vector
of W-block window sums S_k = sum_{j<W} y_{Wk+j}, from ``window_sums``.  The
window nodes and amplitudes of an exponential mixture come from
``mixture_window_params``, and the samples of any exponential sum
y_n = sum_i w_i a_i^n from ``exponential_sum``.

Sequence generation runs in exact integer arithmetic when every parameter is
an integer (Python ints never overflow), and in double precision otherwise.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul

import numpy as np


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class RationalParams:
    """Parameter vector of a degree-<=d rational signal.

    ``recurrence`` (q_1..q_d) sets the degree d, ``initial`` has length d+1
    (trailing zeros in ``recurrence`` allow a lower effective degree).
    """

    initial: tuple
    recurrence: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "recurrence", tuple(self.recurrence))
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if len(self.initial) != self.degree + 1:
            raise ValueError(
                f"initial must have length degree+1={self.degree + 1}, "
                f"got {len(self.initial)}"
            )

    @property
    def degree(self) -> int:
        return len(self.recurrence)

    @classmethod
    def from_vector(cls, pi, degree: int) -> "RationalParams":
        pi = tuple(pi)
        if len(pi) != 2 * degree + 1:
            raise ValueError(f"parameter vector must have length {2 * degree + 1}")
        return cls(pi[: degree + 1], pi[degree + 1 :])

    def as_vector(self) -> tuple:
        return self.initial + self.recurrence

    @property
    def is_integer(self) -> bool:
        return all(_is_int(v) for v in self.as_vector())


@dataclass(frozen=True)
class WindowData:
    """K window sums at block length W: floats, or exact ints of any size."""

    sums: tuple
    block_length: int
    count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "sums", tuple(self.sums))
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.count != (n := len(self.sums)) or self.count < 1:
            raise ValueError(f"K={self.count} must equal the number of sums, {n}, and be >= 1")
        # Exact sums are Python ints of any size; math.isfinite would
        # overflow on those above ~1.8e308.
        if not all(_is_int(s) or math.isfinite(s) for s in self.sums):
            raise ValueError("window sums must be finite")

    def floats(self) -> list:
        """The sums as Python floats: the one float view of them, which the
        windows document and the reconstruction use.  An exact sum beyond
        the float range raises ValueError."""
        try:
            return [float(s) for s in self.sums]
        except OverflowError as exc:
            raise ValueError("a window sum exceeds the float range") from exc

    def to_dict(self) -> dict:
        """The windows document; exact sums are written as floats."""
        return {"W": self.block_length, "K": self.count, "sums": self.floats()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, obj) -> "WindowData":
        """Check and decode a windows document read from outside the program.

        W and K are integers >= 1, where an integral float such as 8.0 counts;
        sums is a list of numbers; other keys are ignored.  Every rejection is
        a ValueError with a one-line reason.
        """
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object with keys W, K and sums")
        for key in ("W", "K", "sums"):
            if key not in obj:
                raise ValueError(f"missing key {key!r}")
        for key in ("W", "K"):
            v = obj[key]
            if not (_is_int(v) or isinstance(v, float) and v.is_integer()) or v < 1:
                raise ValueError(f"{key} must be an integer >= 1")
        sums = obj["sums"]
        if not isinstance(sums, list) or not all(
            _is_int(s) or isinstance(s, float) for s in sums
        ):
            raise ValueError("sums must be a list of numbers")
        data = cls(tuple(sums), int(obj["W"]), int(obj["K"]))
        data.floats()  # the reconstruction computes in floats
        return data


def generate_sequence(params: RationalParams, n_max: int) -> list:
    """y_0..y_{n_max}: the initial values verbatim, then the recurrence with
    source 0 from n = d+1 on.  Integer parameters give an exact sequence."""
    d = params.degree
    if n_max < d:
        raise ValueError(f"n_max must be >= degree {d}, got {n_max}")
    return extend_recurrence(params.recurrence, list(params.initial), repeat(0, n_max - d))


def extend_recurrence(q, x: list, source) -> list:
    """Append x_t = s_t - (q_1 x_{t-1} + ... + q_d x_{t-d}) to x, which holds
    at least d = len(q) terms, for each s_t in ``source``; return x.  The one
    recurrence loop of the package, exact on int and Fraction terms."""
    d = len(q)
    for s in source:
        # x[:-d-1:-1] is (x_{t-1}, ..., x_{t-d}), paired with (q_1, ..., q_d).
        x.append(s - sum(map(mul, q, x[: -d - 1 : -1])))
    return x


def window_sums(sequence, W: int, K: int) -> WindowData:
    """Sum consecutive blocks of length W; exact for integer sequences.

    Each window is a direct slice sum, not a difference of prefix sums, so
    float inputs keep the rounding of a plain left-to-right block sum.
    """
    if W < 1 or K < 1:
        raise ValueError("W and K must be >= 1")
    if len(sequence) < W * K:
        raise ValueError(f"sequence of length {len(sequence)} too short for {K} windows of {W}")
    return WindowData([sum(sequence[W * k : W * k + W]) for k in range(K)], W, K)


@dataclass(frozen=True)
class ExponentialMixture:
    """Positive mixture y_n = sum_j w_j a_j^n with distinct rates in (0, 1)."""

    rates: tuple
    weights: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(a) for a in self.rates))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.rates) != len(self.weights) or not self.rates:
            raise ValueError("rates and weights must be nonempty and equal length")
        if any(not 0.0 < a < 1.0 for a in self.rates):
            raise ValueError("rates must lie strictly in (0, 1)")
        if len(set(self.rates)) != len(self.rates):
            raise ValueError("rates must be pairwise distinct")
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("weights must be strictly positive")


def exponential_sum(rates, weights, n_samples: int) -> np.ndarray:
    """Samples y_0..y_{n_samples-1} of y_n = sum_i w_i a_i^n, for any real
    modes (a_i, w_i), accumulated mode by mode in the given order."""
    n = np.arange(n_samples)
    samples = np.zeros(n_samples)
    for a, w in zip(rates, weights):
        samples += w * a**n
    return samples


def mixture_window_params(mix: ExponentialMixture, W: int):
    """Window-sum nodes and amplitudes induced by the mixture.

    The W-block sums of the mixture satisfy S_k = sum_i B_i mu_i^k with
    mu_i = a_i^W and B_i = w_i (1 - a_i^W) / (1 - a_i).
    """
    if W < 1:
        raise ValueError("W must be >= 1")
    nodes = tuple(a**W for a in mix.rates)
    amps = tuple(
        w * (1.0 - a**W) / (1.0 - a) for a, w in zip(mix.rates, mix.weights)
    )
    return nodes, amps
