import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from windowcert.certify import (
    EPS0,
    Decision,
    NEUTRAL_INCONSISTENT,
    POSITIVITY,
    _modal_jacobian,
    decide_certificate,
    eps_bound,
    estimate_lipschitz,
    pipeline,
)
from windowcert.cost import CostedCandidates, RatioBand, cost, rank_candidates
from windowcert.rankcert import jacobian
from windowcert.signal import RationalParams, WindowData, window_sums
from windowcert.synth import add_multiplicative_noise, case_a_fixture, case_b_fixture


class TestEpsBound:
    def test_zero_noise(self):
        assert eps_bound(10.0, 5, 1e-2, 0.0) == 0.0

    def test_unit_point(self):
        assert eps_bound(1.0, 1, 1.0, 1.0) == pytest.approx(math.e / 2, rel=1e-15)

    def test_reference_point(self):
        # L=10, K=7, eps0 = eps = 1e-2:
        # 0.5 * exp(10 * sqrt(7) * 0.01) * 100 * 7 * 1e-4
        expected = 0.5 * math.exp(0.1 * math.sqrt(7.0)) * 700 * 1e-4
        value = eps_bound(10.0, 7, 1e-2, 1e-2)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.0456, rel=1e-3)

    def test_monotone_in_eps(self):
        values = [eps_bound(5.0, 4, 1e-1, e) for e in (0.01, 0.05, 0.1)]
        assert values == sorted(values)

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            eps_bound(5.0, 4, 1e-2, 2e-2)

    def test_vacuous_for_huge_conditioning(self):
        assert eps_bound(1e9, 4, 1e-2, 1e-3) == math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eps_bound(0.0, 1, 1.0, 0.5)
        with pytest.raises(ValueError):
            eps_bound(1.0, 0, 1.0, 0.5)
        with pytest.raises(ValueError):
            eps_bound(1.0, 1, 1.0, -0.5)


def _exact_jacobian(rates, weights, W):
    """``rankcert.jacobian`` in Fractions at (y_0..y_d, q) of
    y_n = sum_i w_i a_i^n, with q the coefficients of prod_i (x - a_i)."""
    d = len(rates)
    a = [Fraction(v) for v in rates]
    w = [Fraction(v) for v in weights]
    y = [sum(wi * ai**m for ai, wi in zip(a, w)) for m in range(d + 1)]
    poly = [Fraction(1)]
    for ai in a:
        poly = [c - ai * p for c, p in zip(poly + [0], [0] + poly)]
    return jacobian(RationalParams(y, poly[1:], d), W)


def _exact_inverse_norm(jac):
    """1/sigma_min of an exact square matrix: the inverse is exact too, and
    sigma_max of its rounding is good to a few ulps at any conditioning."""
    n = len(jac)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(jac)]
    for col in range(n):  # Gauss-Jordan on [J | I]
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * u for v, u in zip(rows[r], rows[col])]
    inverse = np.array([[float(v) for v in r[n:]] for r in rows])
    return float(np.linalg.svd(inverse, compute_uv=False)[0])


@st.composite
def modal_points(draw):
    """(rates, weights, W) with d <= 3 and W <= 12.  The window nodes
    a_i^W lie in [0.1, 0.95] at least 0.05 apart, which keeps the condition
    number of J below about 1e10, where a float L can carry six digits."""
    d = draw(st.integers(1, 3))
    W = draw(st.integers(1, 12))
    tenths = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d, unique=True))
    nodes = [k / 10 + draw(st.floats(0.0, 0.05)) for k in tenths]
    rates = tuple(mu ** (1.0 / W) for mu in nodes)
    weights = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d)))
    return rates, weights, W


_CASE_A = case_a_fixture()
_CASE_B = case_b_fixture()


class TestLipschitz:
    def test_inverse_operator_norm_diagonal(self):
        # d = 1, W = 1: S = (y_0, y_1, y_2) with y_2 = -q_1 y_1, so J over
        # (y_0, y_1, q_1) is [[1, 0, 0], [0, 1, 0], [0, -q_1, -y_1]].  The
        # mode a = 0.5, w = 2 has y_1 = 1 and q_1 = -0.5.
        jac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, -1.0]])
        expected = 1.0 / np.linalg.svd(jac, compute_uv=False)[-1]
        assert estimate_lipschitz((0.5,), (2.0,), 1) == pytest.approx(expected, rel=1e-14)

    def test_witness_point_finite(self):
        mix = _CASE_B.mixture
        L = estimate_lipschitz(mix.rates, mix.weights, _CASE_B.W)
        assert 0.0 < L < math.inf

    def test_singular_point_raises(self):
        # Equal modes make M singular; a zero weight makes dS/da_i vanish.
        with pytest.raises(ValueError):
            estimate_lipschitz((0.5, 0.5), (1.0, 1.0), 3)
        with pytest.raises(ValueError):
            estimate_lipschitz((0.5,), (0.0,), 4)

    @settings(max_examples=100, deadline=None)
    @given(modal_points())
    @example(((1.0,), (2.5,), 4))  # constant windows: rate 1
    @example((_CASE_A.mixture.rates, _CASE_A.mixture.weights, _CASE_A.W))
    @example((_CASE_B.mixture.rates, _CASE_B.mixture.weights, _CASE_B.W))
    def test_closed_form_matches_exact_jacobian(self, point):
        rates, weights, W = point
        exact = _exact_jacobian(rates, weights, W)
        expected = _exact_inverse_norm(exact)
        assert estimate_lipschitz(rates, weights, W) == pytest.approx(expected, rel=1e-6)
        # L cannot see a sign flip of a whole column block (J D, D = +-1 on
        # the diagonal, has the singular values of J); the entries can.
        exact = np.array([[float(v) for v in row] for row in exact])
        error = np.abs(_modal_jacobian(rates, weights, W) - exact).max()
        assert error <= 1e-9 * np.abs(exact).max()


class TestDecideCertificate:
    def test_zero_vector(self):
        assert decide_certificate(np.zeros(5), 0.0) is Decision.ZERO

    def test_above_threshold(self):
        assert decide_certificate([1.0, -1.0], 1.0) is Decision.NONZERO

    def test_below_threshold(self):
        assert decide_certificate([0.01, -0.01], 1e-3) is Decision.ZERO

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            decide_certificate([0.0], -1.0)


def neutral_windows(level: float, W: int, K: int) -> WindowData:
    return WindowData((level * W,) * K, W, K)


class TestPipeline:
    def test_neutral_is_zero(self):
        report = pipeline(neutral_windows(1.0, 8, 7), 1)
        assert report.decision is Decision.ZERO
        assert report.certificate_value == pytest.approx(0.0, abs=1e-12)

    def test_scaled_neutral_is_zero(self):
        report = pipeline(neutral_windows(3.7, 5, 6), 1)
        assert report.decision is Decision.ZERO

    def test_case_a_true_is_nonzero(self):
        fixture = case_a_fixture()
        report = pipeline(fixture.true(), fixture.d)
        assert report.decision is Decision.NONZERO
        assert report.certificate_value > 100.0
        assert report.threshold == 0.0

    def test_degenerate_is_inconclusive(self):
        data = WindowData((1.0, 2.0, 4.0, 8.0), 2, 4)
        report = pipeline(data, 2)
        assert report.decision is Decision.INCONCLUSIVE
        assert report.flags

    def test_alternating_sign_is_inconclusive(self):
        # Node at -0.5 admits no positive sample realization.
        data = WindowData((1.0, -0.5, 0.25, -0.125), 3, 4)
        report = pipeline(data, 1)
        assert report.decision is Decision.INCONCLUSIVE
        assert POSITIVITY in report.flags

    def test_non_neutral_below_threshold_is_inconclusive(self):
        # A mildly perturbed neutral signal with declared noise large enough
        # to swallow the certificate but windows too uneven for a zero call
        # must be flagged, not certified.
        rng = np.random.default_rng(0)
        W, K = 4, 6
        samples = np.exp(rng.normal(0.0, 1e-4, W * K))
        data = window_sums(samples, W, K)
        report = pipeline(data, 1, noise_eps=5e-3)
        if report.decision is Decision.INCONCLUSIVE:
            assert NEUTRAL_INCONSISTENT in report.flags or report.flags
        else:
            assert report.decision in (Decision.ZERO, Decision.NONZERO)

    def test_noise_beyond_regime_before_reconstruction(self):
        # All-zero windows reconstruct to a singular Hankel matrix.
        with pytest.raises(ValueError, match="outside"):
            pipeline(WindowData((0.0,) * 4, 2, 4), 1, noise_eps=0.02)

    def test_too_few_windows(self):
        with pytest.raises(ValueError):
            pipeline(WindowData((1.0, 2.0), 2, 2), 2)

    def test_noise_beyond_regime(self):
        with pytest.raises(ValueError):
            pipeline(neutral_windows(1.0, 4, 4), 1, noise_eps=0.5)
        # NaN passes every ordered check and would certify constant windows
        # as nonzero.
        with pytest.raises(ValueError):
            pipeline(neutral_windows(1.0, 4, 4), 1, noise_eps=math.nan)

    def test_report_json_schema(self):
        report = pipeline(neutral_windows(1.0, 8, 7), 1)
        obj = report.to_dict()
        assert obj["decision"] == "zero"
        assert isinstance(obj["flags"], list)
        assert obj["model"] is not None

    def test_report_carries_threshold_inputs(self):
        obj = pipeline(neutral_windows(1.0, 8, 7), 1, noise_eps=0).to_dict()
        assert (obj["noise_eps"], obj["eps0"], obj["W"], obj["K"]) == (0.0, EPS0, 8, 7)
        assert isinstance(obj["noise_eps"], float)  # also for an int argument

    def test_perturbation_stays_certified(self):
        # 100 small multiplicative perturbations of a neutral configuration:
        # none may flip to a nonzero verdict at the declared noise level.
        base = neutral_windows(1.0, 6, 8)
        for seed in range(100):
            noisy = add_multiplicative_noise(base.sums, 1e-4, seed)
            data = WindowData(tuple(noisy), 6, 8)
            report = pipeline(data, 1, noise_eps=5e-3)
            assert report.decision is not Decision.NONZERO


class TestRankCandidates:
    def test_band_membership_enforced(self):
        band = RatioBand(0.5, 2.0)
        with pytest.raises(ValueError):
            CostedCandidates(10.0, (1.0,), band)

    def test_exact_ranking(self):
        band = RatioBand(0.5, 4.0)
        cands = CostedCandidates(2.0, (2.0, 1.0, 4.0), band)
        ratios = (1.0, 2.0, 0.5)
        best, guarantee = rank_candidates(cands, ratios, 0.01)
        assert best == 0
        assert guarantee == pytest.approx(2.5 * 0.01 * 4.0, rel=1e-14)

    def test_observed_out_of_band(self):
        band = RatioBand(0.5, 2.0)
        cands = CostedCandidates(1.0, (1.0,), band)
        with pytest.raises(ValueError):
            rank_candidates(cands, (3.0,), 0.01)

    def test_guarantee_controls_regret(self):
        # When observed ratios are within delta of the true ones, the winner's
        # true cost exceeds the true minimum by at most 2 * guarantee.
        rng = np.random.default_rng(101)
        band = RatioBand(0.5, 4.0)
        for _ in range(500):
            true = rng.uniform(0.6, 3.5, 4)
            delta = 0.01
            observed = true * (1.0 + rng.uniform(-delta, delta, 4))
            cands = CostedCandidates(1.0, tuple(1.0 / true), band)
            best, guarantee = rank_candidates(cands, tuple(observed), delta)
            true_costs = [cost(r) for r in true]
            assert true_costs[best] <= min(true_costs) + 2 * guarantee + 1e-12
