import math

import numpy as np
import pytest

from windowcert.certify import (
    Decision,
    NEUTRAL_INCONSISTENT,
    POSITIVITY,
    decide_certificate,
    eps_bound,
    estimate_lipschitz,
    pipeline,
)
from windowcert.cost import CostedCandidates, RatioBand, cost, rank_candidates
from windowcert.signal import RationalParams, WindowData, window_sums
from windowcert.synth import add_multiplicative_noise, case_a_fixture

from reference_data import WITNESS_D, WITNESS_VECTOR, WITNESS_W


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


class TestLipschitz:
    def test_inverse_operator_norm_diagonal(self):
        # y = (1, 0.5), q = (0,): the Jacobian at W = 1 is diag(1, 1, -0.5),
        # whose smallest singular value is 0.5.
        assert estimate_lipschitz(RationalParams((1.0, 0.5), (0.0,), 1), 1) == 2.0

    def test_witness_point_finite(self):
        params = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)
        L = estimate_lipschitz(params, WITNESS_W)
        assert 0.0 < L < math.inf

    def test_singular_point_raises(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(RationalParams((1, 1), (0,), 1), 2)


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
