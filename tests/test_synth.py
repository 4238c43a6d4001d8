import numpy as np
import pytest

from windowcert.signal import window_sums
from windowcert.synth import (
    add_multiplicative_noise,
    case_a_fixture,
    case_b_fixture,
    collision_pair,
    recurrence_fit_residual,
)

from reference_data import (
    CASE_A_TABLE_OBSERVED,
    CASE_A_TABLE_TRUE,
    CASE_B_OBSERVED,
)


class TestCaseFixtures:
    def test_case_a_observed_verbatim(self):
        assert case_a_fixture().observed_windows == CASE_A_TABLE_OBSERVED

    def test_case_b_observed_verbatim(self):
        assert case_b_fixture().observed_windows == CASE_B_OBSERVED

    def test_case_a_true_regression(self):
        # Coarse guard: true windows recomputed from the mixture stay near
        # the recorded table.  Acceptance criterion 4 is the strict check.
        fixture = case_a_fixture()
        for t, ref in zip(fixture.true_windows, CASE_A_TABLE_TRUE):
            assert t == pytest.approx(ref, abs=5e-6, rel=0.01)

    def test_case_a_shapes(self):
        fixture = case_a_fixture()
        assert fixture.d == 3 and fixture.W == 8
        assert len(fixture.true_windows) == len(fixture.observed_windows) == 12

    def test_case_b_true_within_noise_band(self):
        # The observed windows are a 2% multiplicative draw off the truth, so
        # every entry must sit well inside a 3-sigma band.
        fixture = case_b_fixture()
        for t, o in zip(fixture.true_windows, fixture.observed_windows):
            assert abs(o - t) <= 0.06 * abs(t)

    def test_true_windows_decrease(self):
        for fixture in (case_a_fixture(), case_b_fixture()):
            tw = fixture.true_windows
            assert all(tw[k] > tw[k + 1] > 0.0 for k in range(len(tw) - 1))


class TestNoise:
    def test_deterministic_per_seed(self):
        s = np.linspace(1.0, 2.0, 10)
        np.testing.assert_array_equal(
            add_multiplicative_noise(s, 0.01, 7), add_multiplicative_noise(s, 0.01, 7)
        )

    def test_seed_changes_draw(self):
        s = np.ones(10)
        a = add_multiplicative_noise(s, 0.01, 1)
        b = add_multiplicative_noise(s, 0.01, 2)
        assert not np.array_equal(a, b)

    def test_zero_level_identity(self):
        s = np.linspace(1.0, 2.0, 5)
        np.testing.assert_array_equal(add_multiplicative_noise(s, 0.0, 3), s)

    def test_empirical_level(self):
        draws = add_multiplicative_noise(np.ones(10_000), 0.01, 11)
        assert 0.007 <= np.std(draws - 1.0) <= 0.013

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            add_multiplicative_noise(np.ones(3), -0.1, 0)


class TestCollision:
    def test_windows_identical_inside_horizon(self):
        fixture = case_a_fixture()
        d, W, K = fixture.d, fixture.W, 11
        y_in, y_out, big_n = collision_pair(fixture.mixture, d, W, K)
        assert big_n == W * (K + 1) - 1
        sums_in = window_sums(y_in, W, K + 1).sums
        sums_out = window_sums(y_out, W, K + 1).sums
        assert sums_in == sums_out

    def test_sequences_differ_beyond_horizon(self):
        fixture = case_a_fixture()
        y_in, y_out, big_n = collision_pair(fixture.mixture, fixture.d, 8, 11)
        assert y_in[: big_n + 1] == y_out[: big_n + 1]
        diffs = [n for n, (a, b) in enumerate(zip(y_in, y_out)) if a != b]
        assert diffs and all(n > big_n for n in diffs)
        # Bump height is 1 up to the float rounding of (tiny tail + 1.0).
        assert all(abs(y_out[n] - y_in[n] - 1.0) < 1e-9 for n in diffs)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="need W >= 1 and K >= 0"):
            collision_pair(case_a_fixture().mixture, 3, 0, 11)

    def test_residual_separates_membership(self):
        fixture = case_a_fixture()
        d = fixture.d
        y_in, y_out, big_n = collision_pair(fixture.mixture, d, 8, 11)
        r_in = recurrence_fit_residual(y_in, d, big_n + 1)
        r_out = recurrence_fit_residual(y_out, d, big_n + 1)
        assert r_in <= 1e-10
        assert r_out >= 0.5


class TestFitResidual:
    def test_exact_geometric_tail(self):
        y = [2.0 * 0.5**n for n in range(40)]
        assert recurrence_fit_residual(y, 1, 5) <= 1e-12

    def test_bumped_tail(self):
        y = [0.0] * 40
        y[20] += 1.0
        y[29] += 1.0
        assert recurrence_fit_residual(y, 2, 10) >= 0.5

    def test_range_validation(self):
        with pytest.raises(ValueError):
            recurrence_fit_residual([1.0, 2.0, 3.0], 2, 1)
        with pytest.raises(ValueError):
            recurrence_fit_residual([1.0, 2.0, 3.0], 1, 3)
