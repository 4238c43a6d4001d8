import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from windowcert.cost import (
    RatioBand,
    certificate_value,
    cost,
    lipschitz_constant,
    project_mean_zero,
    quadratic_upper_bound,
    rcl_residual,
    tolerance_epsilon,
)

finite_vectors = hnp.arrays(
    float,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-50, max_value=50),
)


def cosh_series(t, terms=40):
    """Independent cosh evaluation by direct power-series summation."""
    total = 0.0
    term = 1.0
    for m in range(1, terms + 1):
        term *= t * t / ((2 * m - 1) * (2 * m))
        total += term
    return total  # cosh(t) - 1


class TestCost:
    def test_normalization(self):
        assert cost(1.0) == 0.0

    def test_exact_quarter(self):
        assert cost(2.0) == 0.25
        assert cost(0.5) == 0.25

    def test_near_one_branch_accuracy(self):
        # Near x = 1, where (x + 1/x)/2 - 1 cancels, the cost still matches
        # (x-1)^2/(2x) in Fractions to the last bits.  abs=0: approx's
        # default abs=1e-12 would dwarf costs of order 1e-8.
        for x in (1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 9e-5, 1.00015, 0.9998, 1.001, 1.01):
            exact = Fraction(x)
            expected = float((exact - 1) ** 2 / (2 * exact))
            assert cost(x) == pytest.approx(expected, rel=1e-15, abs=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            cost(bad)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_reciprocity(self, x):
        # 1.0/x is itself rounded; near x = 1 that half-ulp perturbation
        # moves the tiny cost by ~|x - 1| * ulp, so the tolerance carries a
        # sqrt(cost)-scaled term alongside the relative one.
        a, b = cost(x), cost(1.0 / x)
        tol = 1e-11 * (a + b) + 1e-15 * math.sqrt(a + b) + 1e-30
        assert abs(a - b) <= tol

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_nonnegative(self, x):
        assert cost(x) >= 0.0


class TestCostLog:
    """The log form cosh(t) - 1 = J(e^t) is the certificate of one coordinate."""

    def test_zero(self):
        assert certificate_value([0.0]) == 0.0

    def test_log_two(self):
        assert certificate_value([math.log(2.0)]) == pytest.approx(0.25, rel=1e-14)

    def test_series_oracle_at_one(self):
        assert certificate_value([1.0]) == pytest.approx(cosh_series(1.0), rel=1e-12)

    def test_matches_cost_of_exp(self):
        for t in np.linspace(-5, 5, 101):
            assert certificate_value([t]) == pytest.approx(cost(math.exp(t)), rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            certificate_value([math.inf])

    @given(st.floats(min_value=-30, max_value=30))
    def test_coercivity_sandwich(self, t):
        value = certificate_value([t])
        assert value >= 0.5 * t * t
        assert value <= quadratic_upper_bound(t) or t == 0.0


class TestSeparable:
    """The certificate of u is the separable cost sum_i J(x_i) of x = exp(u)."""

    def test_all_ones(self):
        assert certificate_value(np.log([1.0, 1.0, 1.0])) == 0.0

    def test_pair(self):
        assert certificate_value(np.log([2.0, 0.5])) == pytest.approx(0.5, rel=1e-15)

    def test_componentwise_oracle(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.2, 5.0, 5)
        assert certificate_value(np.log(xs)) == pytest.approx(
            sum(cost(x) for x in xs), rel=1e-14
        )

class TestBandBounds:
    def test_band_validation(self):
        with pytest.raises(ValueError):
            RatioBand(2.0, 1.0)
        with pytest.raises(ValueError):
            RatioBand(0.0, 1.0)
        with pytest.raises(ValueError, match="band endpoints must be finite"):
            RatioBand(1.0, math.inf)

    @pytest.mark.parametrize(
        "a,expected", [(1.0, 1.0), (0.5, 2.5), (2.0, 0.625)]
    )
    def test_lipschitz_constant(self, a, expected):
        assert lipschitz_constant(RatioBand(a, 10.0)) == expected

    def test_lipschitz_property(self):
        rng = np.random.default_rng(11)
        band = RatioBand(0.3, 6.0)
        L = lipschitz_constant(band)
        xs = rng.uniform(band.lower, band.upper, (10_000, 2))
        for x, y in xs:
            assert abs(cost(x) - cost(y)) <= L * abs(x - y) * (1 + 1e-12) + 1e-300

    @pytest.mark.parametrize(
        "a,b,delta,expected",
        [(1.0, 1.0, 0.0, 0.0), (1.0, 2.0, 0.1, 0.2), (0.5, 4.0, 0.01, 0.1)],
    )
    def test_tolerance_epsilon(self, a, b, delta, expected):
        assert tolerance_epsilon(RatioBand(a, b), delta) == pytest.approx(
            expected, rel=1e-14
        )

    def test_tolerance_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            tolerance_epsilon(RatioBand(1.0, 2.0), -0.1)


class TestRclResidual:
    def test_identity_point(self):
        assert rcl_residual(1.0, 1.0) == 0.0

    def test_exact_rational_oracle(self):
        # The composition identity is an exact rational identity, so the
        # residual in Fraction arithmetic is identically zero.
        def j(x):
            return (x + 1 / x) / 2 - 1

        for x, y in [(Fraction(2), Fraction(3)), (Fraction(7, 3), Fraction(11, 5))]:
            assert j(x * y) + j(x / y) - 2 * j(x) - 2 * j(y) - 2 * j(x) * j(y) == 0

    @pytest.mark.parametrize("x,y", [(2.0, 3.0), (math.e, math.e**2), (0.01, 317.0)])
    def test_float_residual_small(self, x, y):
        terms = [cost(x * y), cost(x / y), 2 * cost(x), 2 * cost(y)]
        scale = 1.0 + max(abs(t) for t in terms)
        assert abs(rcl_residual(x, y)) <= 1e-12 * scale


def test_quadratic_upper_bound_values():
    assert quadratic_upper_bound(0.0) == 0.0
    assert quadratic_upper_bound(1.0) == pytest.approx(math.e / 2, rel=1e-15)
    assert quadratic_upper_bound(-1.0) == quadratic_upper_bound(1.0)
    with pytest.raises(ValueError, match="t must be finite"):
        quadratic_upper_bound(math.nan)


def test_calibration_second_difference():
    # Second divided difference of cosh(t) - 1 at 0 equals the unit curvature.
    h = 1e-4
    second = (
        certificate_value([h]) - 2 * certificate_value([0.0]) + certificate_value([-h])
    ) / (h * h)
    assert second == pytest.approx(1.0, abs=1e-6)


class TestProjection:
    def test_example(self):
        np.testing.assert_allclose(project_mean_zero([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_constant_maps_to_zero(self):
        np.testing.assert_array_equal(project_mean_zero([7.0, 7.0, 7.0]), [0.0, 0.0, 0.0])

    @given(finite_vectors)
    def test_idempotent(self, y):
        once = project_mean_zero(y)
        np.testing.assert_allclose(project_mean_zero(once), once, atol=1e-12)

    @given(finite_vectors, st.floats(min_value=-10, max_value=10))
    def test_shift_invariance(self, y, t):
        np.testing.assert_allclose(
            project_mean_zero(y + t), project_mean_zero(y), atol=1e-10
        )

    @given(finite_vectors)
    def test_orthogonal_to_ones(self, y):
        p = project_mean_zero(y)
        assert abs(p.sum()) <= 1e-9 * (1 + np.abs(y).sum())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_mean_zero([1.0, math.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            project_mean_zero([[1.0, 2.0]])


class TestCertificateValue:
    def test_zero_vector(self):
        assert certificate_value(np.zeros(4)) == 0.0

    def test_symmetric_pair(self):
        expected = 2.0 * (math.cosh(1.0) - 1.0)  # 1.0861612696304874
        assert certificate_value([1.0, -1.0]) == pytest.approx(expected, rel=1e-14)

    def test_matches_componentwise_cosh(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(-3, 3, 8)
        expected = sum(math.cosh(t) - 1.0 for t in u)
        assert certificate_value(u) == pytest.approx(expected, rel=1e-13)

    @given(finite_vectors)
    def test_coercive_lower_bound(self, u):
        # Subnormal results (|u| below about 1e-154) are rounded to an
        # absolute grid of step math.ulp(0.0), which no relative slack covers.
        slack = 4 * len(u) * math.ulp(0.0)
        assert certificate_value(u) >= 0.5 * float(np.dot(u, u)) * (1 - 1e-12) - slack

    def test_dominates_half_defect_squared(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.uniform(0.05, 20.0, 7)
            u = project_mean_zero(np.log(x))
            assert certificate_value(u) >= 0.5 * np.linalg.norm(u) ** 2 * (1 - 1e-12)
