import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from windowcert.cost import certificate_value, project_mean_zero

finite_vectors = hnp.arrays(
    float,
    st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-50, max_value=50),
)


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
