import math

import numpy as np
import pytest

from windowcert.signal import (
    ExponentialMixture,
    RationalParams,
    WindowData,
    exponential_sum,
    generate_sequence,
    mixture_window_params,
    window_sums,
)

from reference_data import (
    WITNESS_D,
    WITNESS_VECTOR,
    WITNESS_W,
    WITNESS_WINDOW_SUMS,
)


class TestRationalParams:
    def test_roundtrip_vector(self):
        p = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)
        assert p.as_vector() == WITNESS_VECTOR
        assert p.initial == (1, 1, 5, 1)
        assert p.recurrence == (2, 2, -2)

    def test_is_integer(self):
        assert RationalParams((1, 2), (3,)).is_integer
        assert not RationalParams((1.0, 2), (3,)).is_integer

    def test_length_validation(self):
        with pytest.raises(ValueError):
            RationalParams((1,), (2,))
        with pytest.raises(ValueError):
            RationalParams((1, 2), (3, 4))
        with pytest.raises(ValueError):
            RationalParams.from_vector((1, 2), 1)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            RationalParams((1,), ())


class TestGenerateSequence:
    def test_hand_iterated_witness_prefix(self):
        # d=3, pi = (1,1,5,1 | 2,2,-2):
        # y_4 = -(2*1 + 2*5 - 2*1) = -10
        # y_5 = -(2*(-10) + 2*1 - 2*5) = 28
        p = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)
        seq = generate_sequence(p, 5)
        assert seq == [1, 1, 5, 1, -10, 28]

    def test_geometric_degree_one(self):
        # y_n = -(q_1 y_{n-1}) with q_1 = -2 doubles each step.
        p = RationalParams((1, 2), (-2,))
        assert generate_sequence(p, 6) == [1, 2, 4, 8, 16, 32, 64]

    def test_integer_exactness(self):
        p = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)
        seq = generate_sequence(p, 55)
        assert all(isinstance(v, int) for v in seq)

    def test_short_horizon_rejected(self):
        p = RationalParams((1, 2), (-2,))
        with pytest.raises(ValueError):
            generate_sequence(p, 0)


class TestWindowSums:
    def test_witness_window_integers(self):
        p = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)
        seq = generate_sequence(p, WITNESS_W * 7 - 1)
        data = window_sums(seq, WITNESS_W, 7)
        assert data.sums == WITNESS_WINDOW_SUMS

    def test_simple_blocks(self):
        data = window_sums([1, 2, 3, 4, 5, 6], 2, 3)
        assert data.sums == (3, 7, 11)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=24)
        b = rng.normal(size=24)
        sa = np.array(window_sums(a, 4, 6).sums)
        sb = np.array(window_sums(b, 4, 6).sums)
        sab = np.array(window_sums(a + 2 * b, 4, 6).sums)
        np.testing.assert_allclose(sab, sa + 2 * sb, rtol=1e-12, atol=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError):
            window_sums([1, 2, 3], 2, 2)


class TestWindowData:
    def test_json_roundtrip(self):
        data = WindowData((1.5, 2.5, -3.0), 4, 3)
        back = WindowData.from_dict(data.to_dict())
        assert back.sums == data.sums
        assert back.block_length == 4
        assert back.count == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowData((1.0,), 0, 1)
        with pytest.raises(ValueError, match=r"^K=3 must equal the number of sums, 1,"):
            WindowData((1.0,), 2, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sums_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WindowData((1.0, bad), 2, 2)

    def test_windows_document_rejects_sums_beyond_float_range(self):
        with pytest.raises(ValueError, match="exceeds the float range"):
            WindowData.from_dict({"W": 8, "K": 2, "sums": [-(10**400), 1.0]})
        # Integers that a float holds stay accepted.
        assert WindowData.from_dict({"W": 8, "K": 1, "sums": [int(1.7e308)]}).count == 1

    def test_huge_exact_sums_accepted(self):
        # Exact sums are ints of any size; float() of this one overflows.
        big = 3**700
        assert WindowData((big, -big), 2, 2).sums == (big, -big)


class TestExponentialMixture:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialMixture((0.5, 0.5), (1.0, 1.0))
        with pytest.raises(ValueError):
            ExponentialMixture((1.5,), (1.0,))
        with pytest.raises(ValueError):
            ExponentialMixture((0.5,), (-1.0,))
        with pytest.raises(ValueError):
            ExponentialMixture((), ())
        with pytest.raises(ValueError, match="W must be >= 1"):
            mixture_window_params(ExponentialMixture((0.5,), (1.0,)), 0)

    def test_sequence_values(self):
        mix = ExponentialMixture((0.5,), (3.0,))
        np.testing.assert_allclose(
            exponential_sum(mix.rates, mix.weights, 4),
            [3.0, 1.5, 0.75, 0.375],
            rtol=1e-15,
        )

    def test_window_params_example(self):
        # a = 0.5, W = 2: mu = 0.25, B = 1 * (1 - 0.25) / (1 - 0.5) = 1.5.
        mix = ExponentialMixture((0.5,), (1.0,))
        nodes, amps = mixture_window_params(mix, 2)
        assert nodes == (0.25,)
        assert amps[0] == pytest.approx(1.5, rel=1e-15)

    def test_block_sum_identity(self):
        # Window sums of the mixture samples must equal sum_i B_i mu_i^k.
        mix = ExponentialMixture((0.7, 0.3, 0.55), (1.0, 2.0, 0.5))
        W, K = 5, 6
        seq = exponential_sum(mix.rates, mix.weights, W * K)
        data = window_sums(seq, W, K)
        nodes, amps = mixture_window_params(mix, W)
        predicted = [
            sum(b * mu**k for mu, b in zip(nodes, amps)) for k in range(K)
        ]
        np.testing.assert_allclose(data.sums, predicted, rtol=1e-10)
