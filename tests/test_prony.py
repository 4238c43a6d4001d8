import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from windowcert.prony import (
    COMPLEX_NODES,
    HANKEL_SINGULAR,
    PronyModel,
    REPEATED_NODES,
    ZERO_NODE,
    char_roots,
    prony_reconstruct,
    solve_amplitudes,
    solve_recurrence_coeffs,
)
from windowcert.signal import WindowData


class TestRecurrenceCoeffs:
    def test_single_geometric(self):
        # S_k = 2^k satisfies S_{k+1} - 2 S_k = 0, so a_1 = -2.
        coeffs, condition, flags = solve_recurrence_coeffs([1.0, 2.0], 1)
        assert coeffs[0] == pytest.approx(-2.0, rel=1e-14)
        assert not flags
        assert condition >= 1.0

    def test_two_node_system(self):
        # mu = (3, 2): char poly t^2 - 5t + 6, S_k = 3^k + 2^k.
        S = [2.0, 5.0, 13.0, 35.0]
        coeffs, _, flags = solve_recurrence_coeffs(S, 2)
        assert not flags
        np.testing.assert_allclose(coeffs, (-5.0, 6.0), rtol=1e-12)

    def test_singular_hankel_flagged(self):
        # S_k = 2^k fit at d=2: Hankel [[1,2],[2,4]] is rank one.
        _, condition, flags = solve_recurrence_coeffs([1.0, 2.0, 4.0, 8.0], 2)
        assert HANKEL_SINGULAR in flags
        assert condition == np.inf or condition > 1e12

    def test_all_zero_sums(self):
        _, _, flags = solve_recurrence_coeffs([0.0, 0.0], 1)
        assert HANKEL_SINGULAR in flags

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            solve_recurrence_coeffs([1.0, 2.0, 4.0], 2)


class TestCharRoots:
    def test_quadratic(self):
        nodes, flags = char_roots((-5.0, 6.0))
        assert not flags
        np.testing.assert_allclose(nodes, (3.0, 2.0), rtol=1e-14)

    def test_ordering_by_modulus_then_real(self):
        # Roots of (t-2)(t+2)(t-1) = t^3 - t^2 - 4t + 4, ordered 2, -2, 1.
        nodes, _ = char_roots((-1.0, -4.0, 4.0))
        np.testing.assert_allclose(nodes, (2.0, -2.0, 1.0), atol=1e-12)

    def test_zero_node_flag(self):
        nodes, flags = char_roots((-1.0, 0.0))  # t^2 - t = t(t - 1)
        assert ZERO_NODE in flags

    def test_repeated_node_flag(self):
        _, flags = char_roots((-2.0, 1.0))  # (t - 1)^2
        assert REPEATED_NODES in flags

    def test_complex_flag(self):
        nodes, flags = char_roots((0.0, 1.0))  # t^2 + 1
        assert COMPLEX_NODES in flags
        assert all(isinstance(n, complex) for n in nodes)

    def test_real_cast_when_unflagged(self):
        nodes, flags = char_roots((-5.0, 6.0))
        assert not flags
        assert all(isinstance(n, float) for n in nodes)

    def test_newton_polish_accuracy(self):
        # Well-separated roots recovered to near machine precision.
        true = np.array([0.9, 0.5, 0.2, 0.05])
        poly = np.poly(true)
        nodes, flags = char_roots(tuple(poly[1:]))
        assert not flags
        np.testing.assert_allclose(sorted(nodes, reverse=True), sorted(true, reverse=True), rtol=1e-13)


class TestAmplitudes:
    def test_single_node(self):
        amps, _, flags = solve_amplitudes([1.0, 2.0], (2.0,), )
        assert amps == (1.0,)
        assert not flags

    def test_two_nodes(self):
        # S_0 = 5, S_1 = 8 at nodes (2, 1): A = (3, 2).
        amps, _, flags = solve_amplitudes([5.0, 8.0], (2.0, 1.0))
        np.testing.assert_allclose(amps, (3.0, 2.0), rtol=1e-13)
        assert not flags

    def test_repeated_nodes_raise(self):
        with pytest.raises(ValueError):
            solve_amplitudes([1.0, 2.0], (1.0, 1.0))

    def test_zero_amplitude_flag(self):
        from windowcert.prony import ZERO_AMPLITUDE

        amps, _, flags = solve_amplitudes([1.0, 2.0], (2.0, 1.0))
        # S_k = 2^k exactly: second amplitude vanishes.
        assert ZERO_AMPLITUDE in flags
        assert abs(amps[1]) < 1e-12


class TestReconstruct:
    def test_single_geometric(self):
        model = prony_reconstruct([3.0, 1.5, 0.75, 0.375], 1)
        assert not model.degenerate
        assert model.nodes[0] == pytest.approx(0.5, rel=1e-13)
        assert model.amplitudes[0] == pytest.approx(3.0, rel=1e-13)

    def test_predict_roundtrip(self):
        model = prony_reconstruct([2.0, 5.0, 13.0, 35.0], 2)
        np.testing.assert_allclose(
            model.predict(np.arange(6)),
            [2.0, 5.0, 13.0, 35.0, 97.0, 275.0],
            rtol=1e-11,
        )

    def test_degenerate_short_circuit(self):
        model = prony_reconstruct([1.0, 2.0, 4.0, 8.0], 2)
        assert model.degenerate
        assert HANKEL_SINGULAR in model.flags
        assert model.amplitudes == ()

    def test_extra_windows_ignored(self):
        base = [2.0, 5.0, 13.0, 35.0]
        a = prony_reconstruct(base, 2)
        b = prony_reconstruct(base + [97.0, 275.0, 793.0], 2)
        np.testing.assert_allclose(a.nodes, b.nodes, rtol=1e-13)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=1e-13)

    def test_accepts_window_data(self):
        data = WindowData((3.0, 1.5), 2, 2)
        model = prony_reconstruct(data, 1)
        assert model.nodes[0] == pytest.approx(0.5, rel=1e-14)

    def test_canonical_order_invariance(self):
        # The same node set in any generation order yields one canonical model.
        mu = np.array([0.8, 0.3, 0.55])
        amp = np.array([1.0, 2.0, 0.7])
        for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            S = [(amp[perm] * mu[perm] ** k).sum() for k in range(6)]
            model = prony_reconstruct(S, 3)
            np.testing.assert_allclose(model.nodes, (0.8, 0.55, 0.3), rtol=1e-9)
            np.testing.assert_allclose(model.amplitudes, (1.0, 0.7, 2.0), rtol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_random_roundtrip(self, d, rnd):
        # Well-separated nodes in [0.1, 0.9] with unit-scale amplitudes are
        # recovered to 1e-6 relative accuracy.
        while True:
            mu = sorted(
                (rnd.uniform(0.1, 0.9) for _ in range(d)), reverse=True
            )
            if all(mu[i] - mu[i + 1] >= 0.05 for i in range(d - 1)):
                break
        amp = [rnd.uniform(0.5, 2.0) for _ in range(d)]
        S = [sum(a * m**k for m, a in zip(mu, amp)) for k in range(2 * d)]
        model = prony_reconstruct(S, d)
        assert not model.degenerate
        np.testing.assert_allclose(model.nodes, mu, rtol=1e-6)
        np.testing.assert_allclose(model.amplitudes, amp, rtol=1e-6)

    def test_json_roundtrip(self):
        model = prony_reconstruct([2.0, 5.0, 13.0, 35.0], 2)
        back = PronyModel.from_dict(model.to_dict())
        np.testing.assert_allclose(back.nodes, model.nodes)
        np.testing.assert_allclose(back.amplitudes, model.amplitudes)
        assert back.flags == model.flags

    def test_json_non_finite_conditions_are_null(self):
        model = prony_reconstruct([1.0, 2.0, 4.0, 8.0], 2)
        assert model.vandermonde_condition == np.inf
        obj = model.to_dict()
        assert obj["vandermonde_condition"] is None
        back = PronyModel.from_dict(model.to_dict())
        assert back.vandermonde_condition == np.inf

    def test_json_roundtrip_complex(self):
        model = prony_reconstruct([1.0, 0.5, -1.0, -0.5, 1.0, 0.5], 2)
        back = PronyModel.from_dict(model.to_dict())
        assert back.flags == model.flags
        np.testing.assert_allclose(
            [complex(v) for v in back.nodes], [complex(v) for v in model.nodes]
        )
