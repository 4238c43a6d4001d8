import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from windowcert.prony import (
    COMPLEX_NODES,
    HANKEL_SINGULAR,
    IMAG_RATIO,
    NEWTON_STEPS,
    NODE_SEPARATION,
    REPEATED_NODES,
    SINGULAR_RATIO,
    ZERO_AMPLITUDE,
    ZERO_AMPLITUDE_RATIO,
    ZERO_NODE,
    ZERO_NODE_RATIO,
    char_roots,
    prony_reconstruct,
    solve_amplitudes,
    solve_recurrence_coeffs,
)
from windowcert.signal import WindowData
from windowcert.synth import add_multiplicative_noise, case_a_fixture, case_b_fixture


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

    def test_subnormal_coefficients_give_finite_flagged_nodes(self):
        # t^4 + 1e-313 (t^3 + t) + t^2: the Newton step at the two roots near
        # 0 overflows.  Those roots keep their eigenvalue estimates, so every
        # node is finite and the zero and repeated nodes are flagged.
        coeffs = (-2.2250738585e-313, 1.0, -2.2250738585e-313, 0.0)
        with np.errstate(all="ignore"):
            nodes, flags = char_roots(coeffs)
        assert all(np.isfinite(complex(v)) for v in nodes)
        assert {ZERO_NODE, REPEATED_NODES} <= flags

    def test_subnormal_coefficients_warn_nothing(self):
        # The overflowing Newton step of the test above is expected, so it
        # must not reach stderr as numpy RuntimeWarnings (numpy's default
        # error settings, stated here so that no caller's setting hides one).
        coeffs = (-2.2250738585e-313, 1.0, -2.2250738585e-313, 0.0)
        defaults = dict(divide="warn", over="warn", under="ignore", invalid="warn")
        with np.errstate(**defaults), warnings.catch_warnings():
            warnings.simplefilter("error")
            char_roots(coeffs)

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
        # The recovered sum of exponentials extends the sequence past the 2d
        # sums it was built from.
        model = prony_reconstruct([2.0, 5.0, 13.0, 35.0], 2)
        mu = np.array(model.nodes)
        amp = np.array(model.amplitudes)
        np.testing.assert_allclose(
            [(amp * mu**k).sum() for k in range(6)],
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
        obj = model.to_dict()
        assert obj == {
            "nodes": list(model.nodes),
            "amplitudes": list(model.amplitudes),
            "char_coeffs": list(model.char_coeffs),
            "hankel_condition": model.hankel_condition,
            "vandermonde_condition": model.vandermonde_condition,
            "flags": [],
        }
        assert json.loads(json.dumps(obj, allow_nan=False)) == obj

    def test_json_non_finite_conditions_are_null(self):
        model = prony_reconstruct([1.0, 2.0, 4.0, 8.0], 2)
        assert model.vandermonde_condition == np.inf
        obj = model.to_dict()
        assert obj["vandermonde_condition"] is None
        assert obj["hankel_condition"] == model.hankel_condition  # finite: kept
        assert obj["nodes"] == obj["amplitudes"] == []
        assert obj["flags"] == [HANKEL_SINGULAR]

    def test_json_roundtrip_complex(self):
        model = prony_reconstruct([1.0, 0.5, -1.0, -0.5, 1.0, 0.5], 2)
        obj = model.to_dict()
        assert obj["flags"] == [COMPLEX_NODES]
        assert obj["nodes"] == [
            {"re": v.real, "im": v.imag} for v in map(complex, model.nodes)
        ]
        assert all(isinstance(v, dict) for v in obj["amplitudes"])
        assert obj["char_coeffs"] == list(model.char_coeffs)
        assert json.loads(json.dumps(obj, allow_nan=False)) == obj


# Reference versions of the three Prony stages written with numpy's
# polynomial helpers, list-built matrices and numpy scalar nodes.  The
# module's versions must return bit-identical results.


def _list_hankel_coeffs(S, d):
    s = np.asarray(S, dtype=float)
    hankel = np.array([[s[i + j] for j in range(d)] for i in range(d)])
    lhs = np.array([[s[k + d - m] for m in range(1, d + 1)] for k in range(d)])
    rhs = -s[d : 2 * d]
    sv = np.linalg.svd(hankel, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    flags = set()
    if sv[0] == 0.0 or sv[-1] < SINGULAR_RATIO * sv[0]:
        flags.add(HANKEL_SINGULAR)
        coeffs = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    else:
        coeffs = np.linalg.solve(lhs, rhs)
    return tuple(float(c) for c in coeffs), condition, flags


def _numpy_char_roots(coeffs):
    d = len(coeffs)
    poly = np.concatenate([[1.0], np.asarray(coeffs, dtype=float)])
    roots = np.roots(poly)
    dpoly = np.polyder(poly)
    for _ in range(NEWTON_STEPS):
        num = np.polyval(poly, roots)
        den = np.polyval(dpoly, roots)
        safe = np.where(np.abs(den) > 0.0, den, 1.0)
        step = np.where(np.abs(den) > 0.0, num / safe, 0.0)
        roots = np.where(np.isfinite(step), roots - step, roots)
    roots = sorted(
        roots, key=lambda v: (-abs(complex(v)), -complex(v).real, -complex(v).imag)
    )
    flags = set()
    mags = [abs(r) for r in roots]
    top = max(mags) if mags else 0.0
    if top > 0.0:
        if min(mags) < ZERO_NODE_RATIO * top:
            flags.add(ZERO_NODE)
        min_sep = min(
            (abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d)),
            default=np.inf,
        )
        if min_sep < NODE_SEPARATION * top:
            flags.add(REPEATED_NODES)
        if any(abs(r.imag) > IMAG_RATIO * abs(r) for r in roots):
            flags.add(COMPLEX_NODES)
    else:
        flags.add(ZERO_NODE)
    if COMPLEX_NODES not in flags:
        roots = [r.real for r in roots]
    return tuple(roots), flags


def _scalar_vandermonde_amplitudes(S, nodes):
    s = np.asarray(S, dtype=float)
    d = len(nodes)
    if len(set(nodes)) != d:
        raise ValueError("nodes must be distinct")
    vdm = np.array([[mu**k for mu in nodes] for k in range(d)])
    sv = np.linalg.svd(vdm, compute_uv=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    amps = np.linalg.solve(vdm, s[:d].astype(vdm.dtype))
    flags = set()
    mags = np.abs(amps)
    if mags.max() == 0.0 or mags.min() < ZERO_AMPLITUDE_RATIO * mags.max():
        flags.add(ZERO_AMPLITUDE)
    if np.iscomplexobj(amps):
        return tuple(complex(a) for a in amps), condition, flags
    return tuple(float(a) for a in amps), condition, flags


def _bits(values):
    """Real or complex, and the exact bits: -0.0 and 0.0 differ."""
    return [
        (isinstance(v, complex), complex(v).real.hex(), complex(v).imag.hex())
        for v in values
    ]


def _exact(fn, *args):
    """The parts of fn's result with every number as its bits, or the type of
    the ValueError (LinAlgError included) that fn raises."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc)
    parts = []
    for part in result:
        if isinstance(part, float):
            part = _bits([part])
        elif isinstance(part, tuple):
            part = _bits(part)
        parts.append(part)
    return parts


_VALUE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@st.composite
def monic_coefficients(draw):
    """(a_1..a_d), d in 1..6: free coefficients, or those of a product of
    real, repeated and complex-conjugate roots; the last 0..d are exact zeros."""
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        coeffs = draw(st.lists(_VALUE, min_size=d, max_size=d))
    else:
        roots = []
        while len(roots) < d:
            r = draw(_VALUE)
            kind = draw(st.sampled_from(("real", "repeat", "pair")))
            if kind == "pair" and len(roots) <= d - 2:
                im = draw(st.floats(1e-3, 2.0))
                roots += [complex(r, im), complex(r, -im)]
            elif kind == "repeat" and roots:
                roots.append(roots[-1])
            else:
                roots.append(r)
        coeffs = np.poly(roots).real[1:].tolist()
    zeros = draw(st.integers(0, d))
    return tuple(coeffs[: d - zeros]) + (0.0,) * zeros


def _case_study_sums():
    """Window sums of cases A and B: true, observed, and redrawn with noise."""
    out = []
    for fixture in (case_a_fixture(), case_b_fixture()):
        out.append((fixture.true_windows, fixture.d))
        out.append((fixture.observed_windows, fixture.d))
        for level in (1e-6, 1e-3, 1e-2):
            for seed in range(10):
                sums = add_multiplicative_noise(fixture.true_windows, level, seed)
                out.append((tuple(sums.tolist()), fixture.d))
    return out


class TestBitIdentity:
    """Each stage equals its reference bit for bit: nodes, amplitudes,
    coefficients, condition numbers and flags, or the same exception."""

    @settings(max_examples=400, deadline=None)
    @given(monic_coefficients())
    @example((-1.0, 0.0))  # a zero root, stripped by np.roots
    @example((0.0, 0.0, 0.0))
    @example((-2.0, 1.0))  # a double root
    @example((0.0, 1.0))  # +-i
    @example((-0.0, 0.0))
    @example((-2.2250738585e-313, 1.0, -2.2250738585e-313, 0.0))  # overflowing step
    def test_char_roots_matches_numpy_reference(self, coeffs):
        assert _exact(char_roots, coeffs) == _exact(_numpy_char_roots, coeffs)

    @settings(max_examples=300, deadline=None)
    @given(
        monic_coefficients(),
        st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=6, max_size=6),
    )
    def test_amplitudes_match_scalar_vandermonde(self, coeffs, sums):
        nodes = char_roots(coeffs)[0]
        ref_nodes = _numpy_char_roots(coeffs)[0]
        assert _exact(solve_amplitudes, sums, nodes) == _exact(
            _scalar_vandermonde_amplitudes, sums, ref_nodes
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.floats(-1e3, 1e3, allow_nan=False),
                    min_size=2 * d,
                    max_size=2 * d + 3,
                ),
            )
        )
    )
    @example((2, [1.0, 2.0, 4.0, 8.0]))  # rank-one Hankel: the lstsq branch
    @example((1, [0.0, 0.0]))
    def test_recurrence_coeffs_match_list_hankel(self, case):
        d, sums = case
        assert _exact(solve_recurrence_coeffs, sums, d) == _exact(
            _list_hankel_coeffs, sums, d
        )

    def test_case_studies(self):
        for sums, d in _case_study_sums():
            coeffs = solve_recurrence_coeffs(sums, d)[0]
            assert _exact(solve_recurrence_coeffs, sums, d) == _exact(
                _list_hankel_coeffs, sums, d
            )
            assert _exact(char_roots, coeffs) == _exact(_numpy_char_roots, coeffs)
            assert _exact(solve_amplitudes, sums, char_roots(coeffs)[0]) == _exact(
                _scalar_vandermonde_amplitudes, sums, _numpy_char_roots(coeffs)[0]
            )
