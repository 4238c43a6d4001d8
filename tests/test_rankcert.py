import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from windowcert import rankcert
from windowcert.rankcert import (
    RankCertificate,
    certify_witness,
    det_mod,
    hankel_witness_det,
    is_prime,
    jacobian,
    search_witness,
)
from windowcert.signal import RationalParams, generate_sequence, window_sums

from reference_data import (
    PRIME,
    WITNESS_D,
    WITNESS_DET_RESIDUE,
    WITNESS_JACOBIAN,
    WITNESS_VECTOR,
    WITNESS_W,
    WITNESS_WINDOW_SUMS,
)

WITNESS = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)

# The least strong pseudoprimes to the first 4, 12 and 13 primes as bases.
PSI_4 = 3215031751
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_certificate_modulus(self):
        assert is_prime(PRIME)
        assert is_prime(PRIME + 2)  # twin prime 10^9 + 9
        assert not is_prime(PRIME + 4)  # digit sum 3

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(41041)

    def test_strong_pseudoprimes_to_the_first_primes(self):
        # psi_4 passes the bases 2, 3, 5 and 7, and psi_12 the twelve primes
        # up to 37; each is tested with more bases.
        assert not is_prime(PSI_4)
        assert not is_prime(PSI_12)
        assert PSI_12 == 399165290221 * 798330580441

    def test_beyond_the_deterministic_range(self):
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(PSI_13)
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(10**30)


class TestJacobian:
    def test_degree_one_single_block(self):
        # d=1, W=1: windows are (y_0, y_1, y_2) with y_2 = -q_1 y_1, so the
        # Jacobian rows are e_1, e_2, and (0, -q_1, -y_1).
        p = RationalParams((3, 4), (5,))
        assert jacobian(p, 1) == [[1, 0, 0], [0, 1, 0], [0, -5, -4]]

    def test_window_validation(self):
        with pytest.raises(ValueError, match="W must be >= 1"):
            jacobian(WITNESS, 0)

    def test_full_witness_matrix(self):
        jac = jacobian(WITNESS, WITNESS_W)
        assert tuple(tuple(row) for row in jac) == WITNESS_JACOBIAN

    def test_finite_difference_consistency(self):
        # Central differences of the float window map agree with the exact
        # Jacobian columns at the witness point.
        h = 1e-6
        K = 2 * WITNESS_D + 1
        jac = np.array(jacobian(WITNESS, WITNESS_W), dtype=float)
        vec = [float(v) for v in WITNESS_VECTOR]

        def window_map(pi):
            p = RationalParams.from_vector(pi, WITNESS_D)
            return np.array(window_sums(generate_sequence(p, WITNESS_W * K - 1), WITNESS_W, K).sums)

        for col in range(len(vec)):
            hi = list(vec)
            lo = list(vec)
            hi[col] += h
            lo[col] -= h
            fd = (window_map(hi) - window_map(lo)) / (2 * h)
            scale = np.maximum(np.abs(jac[:, col]), 1.0)
            np.testing.assert_allclose(fd / scale, jac[:, col] / scale, atol=1e-4)


def _propagated_jacobian(params, W):
    """Reference assembly: one derivative recurrence per column over all W*K
    samples.  Differentiating y_n + q_1 y_{n-1} + ... + q_d y_{n-d} = 0 gives
    the same recurrence with source 0 for an initial value and -y_{n-j} for
    q_j."""
    d = params.degree
    K = 2 * d + 1
    n_max = W * K - 1
    q = params.recurrence
    y = generate_sequence(params, n_max)
    columns = []
    for alpha in range(K):
        u = [0] * (d + 1)
        if alpha <= d:
            u[alpha] = 1
        for n in range(d + 1, n_max + 1):
            source = 0 if alpha <= d else -y[n - (alpha - d)]
            u.append(-sum(q[m - 1] * u[n - m] for m in range(1, d + 1)) + source)
        columns.append(u)
    return [[sum(col[W * k + j] for j in range(W)) for col in columns] for k in range(K)]


@st.composite
def integer_points(draw):
    d = draw(st.integers(1, 8))
    pi = draw(st.lists(st.integers(-9, 9), min_size=2 * d + 1, max_size=2 * d + 1))
    return RationalParams.from_vector(pi, d)


@st.composite
def decaying_float_points(draw):
    # d <= 4: from d = 5 on, with rates bunched near 1, the float
    # propagation drifts from the exact Jacobian by 1e-9 (d = 5) to 5e-7
    # (d = 7) of a column's max, so it cannot serve at this tolerance.
    d = draw(st.integers(1, 4))
    rate = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    rates = draw(st.lists(rate, min_size=d, max_size=d))
    initial = draw(st.lists(st.floats(-10.0, 10.0), min_size=d + 1, max_size=d + 1))
    recurrence = tuple(float(c) for c in np.poly(rates)[1:])
    return RationalParams(tuple(initial), recurrence)


blocks = st.integers(1, 12)
# Block lengths on both sides of W = d and of W = 2d: W < d sums all
# 2d + 1 windows from the samples and takes no step, and from W = d on the
# first k0 + 1 = ceil(2d/W) + 1 windows come from the samples and the rest
# from steps, so W >= 2d sums two windows before it steps.
wide_blocks = st.integers(1, 24)


def _sampled_states(params, W):
    """Reference for ``_stepped_states``: every window summed directly from
    the samples, the g sums at delays d+1..2d and the E sums at 1..d."""
    d = params.degree
    K = 2 * d + 1
    _, g, tail = rankcert._responses(params, W * K)

    def delayed(x, k, s):  # sum_{i<W} x_{Wk+i-s}, with x 0 at a negative index
        return sum(x[max(0, W * k - s) : max(0, W * k + W - s)])

    b = [[delayed(g, k, s) for s in range(d + 1, 2 * d + 1)] for k in range(K)]
    e = [[delayed(tail, k, j) for j in range(1, d + 1)] for k in range(K)]
    return b, e


class TestAssemblyProperties:
    @settings(max_examples=150, deadline=None)
    @given(integer_points(), wide_blocks)
    @example(RationalParams((0, 0, 0), (3, -2)), 5)  # all-zero initial values
    @example(RationalParams((1, -2, 4), (3, 0)), 4)  # q_d = 0, W >= 2d
    @example(RationalParams((1, -2, 4, 1), (3, 1, 0)), 2)  # q_d = 0, W < d: sums only
    @example(RationalParams((2, -1, 3, 1, 5), (1, -3, 2, 4)), 2)  # W < d: sums only
    @example(RationalParams((2, -1, 3, 1, 5), (1, -3, 2, 4)), 3)  # W = d - 1: sums only
    @example(RationalParams((2, -1, 3, 1, 5), (1, -3, 2, 4)), 4)  # W = d: the first steps
    @example(RationalParams((2, -1, 3, 1, 5), (1, -3, 2, 4)), 1)  # W = 1: no step
    @example(RationalParams((3, 4), (5,)), 1)  # W = d = 1: no step after the sums
    def test_exact_matches_propagation(self, params, W):
        assert jacobian(params, W) == _propagated_jacobian(params, W)

    @pytest.mark.parametrize("d", [3, 6, 10, 16])
    def test_steps_match_samples_on_grid(self, d):
        # The bench grid, the cells with W < d included, and both sides of
        # the split at W = d: the stepped states are the sums of the
        # samples, as Python ints, at every W.
        rng = np.random.default_rng(d)
        K = 2 * d + 1
        for W in (d - 1, d, 8, 16, 32, 64):
            pi = [int(v) for v in rng.integers(-5, 6, K)]
            params = RationalParams.from_vector(pi, d)
            b, e = rankcert._stepped_states(params, W)
            assert (b.tolist(), e.tolist()) == _sampled_states(params, W)

    def test_no_step_below_degree(self, monkeypatch):
        # W < d sums every window from the samples; W = d builds C^W.
        def refuse(*args):
            raise AssertionError("step matrix built")

        monkeypatch.setattr(rankcert, "_step_matrix", refuse)
        params = RationalParams((2, -1, 3, 1, 5), (1, -3, 2, 4))
        for W in (1, 2, 3):
            assert jacobian(params, W) == _propagated_jacobian(params, W)
        with pytest.raises(AssertionError, match="step matrix built"):
            jacobian(params, 4)

    def test_steps_match_samples_on_witness(self):
        b, e = rankcert._stepped_states(WITNESS, WITNESS_W)
        assert (b.tolist(), e.tolist()) == _sampled_states(WITNESS, WITNESS_W)

    @settings(max_examples=150, deadline=None)
    @given(decaying_float_points(), blocks)
    def test_float_matches_propagation(self, params, W):
        # The exact Jacobian at the rationals the floats are, rounded once.
        exact = RationalParams.from_vector(map(Fraction, params.as_vector()), params.degree)
        fast = np.asarray(jacobian(exact, W), dtype=float)
        ref = np.asarray(_propagated_jacobian(params, W), dtype=float)
        scale = np.max(np.abs(ref), axis=0)
        # The absolute 1e-300 only admits underflow: subnormal inputs round
        # to an absolute grid, not a relative one.
        assert np.all(np.abs(fast - ref) <= 1e-9 * scale + 1e-300)

    @settings(max_examples=50, deadline=None)
    @given(integer_points(), blocks)
    def test_certificate_window_sums(self, params, W):
        d = params.degree
        K = 2 * d + 1
        cert = certify_witness(params, d, W, PRIME)
        assert cert.window_sums == window_sums(generate_sequence(params, W * K - 1), W, K).sums


class TestDetMod:
    def test_identity(self):
        assert det_mod([[1, 0], [0, 1]], 7) == 1

    def test_small_example(self):
        # det [[2,3],[4,5]] = -2 = 5 mod 7.
        assert det_mod([[2, 3], [4, 5]], 7) == 5

    def test_singular(self):
        assert det_mod([[1, 2], [2, 4]], PRIME) == 0

    def test_multiplicativity(self):
        rng = np.random.default_rng(13)
        a = rng.integers(-50, 50, (5, 5)).tolist()
        b = rng.integers(-50, 50, (5, 5)).tolist()
        ab = (np.array(a) @ np.array(b)).tolist()
        assert det_mod(ab, PRIME) == det_mod(a, PRIME) * det_mod(b, PRIME) % PRIME

    @pytest.mark.parametrize(
        "case", ["dense4", "dense33", "row_swap", "singular", "beyond_modulus"]
    )
    @pytest.mark.parametrize(
        "p", [2**31 - 1, 2**61 - 1], ids=["int64", "object"]
    )
    def test_matches_exact_fraction_determinant(self, p, case):
        # 2^31 - 1 is the largest prime that runs in int64; at 2^61 - 1 the
        # products of residues overflow int64, so a wrong dtype shows here.
        rng = np.random.default_rng(17)
        n = 4 if case == "dense4" else 33
        m = rng.integers(-9, 9, (n, n)).tolist()
        if case == "row_swap":
            m[0][0] = 0  # the first pivot comes from a lower row
        if case == "singular":
            m[20] = [a - 2 * b for a, b in zip(m[3], m[11])]
        if case == "beyond_modulus":
            # Entries below -p and above 2^63 are reduced exactly.
            m[0][0], m[1][2], m[2][1] = -3 * p - 5, 2**64 + 3, -(2**70) - 1
            m[3][3], m[4][5], m[5][0] = 5 * p + 2, 2**63, -(p**2) - 7
        exact = _fraction_det(m)
        assert (exact == 0) == (case == "singular")
        assert det_mod(m, p) == int(exact) % p

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            det_mod([[1]], 9)

    def test_rejects_nonsquare(self):
        # Ragged rows too: the shape is checked before the entries become an
        # array, so they get this message and not one from numpy.
        for matrix in ([[1, 2]], [[1, 2], [3]], [[1], [2, 3]]):
            with pytest.raises(ValueError, match="matrix must be square"):
                det_mod(matrix, 7)


def _fraction_det(matrix):
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


class TestCertifyWitness:
    def test_reference_witness(self):
        cert = certify_witness(WITNESS, WITNESS_D, WITNESS_W, PRIME)
        assert cert.nonzero
        assert cert.det_residue == WITNESS_DET_RESIDUE
        assert cert.window_sums == WITNESS_WINDOW_SUMS
        assert cert.exact

    def test_degree_one_explicit(self):
        # d=1, W=1, pi=(1,1,-2): jacobian [[1,0,0],[0,1,0],[0,2,-1]], det -1.
        cert = certify_witness(RationalParams((1, 1), (-2,)), 1, 1, PRIME)
        assert cert.nonzero
        assert cert.det_residue == PRIME - 1

    def test_zero_recurrence_is_singular(self):
        cert = certify_witness(RationalParams((1, 1), (0,)), 1, 2, PRIME)
        assert not cert.nonzero
        assert cert.det_residue == 0

    def test_degree_mismatch(self):
        # Also the other argument checks: float parameters, composite modulus.
        with pytest.raises(ValueError, match="degree"):
            certify_witness(WITNESS, 2, WITNESS_W, PRIME)
        with pytest.raises(ValueError, match="integer"):
            certify_witness(RationalParams((1.0, 2.0), (0.5,)), 1, 2, PRIME)
        with pytest.raises(ValueError, match="not prime"):
            certify_witness(WITNESS, WITNESS_D, WITNESS_W, 10)

    def test_json_roundtrip(self):
        cert = certify_witness(WITNESS, WITNESS_D, WITNESS_W, PRIME)
        back = RankCertificate.from_dict(cert.to_dict())
        assert back == cert

    @pytest.mark.parametrize(
        "key,value",
        [("nonzero", False), ("window_sums", "0"), ("exact", False)],
        ids=["nonzero", "window_sum", "exact"],
    )
    def test_edited_claims_are_restated(self, key, value):
        # Only the point, Jacobian and residue are decoded; re-encoding
        # restates the derived claims, so an edited claim does not survive.
        doc = certify_witness(WITNESS, WITNESS_D, WITNESS_W, PRIME).to_dict()
        edited = json.loads(json.dumps(doc))
        if key == "window_sums":
            edited[key][3] = value
        else:
            edited[key] = value
        assert edited != doc
        assert RankCertificate.from_dict(edited).to_dict() == doc

    @pytest.mark.parametrize(
        "edit,message",
        [
            ({"W": 0}, "W must be >= 1"),
            ({"p": 4}, "not prime"),
            ({"p": PSI_12}, "not prime"),
            ({"p": PSI_13}, "not deterministic"),
            ({"jacobian": [[1]]}, "jacobian must be 7 x 7"),
            ({"jacobian": [["1"] * 7] * 6 + [["1"] * 6]}, "jacobian must be 7 x 7"),
            ({"det_mod_p": PRIME}, "outside"),
            ({"det_mod_p": -1}, "outside"),
            ({"W": 0, "p": 4, "jacobian": [[1]], "det_mod_p": 7}, "W must be >= 1"),
        ],
        ids=["W", "prime", "strong_pseudoprime", "beyond_range", "jacobian_rows",
             "jacobian_columns", "residue_high", "residue_negative", "all_wrong"],
    )
    def test_invalid_document_rejected(self, edit, message):
        # A certificate document is outside input: decoding checks what the
        # derived claims rest on, so no edited field is restated as valid.
        doc = {**certify_witness(WITNESS, WITNESS_D, WITNESS_W, PRIME).to_dict(), **edit}
        with pytest.raises(ValueError, match=message):
            RankCertificate.from_dict(doc)


class TestSearchWitness:
    def test_finds_witness_deterministically(self):
        a = search_witness(2, 3, coordinate_bound=5, p=PRIME, seed=42)
        b = search_witness(2, 3, coordinate_bound=5, p=PRIME, seed=42)
        assert a is not None and a.nonzero
        assert a == b

    def test_exhaustion(self):
        assert search_witness(2, 3, coordinate_bound=5, p=PRIME, max_trials=0) is None

    def test_one_primality_test_per_trial(self, monkeypatch):
        # The search tests the modulus once up front and det_mod once per
        # trial; certify_witness leaves the test to det_mod.
        calls = []
        monkeypatch.setattr(rankcert, "is_prime", lambda n: calls.append(n) or is_prime(n))
        # Seed 1 draws three points with a nonzero recurrence, all singular.
        assert search_witness(2, 3, coordinate_bound=1, p=PRIME, seed=1, max_trials=3) is None
        assert calls == [PRIME] * 4

    def test_modulus_tested_once_per_process(self):
        # A second search at the same p, and each of its trials' det_mod,
        # reads the cached verdict: no further Miller-Rabin test runs.
        search_witness(2, 3, coordinate_bound=1, p=PRIME, seed=1, max_trials=3)
        before = is_prime.cache_info()
        assert search_witness(2, 3, coordinate_bound=1, p=PRIME, seed=1, max_trials=3) is None
        after = is_prime.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 4)

    def test_zero_recurrence_skipped(self, monkeypatch):
        # Seed 6 at d = 1, bound 1 first draws (1, -1, 0): q_1 = 0 leaves no
        # recurrence, so the trial is spent without a certificate.
        calls = []
        monkeypatch.setattr(rankcert, "certify_witness", lambda *args: calls.append(args))
        assert search_witness(1, 2, coordinate_bound=1, p=PRIME, seed=6, max_trials=1) is None
        assert calls == []

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            search_witness(1, 1, coordinate_bound=0, p=PRIME)

    def test_composite_modulus(self):
        # Checked before the first trial, so zero trials cannot hide it.
        with pytest.raises(ValueError, match="modulus 10 is not prime"):
            search_witness(1, 2, coordinate_bound=1, p=10, max_trials=0)

    def test_degree_validation(self):
        # d < 1 leaves every trial without a recurrence; it is bad input,
        # not an exhausted search.
        with pytest.raises(ValueError, match="d must be >= 1"):
            search_witness(0, 3, coordinate_bound=5, p=PRIME)

    @pytest.mark.parametrize("W,trials", [(0, 0), (0, 5), (3, -1)])
    def test_window_and_trials_validation(self, W, trials):
        # Checked before the first trial, so zero trials cannot hide a bad W.
        with pytest.raises(ValueError, match="need W >= 1 and max_trials >= 0"):
            search_witness(1, W, coordinate_bound=5, p=PRIME, max_trials=trials)


class TestHankelWitnessDet:
    def test_order_one(self):
        # Single rate 1/2: det = B_1 = (1 - 2^-W) / (1 - 1/2).
        assert hankel_witness_det(1, 3) == pytest.approx(2 * (1 - 0.125), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="d and W must be >= 1"):
            hankel_witness_det(0, 3)

    def test_positive_over_grid(self):
        for d in range(1, 5):
            for W in (1, 2, 8):
                assert hankel_witness_det(d, W) > 0.0

    @pytest.mark.parametrize("d,W", [(1, 1), (2, 3), (3, 8), (4, 2)])
    def test_exact_fraction_oracle(self, d, W):
        # Build the Hankel matrix of the rate family exactly and compare.
        rates = [Fraction(1, i + 2) for i in range(d)]
        sums = [
            sum((1 - a**W) / (1 - a) * a ** (W * k) for a in rates)
            for k in range(2 * d)
        ]
        hankel = [[sums[i + j] for j in range(d)] for i in range(d)]
        exact = _fraction_det(hankel)
        assert hankel_witness_det(d, W) == pytest.approx(float(exact), rel=1e-9)
