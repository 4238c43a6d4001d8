import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from windowcert.certify import (
    BOUND_EXCEEDED,
    CERTIFICATE_FLOOR,
    EPS0,
    Decision,
    LIPSCHITZ_SINGULAR,
    POSITIVITY,
    _modal_jacobian,
    eps_bound,
    estimate_lipschitz,
    pipeline,
)
from windowcert.cost import (
    RatioBand,
    certificate_value,
    cost,
    project_mean_zero,
    rank_candidates,
)
from windowcert.prony import (
    HANKEL_SINGULAR,
    REPEATED_NODES,
    ZERO_AMPLITUDE,
    ZERO_NODE,
    prony_reconstruct,
)
from windowcert.rankcert import jacobian
from windowcert.signal import RationalParams, WindowData
from windowcert.synth import add_multiplicative_noise, case_a_fixture, case_b_fixture


class TestEpsBound:
    def test_zero_noise(self):
        assert eps_bound(10.0, 5, 0.0) == 0.0

    def test_unit_point(self):
        # L K^(1/2) eps0 = 1 and L^2 K eps^2 = 1, with eps0 = eps = 1e-2.
        assert eps_bound(100.0, 1, 1e-2) == pytest.approx(math.e / 2, rel=1e-15)

    def test_reference_point(self):
        # L=10, K=7, eps0 = eps = 1e-2:
        # 0.5 * exp(10 * sqrt(7) * 0.01) * 100 * 7 * 1e-4
        expected = 0.5 * math.exp(0.1 * math.sqrt(7.0)) * 700 * 1e-4
        value = eps_bound(10.0, 7, 1e-2)
        assert value == pytest.approx(expected, rel=1e-14)
        assert value == pytest.approx(0.0456, rel=1e-3)

    def test_monotone_in_eps(self):
        values = [eps_bound(5.0, 4, e) for e in (1e-3, 5e-3, 1e-2)]
        assert values == sorted(values)

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            eps_bound(5.0, 4, 2e-2)

    def test_vacuous_for_huge_conditioning(self):
        assert eps_bound(1e9, 4, 1e-3) == math.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eps_bound(0.0, 1, 5e-3)
        with pytest.raises(ValueError):
            eps_bound(1.0, 0, 5e-3)
        with pytest.raises(ValueError):
            eps_bound(1.0, 1, -5e-3)


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
    return jacobian(RationalParams(y, poly[1:]), W)


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
    # Outside the stated bound: a small weight beside close nodes gives
    # kappa(J) = 5.5e10, and L is 1.1e-6 off there, so without the assume
    # below this example fails.
    @example(((0.9719464830917115, 0.9904674964312845, 0.9799185947080309),
              (1.0, 1.0, 0.109375), 11))
    def test_closed_form_matches_exact_jacobian(self, point):
        rates, weights, W = point
        exact = _exact_jacobian(rates, weights, W)
        floats = np.array([[float(v) for v in row] for row in exact])
        assume(np.linalg.cond(floats) <= 1e10)  # the bound modal_points states
        expected = _exact_inverse_norm(exact)
        assert estimate_lipschitz(rates, weights, W) == pytest.approx(expected, rel=1e-6)
        # L cannot see a sign flip of a whole column block (J D, D = +-1 on
        # the diagonal, has the singular values of J); the entries can.
        error = np.abs(_modal_jacobian(rates, weights, W) - floats).max()
        assert error <= 1e-9 * np.abs(floats).max()


def neutral_windows(level: float, W: int, K: int) -> WindowData:
    return WindowData((level * W,) * K, W, K)


# (windows, d, noise): half-range 9.5e-7 <= noise, but the d = 1 node's error
# carried over all W K samples lifts the certificate above the threshold.
NEAR_CONSTANT = (
    WindowData(
        (6.869741166469557, 6.869743057821176, 6.869742403449506, 6.8697425889176085,
         6.869741235706474, 6.869742168377616, 6.869741565783954, 6.869742992612586,
         6.869741863001013),
        13, 9,
    ),
    1, 1e-6,
)
# Likewise at the top of the noise range: certificate 6.26e-3 on a finite
# threshold of 2.18e-3.
NEAR_CONSTANT_WIDE = (
    WindowData(
        (3.045992098170623, 3.02984409589434, 3.0442248883350165, 3.0298339294468604,
         3.0441057629586816, 3.029672974286338, 3.039738706411126, 3.0398592819570833,
         3.038795558774842, 3.0349178956922374, 3.0301673635304156),
        4, 11,
    ),
    1, 1e-2,
)


@st.composite
def constant_windows(draw):
    """(windows, d, noise): W level + noise U(-1, 1) per window, level in
    [0.5, 5], 4 <= W <= 16, max(4, 2d) <= K <= 12, d in {1, 2}."""
    d = draw(st.sampled_from((1, 2)))
    W = draw(st.integers(4, 16))
    K = draw(st.integers(max(4, 2 * d), 12))
    level = draw(st.floats(0.5, 5.0))
    noise = draw(st.sampled_from((0.0, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2)))
    u = draw(st.lists(st.floats(-1.0, 1.0), min_size=K, max_size=K))
    return WindowData(tuple(W * level + noise * v for v in u), W, K), d, noise


@st.composite
def constant_plus_mode(draw):
    """(windows, d, noise, y): y_n = c + b a^n over n < W K, with every
    window sum within the noise of W c, and its window sums as the data;
    d = 2, so y is an order-d signal within the noise of the data."""
    W = draw(st.integers(2, 12))
    K = draw(st.integers(4, 12))
    c = draw(st.floats(0.5, 5.0))
    a = draw(st.floats(0.5, 1.5))
    noise = draw(st.sampled_from((1e-6, 1e-4, 1e-3, 1e-2)))
    # b a^n over window k sums to b g_k, and |b| max g = |t| noise.
    t = draw(st.floats(-1.0, 1.0))
    g = [math.fsum(a**n for n in range(k * W, (k + 1) * W)) for k in range(K)]
    b = t * noise / max(g)
    y = [c + b * a**n for n in range(W * K)]
    sums = tuple(math.fsum(y[k * W : (k + 1) * W]) for k in range(K))
    assume(max(abs(s - W * c) for s in sums) <= noise)  # after rounding
    return WindowData(sums, W, K), 2, noise, y


# ROADMAP F5's counterexample at W = 2, K = 3, eps = 1e-2, d = 1: the data,
# and (w, a) of a signal y_n = w a^n whose window sums are within the noise.
F5_SUMS = (1.0250671883149365, 1.0134299977316392, 1.006951345846112)
F5_SIGNAL = (0.5199607863689086, 0.9906639412633453)


class TestPipeline:
    def test_neutral_is_zero(self):
        report = pipeline(neutral_windows(1.0, 8, 7), 1)
        assert report.decision is Decision.ZERO
        assert report.certificate_value == pytest.approx(0.0, abs=1e-12)

    def test_scaled_neutral_is_zero(self):
        report = pipeline(neutral_windows(3.7, 5, 6), 1)
        assert report.decision is Decision.ZERO

    def test_case_a_true_is_nonzero(self):
        # Decided by the window pair alone: the bounds stay unset, the model
        # is still reported.
        fixture = case_a_fixture()
        sums = fixture.true_windows
        report = pipeline(fixture.true(), fixture.d)
        assert report.decision is Decision.NONZERO
        k_max, k_min, margin = report.nonzero_witness
        assert (sums[k_max], sums[k_min]) == (max(sums), min(sums))
        assert margin == pytest.approx((max(sums) - min(sums)) / 2)
        assert report.certificate_value is report.threshold is report.lipschitz_estimate is None
        assert report.reconstruction.flags == frozenset()
        assert report.flags == frozenset()

    def test_degenerate_is_inconclusive(self):
        # A geometric sequence within the noise of a constant: rank one, so
        # the d = 2 Hankel solve is singular and no model decides.
        data = WindowData((1e-3, 2e-3, 4e-3, 8e-3), 2, 4)
        report = pipeline(data, 2, noise_eps=1e-2)
        assert report.decision is Decision.INCONCLUSIVE
        assert report.flags == {HANKEL_SINGULAR}

    def test_alternating_sign_is_inconclusive(self):
        # Within the noise of a constant; the node at -0.5 admits no positive
        # sample realization.
        data = WindowData((1e-3, -5e-4, 2.5e-4, -1.25e-4), 3, 4)
        report = pipeline(data, 1, noise_eps=1e-3)
        assert report.decision is Decision.INCONCLUSIVE
        assert report.flags == {POSITIVITY}

    def test_negative_constant_is_positivity(self):
        # Finite sums are never malformed.  Sums no positive signal produces
        # are tested as any others: these are within the noise of a
        # (negative) constant, so the model decides, and it has no positive
        # realization.
        report = pipeline(WindowData((-1.0,) * 4, 2, 4), 1)
        assert report.decision is Decision.INCONCLUSIVE
        assert report.flags == {POSITIVITY}

    def test_far_alternating_sign_is_nonzero(self):
        # The distance to the constant ray does not depend on sign: no
        # constant is within the noise, whatever the model says.
        report = pipeline(WindowData((1.0, -0.5, 0.25, -0.125), 3, 4), 1)
        assert report.decision is Decision.NONZERO
        assert report.nonzero_witness == (0, 1, 0.75)
        assert report.reconstruction.nodes == pytest.approx((-0.5,))

    def test_constant_above_bound_is_inconclusive(self):
        # Windows within the noise of a constant whose reconstruction's
        # certificate exceeds the bound: neither verdict is sound.
        report = pipeline(*NEAR_CONSTANT)
        assert report.decision is Decision.INCONCLUSIVE
        assert report.flags == {BOUND_EXCEEDED}
        assert report.certificate_value > report.threshold

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

    @settings(max_examples=500, deadline=None)
    @given(constant_windows())
    @example(NEAR_CONSTANT)
    @example(NEAR_CONSTANT_WIDE)
    def test_nonzero_only_beyond_noise_from_constants(self, case):
        w, d, noise = case
        report = pipeline(w, d, noise_eps=noise)
        spread = max(w.sums) - min(w.sums)
        # In exact arithmetic, so the claim does not rest on the rounded
        # spread that the pipeline itself computes.
        if Fraction(max(w.sums)) - Fraction(min(w.sums)) <= 2 * Fraction(noise):
            assert report.decision is not Decision.NONZERO
        if report.certificate_value is not None:
            assert (report.decision is Decision.NONZERO) == (spread > 2 * noise)
            # Zero exactly when a finite threshold bounds the certificate.
            value, threshold = report.certificate_value, report.threshold
            zero = threshold < math.inf and value <= max(threshold, CERTIFICATE_FLOOR)
            assert report.decision is (Decision.ZERO if zero else Decision.INCONCLUSIVE)
            assert report.flags == (frozenset() if zero else {BOUND_EXCEEDED})

    @settings(max_examples=300, deadline=None)
    @given(constant_plus_mode())
    def test_zero_bounds_every_signal_within_noise(self, case):
        # A zero verdict claims that every positive order-d signal within
        # the noise of the data has certificate at most the threshold; the
        # drawn y is one, since its window sums are the data.  An infinite
        # threshold claims nothing, so it never gives zero.
        w, d, noise, y = case
        report = pipeline(w, d, noise_eps=noise)
        if report.decision is Decision.ZERO:
            assert report.threshold < math.inf
            value = certificate_value(project_mean_zero(np.log(y)))
            assert value <= max(report.threshold, CERTIFICATE_FLOOR)

    def test_alias_at_even_W_is_outside_the_class(self):
        # The zero claim covers real rates a > 0.  At even W the alias
        # y_n = c (1 + (-1)^n / 2), rates 1 and -1, has the constant windows
        # W c: it is within the noise of these data, yet its certificate is
        # far above the zero verdict's threshold.
        sums = (46.373047464052235, 46.373019494096354, 46.372522351621626, 46.363686061667025)
        W, K = 12, 4
        report = pipeline(WindowData(sums, W, K), 2, noise_eps=1e-2)
        assert report.decision is Decision.ZERO
        assert report.threshold == pytest.approx(1.0427, rel=1e-4)
        c = (max(sums) + min(sums)) / (2 * W)
        y = [c * (1.0 + 0.5 * (-1) ** n) for n in range(W * K)]
        windows = [math.fsum(y[k * W : (k + 1) * W]) for k in range(K)]
        assert max(abs(s - v) for s, v in zip(sums, windows)) < 0.0047
        value = certificate_value(project_mean_zero(np.log(y)))
        assert value == pytest.approx(7.43, rel=1e-3)
        assert value > report.threshold

    def test_f5_signal_within_noise_exceeds_threshold(self):
        # ROADMAP F5: the signal y_n = w a^n has every window sum within the
        # noise of these data, checked in Fractions, yet its certificate
        # exceeds the threshold of the report on them.
        W, K, eps = 2, 3, 1e-2
        w, a = map(Fraction, F5_SIGNAL)
        windows = [sum(w * a**n for n in range(W * k, W * k + W)) for k in range(K)]
        ratios = [abs(v - Fraction(s)) / Fraction(eps) for v, s in zip(windows, F5_SUMS)]
        assert all(r < 1 for r in ratios)
        assert [float(r) for r in ratios] == pytest.approx(
            [0.99999999806, 0.240051295, 0.99999999813], abs=1e-10
        )
        y = [F5_SIGNAL[0] * F5_SIGNAL[1] ** n for n in range(W * K)]
        value = certificate_value(project_mean_zero(np.log(y)))
        report = pipeline(WindowData(F5_SUMS, W, K), 1, noise_eps=eps)
        assert value == pytest.approx(7.70e-4, rel=1e-3)
        assert report.threshold == pytest.approx(4.31e-4, rel=1e-3)
        assert value > report.threshold

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP F5: at d = 1 and short W the point rule issues zero "
        "where a signal within the noise exceeds the threshold; ROADMAP item 10 "
        "decides zero from the exact supremum",
    )
    def test_f5_is_not_zero(self):
        report = pipeline(WindowData(F5_SUMS, 2, 3), 1, noise_eps=1e-2)
        assert report.decision is not Decision.ZERO

    def test_perturbation_stays_certified(self):
        # 100 small multiplicative perturbations of a neutral configuration:
        # none may flip to a nonzero verdict at the declared noise level.
        base = neutral_windows(1.0, 6, 8)
        for seed in range(100):
            noisy = add_multiplicative_noise(base.sums, 1e-4, seed)
            data = WindowData(tuple(noisy), 6, 8)
            report = pipeline(data, 1, noise_eps=5e-3)
            assert report.decision is not Decision.NONZERO


# Finite window sums that once escaped the pipeline: growing modes that
# overflow the rebuild, a Hankel solve that overflows (a) or meets an exactly
# singular matrix below a subnormal top singular value (b), amplitudes of
# +-inf, and exactly repeated zero nodes below a subnormal top node.  Each is
# (sums, W, d, flags of the Prony model).  All are far from the constants,
# so they read nonzero at zero noise, whatever the model.
GROWING_SINGULAR = ((1.0, 1e200), 1, 1, [])
GROWING_POSITIVITY = ((1.0, 1e200, 1.0), 1, 1, [])
HANKEL_OVERFLOW = (
    (-0.16431869826172885, 0.6909839628791838, 0.21485982218963584, 8.661289764946615,
     8.864024957287183, -1.7e308, -4.738480415883655e-148, 8.612845879002471,
     -0.39439024370193265),
    4, 3, [HANKEL_SINGULAR],
)
HANKEL_SUBNORMAL = (
    (0.0, 0.0, 5e-324, 0.0, 0.0, 1.5834967767993149e40, -2.91461986160863e135,
     -0.011354109444856153, 1.0533026094140317e-187),
    3, 2, [HANKEL_SINGULAR],
)
INFINITE_AMPLITUDES = (
    (-9.130245814586197e-58, -1.7e308, -0.28390125061002336, -0.5631145461695366,
     1.4834832711701211, 8.01408548340211, 0.06512726817705428, 1.7e308,
     7.92590670651162e137, 0.36796786383088254),
    1, 2, [ZERO_AMPLITUDE],
)
REPEATED_ZERO_NODES = (
    (-6.504457828972507e-59, -4.4129200348333155e-241, 3.8077030088130664e287,
     4.644040689647239e-33, 9.541440844170313e-108, 1.0024385169959008e-298,
     -3.657154200762134e302),
    7, 3, [REPEATED_NODES, ZERO_NODE],
)
HOSTILE = (GROWING_SINGULAR, GROWING_POSITIVITY, HANKEL_OVERFLOW, HANKEL_SUBNORMAL,
           INFINITE_AMPLITUDES, REPEATED_ZERO_NODES)


def hostile_case(case):
    """(windows, d, noise) of a (sums, W, d, flags) entry, at zero noise."""
    sums, W, d, _ = case
    return WindowData(sums, W, len(sums)), d, 0.0


# Growing modes within the noise of a constant, where the model decides:
# (windows, d, noise, pipeline flags).  A node of 1e295 overflows the W K
# rebuilt samples; one of 1e155 leaves the K = 2 samples finite but
# overflows the (2d+1) W powers of the Jacobian.
NEAR_GROWING_POSITIVITY = (WindowData((1e-300, 1e-5, 1e-5), 2, 3), 1, 1e-5, [POSITIVITY])
NEAR_GROWING_SINGULAR = (WindowData((1e-160, 1e-5), 1, 2), 1, 1e-5, [LIPSCHITZ_SINGULAR])
NEAR_HOSTILE = (NEAR_GROWING_POSITIVITY, NEAR_GROWING_SINGULAR)


@st.composite
def hostile_windows(draw):
    """(windows, d, noise): d <= 3, 2d <= K <= 12, W <= 8 and any finite sums."""
    d = draw(st.integers(1, 3))
    K = draw(st.integers(2 * d, 12))
    W = draw(st.integers(1, 8))
    sums = draw(st.lists(st.floats(-1.7e308, 1.7e308), min_size=K, max_size=K))
    noise = draw(st.sampled_from((0.0, 1e-6, 1e-2)))
    return WindowData(sums, W, K), d, noise


@st.composite
def big_int_windows(draw):
    """(windows, d, noise): int sums within 3 of +-2**e, 53 <= e <= 62, some
    of them stored as their floats, which round the offsets away."""
    d = draw(st.integers(1, 3))
    K = draw(st.integers(2 * d, 12))
    W = draw(st.integers(1, 8))
    base = draw(st.sampled_from((-1, 1))) * 2 ** draw(st.integers(53, 62))
    ints = draw(st.lists(st.integers(base - 3, base + 3), min_size=K, max_size=K))
    as_float = draw(st.lists(st.booleans(), min_size=K, max_size=K))
    sums = [float(s) if f else s for s, f in zip(ints, as_float)]
    noise = draw(st.sampled_from((0.0, 1e-2)))
    return WindowData(sums, W, K), d, noise


class TestHostileSums:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_flag(self, case):
        # The Prony flags stay on the model; none vetoes the verdict.
        report = pipeline(*hostile_case(case))
        assert report.decision is Decision.NONZERO
        assert sorted(report.reconstruction.flags) == case[-1]
        assert report.flags == frozenset()

    @pytest.mark.parametrize("case", NEAR_HOSTILE, ids=["positivity", "lipschitz_singular"])
    def test_flag_near_constants(self, case):
        w, d, noise, flags = case
        report = pipeline(w, d, noise_eps=noise)
        assert report.decision is Decision.INCONCLUSIVE
        assert sorted(report.flags) == flags
        assert report.reconstruction.flags == frozenset()

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(constant_windows(), hostile_windows(), big_int_windows()))
    @example(NEAR_CONSTANT)
    @example(hostile_case(INFINITE_AMPLITUDES))
    @example((WindowData((2e-6, -1e-30, 0.0, 1e-6), 2, 4), 1, 1e-6))  # a rounding tie
    @example((WindowData((2**60, 2**60 + 1, 2**60, 2**60), 2, 4), 1, 1e-2))  # ints one float holds
    def test_nonzero_iff_beyond_noise_with_exact_witness(self, case):
        # In Fractions: every nonzero report's window pair spans more than
        # 2 eps, and data whose half-range exceeds eps are nonzero whatever
        # the model's flags, also when the float difference rounds onto
        # 2 eps exactly.
        w, d, noise = case
        report = pipeline(w, d, noise_eps=noise)
        exact = [Fraction(s) for s in w.sums]
        witness = report.nonzero_witness
        if report.decision is Decision.NONZERO:
            k_max, k_min, _ = witness
            assert exact[k_max] - exact[k_min] > 2 * Fraction(noise)
            assert (exact[k_max], exact[k_min]) == (max(exact), min(exact))
        else:
            assert witness is None
        if max(exact) - min(exact) > 2 * Fraction(noise):
            assert report.decision is Decision.NONZERO

    @pytest.mark.parametrize(
        "sums, noise, witness",
        [
            ((2e-6, -1e-30, 0.0, 1e-6), 1e-6, (0, 1, 0.0)),  # spread 2e-6 + 1e-30
            ((2**60, 2**60 + 1, 2**60, 2**60), 0.0, (1, 0, 0.0)),  # one float
            ((2**60, 2**60 + 1, 2**60, 2**60), 1e-2, (1, 0, 0.0)),  # spread 1 > 2 eps
            ((-(2**53) - 1, -(2**53), -(2**53), -(2**53)), 1e-2, (1, 0, 0.0)),  # at the bottom
            ((2e-6, 0.0, 0.0, 1e-6), 1e-6, None),  # an exact tie
        ],
        ids=["float", "int", "int_beyond_noise", "negative_int", "exact"],
    )
    def test_rounding_tie_decided_exactly(self, sums, noise, witness):
        # The floats do not resolve the half-range: max S - min S rounds
        # onto 2 eps, or int sums round onto one float.  The stored sums
        # decide in Fractions, and the margin reads 0.0.
        w = WindowData(sums, 2, 4)
        assert max(w.floats()) - min(w.floats()) <= 2 * noise
        report = pipeline(w, 1, noise_eps=noise)
        assert report.nonzero_witness == witness
        assert (report.decision is Decision.NONZERO) == (witness is not None)

    @settings(max_examples=300, deadline=None)
    @given(hostile_windows())
    @example(hostile_case(GROWING_SINGULAR))
    @example(hostile_case(GROWING_POSITIVITY))
    @example(hostile_case(HANKEL_OVERFLOW))
    @example(hostile_case(HANKEL_SUBNORMAL))
    @example(hostile_case(INFINITE_AMPLITUDES))
    @example(hostile_case(REPEATED_ZERO_NODES))
    @example(NEAR_GROWING_POSITIVITY[:3])
    @example(NEAR_GROWING_SINGULAR[:3])
    def test_pipeline_reports_strict_json(self, case):
        # Finite sums always give a report: no exception, no warning, and a
        # document with non-finite values written as null.
        w, d, noise = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = pipeline(w, d, noise_eps=noise)
            json.dumps(report.to_dict(), allow_nan=False)
            json.dumps(prony_reconstruct(w, d).to_dict(), allow_nan=False)

    @pytest.mark.parametrize("reconstruct", [pipeline, prony_reconstruct])
    def test_integer_sums_beyond_float_range(self, reconstruct):
        # Exact sums that no float holds are bad input, as in the windows
        # document, not an OverflowError.
        w = WindowData((10**400,) * 4, 1, 4)
        with pytest.raises(ValueError, match="^a window sum exceeds the float range$"):
            reconstruct(w, 1)


class TestRankCandidates:
    def test_exact_ranking(self):
        band = RatioBand(0.5, 4.0)
        ratios = (1.0, 2.0, 0.5)
        best, guarantee = rank_candidates(band, ratios, 0.01)
        assert best == 0
        assert guarantee == pytest.approx(2.5 * 0.01 * 4.0, rel=1e-14)

    def test_observed_out_of_band(self):
        band = RatioBand(0.5, 2.0)
        with pytest.raises(ValueError):
            rank_candidates(band, (3.0,), 0.01)

    def test_guarantee_controls_regret(self):
        # When observed ratios are within delta of the true ones, the winner's
        # true cost exceeds the true minimum by at most 2 * guarantee.
        rng = np.random.default_rng(101)
        band = RatioBand(0.5, 4.0)
        for _ in range(500):
            true = rng.uniform(0.6, 3.5, 4)
            delta = 0.01
            observed = true * (1.0 + rng.uniform(-delta, delta, 4))
            best, guarantee = rank_candidates(band, tuple(observed), delta)
            true_costs = [cost(r) for r in true]
            assert true_costs[best] <= min(true_costs) + 2 * guarantee + 1e-12
