"""End-to-end acceptance suite.

Each test covers exactly one numbered acceptance criterion; the conftest
terminal-summary hook emits one PASS/FAIL verdict line per criterion at the
end of the run.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from windowcert.certify import Decision, pipeline
from windowcert.cost import (
    RatioBand,
    certificate_value,
    cost,
    lipschitz_constant,
    project_mean_zero,
    quadratic_upper_bound,
    rank_candidates,
    rcl_residual,
)
from windowcert.prony import prony_reconstruct
from windowcert.rankcert import det_mod, hankel_witness_det, jacobian
from windowcert.signal import (
    RationalParams,
    WindowData,
    generate_sequence,
    mixture_window_params,
    window_sums,
)
from windowcert.synth import case_a_fixture, collision_pair, recurrence_fit_residual

from reference_data import (
    CASE_A_TABLE_OBSERVED,
    CASE_A_TABLE_TRUE,
    PRIME,
    WITNESS_D,
    WITNESS_DET_RESIDUE,
    WITNESS_JACOBIAN,
    WITNESS_VECTOR,
    WITNESS_W,
    WITNESS_WINDOW_SUMS,
)

WITNESS = RationalParams.from_vector(WITNESS_VECTOR, WITNESS_D)


def best_runtime(fn, repeats: int = 7) -> float:
    fn()  # warmup
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_criterion_01_witness_window_sums():
    def run():
        seq = generate_sequence(WITNESS, WITNESS_W * 7 - 1)
        return window_sums(seq, WITNESS_W, 7).sums

    assert run() == WITNESS_WINDOW_SUMS
    assert best_runtime(run) < 1e-3


def test_criterion_02_jacobian_reproduction():
    def run():
        return jacobian(WITNESS, WITNESS_W)

    assert tuple(tuple(row) for row in run()) == WITNESS_JACOBIAN
    assert best_runtime(run) < 1e-2


def test_criterion_03_determinant_residue():
    jac = jacobian(WITNESS, WITNESS_W)

    def run():
        return det_mod(jac, PRIME)

    assert run() == WITNESS_DET_RESIDUE
    assert best_runtime(run) < 1e-3


def test_criterion_04_case_a_fixture():
    fixture = case_a_fixture()
    assert fixture.observed_windows == CASE_A_TABLE_OBSERVED
    for recomputed, recorded in zip(fixture.true_windows, CASE_A_TABLE_TRUE):
        if recorded >= 1e-3:
            assert abs(recomputed - recorded) <= 5e-7, (
                f"true window {recomputed} vs recorded {recorded}"
            )
        else:
            assert abs(recomputed - recorded) <= 0.01 * abs(recorded)


def test_criterion_05_prony_round_trip():
    fixture = case_a_fixture()
    expected_nodes, expected_amps = mixture_window_params(fixture.mixture, fixture.W)
    order = sorted(range(3), key=lambda i: -expected_nodes[i])

    def run():
        return prony_reconstruct(fixture.true(), fixture.d)

    model = run()
    assert not model.degenerate
    for i, j in enumerate(order):
        assert model.nodes[i] == pytest.approx(expected_nodes[j], rel=1e-6)
        assert model.amplitudes[i] == pytest.approx(expected_amps[j], rel=1e-6)
    assert best_runtime(run) < 1e-2


def test_criterion_06_coercivity():
    rng = np.random.default_rng(6)
    ts = rng.uniform(-30.0, 30.0, 100_000)
    lower = 0.5 * ts * ts
    upper = np.array([quadratic_upper_bound(t) for t in ts])
    values = np.cosh(ts) - 1.0
    assert int(np.sum(values < lower)) == 0
    assert int(np.sum(values > upper)) == 0


def test_criterion_07_rcl_identity():
    rng = np.random.default_rng(7)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
    ys = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
    for x, y in zip(xs, ys):
        largest = max(
            cost(x * y), cost(x / y), 2 * cost(x), 2 * cost(y), 2 * cost(x) * cost(y)
        )
        assert abs(rcl_residual(x, y)) <= 1e-12 * (1.0 + largest)


def test_criterion_08_pipeline_soundness():
    neutral = WindowData((8.0,) * 7, 8, 7)
    assert pipeline(neutral, 1).decision is Decision.ZERO

    fixture = case_a_fixture()
    assert pipeline(fixture.true(), fixture.d).decision is Decision.NONZERO

    rng = np.random.default_rng(8)
    for _ in range(1000):
        logs = rng.uniform(-1.0, 1.0, 8)
        shift = rng.uniform(-5.0, 5.0)
        threshold = rng.uniform(0.0, 1.0)
        # pipeline's zero test, on the projected log-samples.
        base = certificate_value(project_mean_zero(logs)) <= threshold
        shifted = certificate_value(project_mean_zero(logs + shift)) <= threshold
        assert base == shifted


def test_criterion_09_eps_bound_realization():
    eps0 = 1e-2
    W, K = 6, 8
    base = np.full(K, float(W))
    rng = np.random.default_rng(7)
    for _ in range(100):
        eps = rng.uniform(0.1, 1.0) * eps0
        noise = rng.uniform(-1.0, 1.0, K) * eps
        data = WindowData(tuple(base + noise), W, K)
        report = pipeline(data, 1, noise_eps=eps)
        assert report.certificate_value is not None
        assert report.threshold is not None
        assert report.certificate_value <= report.threshold


def test_criterion_10_localization():
    band = RatioBand(0.5, 4.0)
    bound = 2.0 * lipschitz_constant(band) * 0.01 * band.upper
    assert bound == pytest.approx(0.2, rel=1e-12)
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        true = rng.uniform(0.52, 3.9, n)
        observed = true * (1.0 + rng.uniform(-0.01, 0.01, n))
        best, _ = rank_candidates(band, tuple(observed), 0.01)
        true_costs = [cost(r) for r in true]
        assert true_costs[best] <= min(true_costs) + bound


def test_criterion_11_collision_sharpness():
    fixture = case_a_fixture()
    W, K = 8, 11
    y_in, y_out, big_n = collision_pair(fixture.mixture, 3, W, K)
    assert window_sums(y_in, W, K + 1).sums == window_sums(y_out, W, K + 1).sums
    assert recurrence_fit_residual(y_in, 3, big_n + 1) <= 1e-10
    assert recurrence_fit_residual(y_out, 3, big_n + 1) >= 0.5


def test_criterion_12_hankel_witness_determinant():
    for d in (1, 2, 3):
        for W in (1, 8):
            value = hankel_witness_det(d, W)
            assert value > 0.0
            rates = [Fraction(1, i + 2) for i in range(d)]
            mu = [a**W for a in rates]
            amps = [(1 - a**W) / (1 - a) for a in rates]
            vdm = Fraction(1)
            for i in range(d):
                for j in range(i + 1, d):
                    vdm *= mu[j] - mu[i]
            exact = vdm * vdm
            for b in amps:
                exact *= b
            assert value == pytest.approx(float(exact), rel=1e-6)
