"""Tests of the benchmark's reference computations against closed forms."""

import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

ZERO = {name: 0.0 for name in oracle.PARAMS}
DEFAULT = dict(
    ZERO, alpha1=0.5, alpha2=0.4, alpha3=0.35, alpha4=0.6, phi1=0.6, phi2=0.5, phi3=0.5,
    phi4=0.5, beta1=0.3, beta2=0.25, beta3=0.3, gamma1=0.4, gamma2=0.3,
)


def test_guidance_matches_closed_form():
    a1, p1 = 0.9, 0.7
    p = dict(ZERO, alpha1=a1, phi1=p1)
    h = 0.01
    samples = oracle.integrate(p, 0.0, (0.0, 0.0, 0.0), 1000, h)
    worst = max(
        abs(y[0] - a1 * (k * h + (math.exp(-p1 * k * h) - 1.0) / p1)) for k, y in enumerate(samples)
    )
    assert worst <= 1e-9


def test_rk4_richardson_ratio_on_coupled_system():
    terminal = {}
    for h in (0.1, 0.05, 0.025):
        terminal[h] = oracle.integrate(DEFAULT, 0.0, (0.5, 0.5, 0.5), oracle.step_count(5.0, h), h)[-1]
    e1 = max(abs(a - b) for a, b in zip(terminal[0.1], terminal[0.05]))
    e2 = max(abs(a - b) for a, b in zip(terminal[0.05], terminal[0.025]))
    assert e1 / e2 >= 8.0


def test_advance_cost_is_left_endpoint_sum():
    y0 = (0.5, 0.4, 0.3)
    y, f, cost, clamps = oracle.advance(DEFAULT, 0.0, y0, 0.05, 2)
    mid, _ = oracle.rk4_step(DEFAULT, 0.0, y0, 0.025)
    expected = sum(0.25 * s[1] / (1 + 0.4 * s[2]) * 0.025 for s in (y0, mid))
    assert cost == expected
    assert f == oracle.feedback(DEFAULT, y[1], y[2])
    assert clamps == 0


def test_clamp_at_zero_is_counted():
    y, clamps = oracle.rk4_step(dict(ZERO, beta1=1.0, alpha4=5.0, phi4=5.0), 0.0, (0.0, 1.0, 1.0), 0.5)
    assert y == (0.0, 1.0, 1.0) and clamps == 1


def test_brr_and_threshold():
    assert oracle.brr(8, 7, 9, 4) == 6.0
    assert oracle.threshold(4.0, 0.3, 2.0, 8.0, []) == 4.0
    assert oracle.threshold(4.0, 0.5, 2.0, 8.0, [6.0, 2.0, 10.0]) == 5.0
    assert oracle.threshold(4.0, 1.0, 2.0, 8.0, [20.0, 30.0]) == 8.0


def test_residual_sum_zero_on_own_prediction():
    times = [0.1 * k for k in range(11)]
    pred = oracle.integrate(DEFAULT, 0.0, (0.4, 0.3, 0.2), 20, 0.05)[::2]
    g, c, m = ([y[i] for y in pred] for i in range(3))
    f = [oracle.feedback(DEFAULT, y[1], y[2]) for y in pred]
    assert oracle.residual_sum(DEFAULT, times, g, c, m, f, 0.05) == 0.0
    g[3] += 1.0
    assert abs(oracle.residual_sum(DEFAULT, times, g, c, m, f, 0.05) - 1.0) <= 1e-12


def test_welch_matches_reference_fixture():
    f, df2 = oracle.welch([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    assert abs(f - 19.2) <= 1e-9 and abs(df2 - 6.0) <= 1e-9


def test_adherence_and_variance():
    assert oracle.adherence([1.0, 2.0, 3.0], [1.0, 2.0, 10.0], 0.5) == 2 / 3
    assert oracle.population_variance([2.0, 2.0, 5.0]) == 2.0
