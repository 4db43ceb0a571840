"""Dynamics: pointwise evaluation, RK4 stepping, and integration."""

import math
import random
import re
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from regflow.dynamics import (
    DEFAULT_INITIAL_STATE,
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _integrate_raw,
    _rk4_run,
    _step_count,
    advance,
    eval_feedback,
    integrate,
)
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.errors import ArgumentError, DomainError, NumericalError


def closed_form_g(t: float, alpha1: float, phi1: float, g0: float = 0.0) -> float:
    """Exact quadrature of dg/dt = alpha1*(1 - exp(-phi1*t)) with no damping."""
    return g0 + alpha1 * (t + (math.exp(-phi1 * t) - 1.0) / phi1)


class TestEvalFeedback:
    def test_zero_compliance_zeroes_feedback(self):
        p = ModelParameters(alpha4=1.0, phi4=1.0, gamma2=0.0)
        assert eval_feedback(SystemState(0.0, 0.0, 0.0, 5.0), p) == 0.0

    def test_closed_form_value(self):
        p = ModelParameters(alpha4=2.0, phi4=1.0, gamma2=0.0)
        s = SystemState(t=0.0, g=0.0, c=math.log(2.0), m=4.0)
        assert eval_feedback(s, p) == pytest.approx(4.0, abs=1e-12)

    def test_zero_saturation_rate_zeroes_feedback(self):
        p = ModelParameters(alpha4=3.0, phi4=0.0, gamma2=1.0)
        assert eval_feedback(SystemState(0.0, 0.0, 1.0, 9.0), p) == 0.0

    def test_bounded_by_alpha4_times_m(self):
        rng = random.Random(7)
        for _ in range(200):
            p = ModelParameters(
                alpha4=rng.uniform(0, 5), phi4=rng.uniform(0, 5), gamma2=rng.uniform(0, 5)
            )
            s = SystemState(t=0.0, g=0.0, c=rng.uniform(0, 10), m=rng.uniform(0, 10))
            f = eval_feedback(s, p)
            assert 0.0 <= f <= p.alpha4 * s.m + 1e-15
            assert math.isfinite(f)

    def test_monotone_in_market_adaptation(self):
        p = ModelParameters(alpha4=1.5, phi4=0.8, gamma2=0.4)
        rng = random.Random(11)
        for _ in range(100):
            c = rng.uniform(0, 5)
            m1 = rng.uniform(0, 5)
            m2 = m1 + rng.uniform(0, 5)
            f1 = eval_feedback(SystemState(0.0, 0.0, c, m1), p)
            f2 = eval_feedback(SystemState(0.0, 0.0, c, m2), p)
            assert f2 >= f1

    def test_non_finite_input_names_field(self):
        p = ModelParameters(alpha4=1.0)
        with pytest.raises(DomainError, match="c"):
            eval_feedback(SystemState(0.0, 0.0, math.nan, 1.0), p)
        with pytest.raises(DomainError, match="alpha4"):
            eval_feedback(SystemState(0.0, 0.0, 1.0, 1.0), ModelParameters(alpha4=math.inf))


def one_step(state, p, dt):
    """One clamped RK4 step of size dt: advance with a single substep."""
    return advance(state, p, dt, 1)[0]


class TestStepRk4:
    def test_fixed_point_preserved(self):
        # with alpha1 = 0 nothing drives the system away from c = m = 0
        p = ModelParameters(alpha2=0.5, alpha3=0.4, alpha4=0.8,
                            phi2=0.6, phi3=0.7, phi4=0.8,
                            beta1=0.2, beta2=0.3, beta3=0.4, gamma1=0.5, gamma2=0.5)
        s = one_step(SystemState(t=0.0, g=5.0, c=0.0, m=0.0), p, 0.25)
        assert (s.g, s.c, s.m) == (5.0, 0.0, 0.0)
        assert s.t == 0.25

    def test_single_step_matches_exact_quadrature(self):
        p = ModelParameters(alpha1=1.0, phi1=1.0)
        s = one_step(SystemState(0.0, 0.0, 0.0, 0.0), p, 0.1)
        assert s.g == pytest.approx(closed_form_g(0.1, 1.0, 1.0), abs=1e-8)

    def test_local_error_against_half_steps(self):
        # one dt step vs two dt/2 steps differ by O(dt^5)
        p = DEFAULT_PARAMETERS
        state = SystemState(t=0.3, g=0.8, c=0.6, m=0.4)
        for dt in (0.02, 0.01, 0.005):
            full = one_step(state, p, dt)
            half = one_step(one_step(state, p, dt / 2.0), p, dt / 2.0)
            for a, b in ((full.g, half.g), (full.c, half.c), (full.m, half.m)):
                assert abs(a - b) <= 10.0 * dt**5

    def test_bad_dt_raises(self):
        for dt in (0.0, -0.1, math.nan):
            with pytest.raises(ArgumentError):
                one_step(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, dt)


class TestIntegrate:
    def test_zero_field_is_constant_zero(self):
        traj = integrate(SystemState(0.0, 0.0, 0.0, 0.0), ModelParameters(), 2.0, 0.1)
        assert len(traj) == 21
        for state, f in traj.samples:
            assert (state.g, state.c, state.m, f) == (0.0, 0.0, 0.0, 0.0)
        assert traj.clamp_events == 0

    def test_linear_decay_closed_form(self):
        # with c = 0 and alpha1 = 0: c stays 0, g frozen, m = m0 * exp(-beta3 t)
        p = ModelParameters(alpha2=0.5, alpha3=0.4, alpha4=0.7,
                            phi2=0.5, phi3=0.5, phi4=0.5,
                            beta1=0.2, beta2=0.3, beta3=0.8, gamma1=0.4, gamma2=0.4)
        m0, g0 = 2.0, 1.5
        traj = integrate(SystemState(0.0, g0, 0.0, m0), p, 5.0, 0.01)
        for state, f in traj.samples:
            assert state.c == 0.0
            assert state.g == g0
            assert f == 0.0
            assert abs(state.m - m0 * math.exp(-p.beta3 * state.t)) < 1e-6

    def test_sample_count_and_uniform_spacing(self):
        traj = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 1.0, 0.3)
        assert len(traj) == math.ceil(1.0 / 0.3) + 1
        times = [state.t for state, _ in traj.samples]
        for k, t in enumerate(times):
            assert t == pytest.approx(k * 0.3, rel=1e-12)

    def test_exact_multiple_horizon_has_no_spurious_step(self):
        traj = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 10.0, 0.01)
        assert len(traj) == 1001

    def test_stored_f_matches_eval_feedback(self):
        traj = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 2.0, 0.05)
        for state, f in traj.samples[:: 7]:
            assert f == eval_feedback(state, DEFAULT_PARAMETERS)

    def test_convergence_order_against_half_step(self):
        ref = {}
        for dt in (0.1, 0.05, 0.025, 0.0125):
            traj = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 5.0, dt)
            state, _ = traj.terminal()
            ref[dt] = (state.g, state.c, state.m)
        e1 = max(abs(a - b) for a, b in zip(ref[0.1], ref[0.05]))
        e2 = max(abs(a - b) for a, b in zip(ref[0.05], ref[0.025]))
        e3 = max(abs(a - b) for a, b in zip(ref[0.025], ref[0.0125]))
        assert e1 / e2 >= 8.0
        assert e2 / e3 >= 8.0

    def test_global_order_on_closed_form(self):
        p = ModelParameters(alpha1=0.9, phi1=0.7)
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate(SystemState(0.0, 0.0, 0.0, 0.0), p, 10.0, dt)
            err = max(
                abs(state.g - closed_form_g(state.t, 0.9, 0.7)) for state, _ in traj.samples
            )
            errors.append(err)
        assert errors[0] / errors[1] >= 8.0
        assert errors[1] / errors[2] >= 8.0

    def test_non_negativity_with_clamping(self):
        # constant inhibitory feedback drags g through zero; the clamp holds it
        p = ModelParameters(alpha4=1.0, phi4=5.0, beta1=1.0)
        traj = integrate(SystemState(0.0, 0.5, 1.0, 1.0), p, 2.0, 0.1)
        assert all(state.g >= 0.0 for state, _ in traj.samples)
        state, _ = traj.terminal()
        assert state.g == 0.0
        assert traj.clamp_events > 0

    def test_compliance_zero_is_invariant(self):
        # alpha1 = 0 keeps g frozen, and c = 0 kills its own growth term
        rng = random.Random(3)
        for _ in range(20):
            p = ModelParameters(
                alpha2=rng.uniform(0, 2), alpha3=rng.uniform(0, 2), alpha4=rng.uniform(0, 2),
                phi2=rng.uniform(0, 2), phi3=rng.uniform(0, 2), phi4=rng.uniform(0, 2),
                beta1=rng.uniform(0, 2), beta2=rng.uniform(0, 2), beta3=rng.uniform(0, 2),
                gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
            )
            s0 = SystemState(0.0, rng.uniform(0, 3), 0.0, rng.uniform(0, 3))
            traj = integrate(s0, p, 1.0, 0.05)
            assert all(state.c == 0.0 for state, _ in traj.samples)

    def test_determinism_bit_identical(self):
        a = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 3.0, 0.05)
        b = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 3.0, 0.05)
        assert [(s.t, s.g, s.c, s.m, f) for s, f in a.samples] == [
            (s.t, s.g, s.c, s.m, f) for s, f in b.samples
        ]

    def test_step_count_overflow_rejected(self):
        with pytest.raises(ArgumentError, match="steps"):
            integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 2.0e6, 0.1)

    @pytest.mark.parametrize(
        "horizon, dt, count",
        [
            (3.0, 3.0 / 10000003, "10000003"),
            (1.0, 1.0 / 10000001, "10000001"),
            (2.0**53 - 2.0, 1.0, "9007199254740990"),
        ],
    )
    def test_step_count_over_the_limit_names_the_exact_count(self, horizon, dt, count):
        with pytest.raises(ArgumentError, match=rf"^horizon/dt requires {count} steps; limit is 10000000$"):
            _step_count(horizon, dt)

    @pytest.mark.parametrize(
        "horizon, dt, count",
        [(2.0**53, 1.0, "9.007e+15"), (3.0, 1e-300, "3e+300"), (1.0, 5e-324, "inf"), (math.inf, 1.0, "inf")],
    )
    def test_step_count_beyond_exact_floats_keeps_four_digits(self, horizon, dt, count):
        with pytest.raises(ArgumentError, match=rf"^horizon/dt requires {re.escape(count)} steps; limit is 10000000$"):
            _step_count(horizon, dt)

    def test_horizon_shorter_than_dt_rejected(self):
        with pytest.raises(ArgumentError):
            integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 0.01, 0.1)

    def test_divergence_raises_numerical_error_with_step(self):
        p = ModelParameters(alpha2=1e308, phi2=1.0)
        with pytest.raises(NumericalError) as err:
            integrate(SystemState(0.0, 1.0, 1.0, 1.0), p, 1.0, 0.5)
        assert err.value.step_index is not None


# ---------------------------------------------------------------------------
# reference RK4: a derivative closure called once per stage, as plainly as
# possible. The integration kernel must match it bit for bit.
# ---------------------------------------------------------------------------

def ref_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ref_deriv(p):
    def deriv(t, g, c, m):
        f = p.alpha4 * (m * (1.0 - ref_exp(-p.phi4 * c)) / (1.0 + p.gamma2 * c))
        dg = p.alpha1 * (1.0 - ref_exp(-p.phi1 * t)) - p.beta1 * f
        dc = p.alpha2 * g * (1.0 - ref_exp(-p.phi2 * c)) - p.beta2 * (c / (1.0 + p.gamma1 * m))
        dm = p.alpha3 * c * (1.0 - ref_exp(-p.phi3 * g)) - p.beta3 * m
        return dg, dc, dm

    return deriv


def ref_rk4_once(deriv, t, g, c, m, dt):
    half = 0.5 * dt
    k1g, k1c, k1m = deriv(t, g, c, m)
    k2g, k2c, k2m = deriv(t + half, g + half * k1g, c + half * k1c, m + half * k1m)
    k3g, k3c, k3m = deriv(t + half, g + half * k2g, c + half * k2c, m + half * k2m)
    k4g, k4c, k4m = deriv(t + dt, g + dt * k3g, c + dt * k3c, m + dt * k3m)
    sixth = dt / 6.0
    return (
        g + sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g),
        c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c),
        m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m),
    )


def ref_run(p, t0, g, c, m, h, n):
    """(states after each step, cost, clamps); NumericalError(step_index=k)
    when step k ends non-finite or divides by zero."""
    deriv = ref_deriv(p)
    states, cost, clamps = [], 0.0, 0
    for k in range(n):
        cost += p.beta2 * (c / (1.0 + p.gamma1 * m)) * h
        try:
            g, c, m = ref_rk4_once(deriv, t0 + k * h, g, c, m, h)
        except ZeroDivisionError:
            raise NumericalError("reference step divides by zero", step_index=k) from None
        if g < 0.0:
            g, clamps = 0.0, clamps + 1
        if c < 0.0:
            c, clamps = 0.0, clamps + 1
        if m < 0.0:
            m, clamps = 0.0, clamps + 1
        if not (math.isfinite(g) and math.isfinite(c) and math.isfinite(m)):
            raise NumericalError("reference step not finite", step_index=k)
        states.append((g, c, m))
    return states, cost, clamps


def ref_feedback(p, c, m):
    return p.alpha4 * (m * (1.0 - ref_exp(-p.phi4 * c)) / (1.0 + p.gamma2 * c))


def bits(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def outcome(fn, *args):
    """fn's result, or ("NumericalError", step_index) when it raises one."""
    try:
        return fn(*args)
    except NumericalError as exc:
        return ("NumericalError", exc.step_index)


def ref_advance(state, p, dt, substeps):
    states, cost, clamps = ref_run(p, state.t, state.g, state.c, state.m, dt / substeps, substeps)
    g, c, m = states[-1]
    return bits(state.t + dt, g, c, m, ref_feedback(p, c, m), cost), clamps


def kernel_advance(state, p, dt, substeps):
    new, f, cost, clamps = advance(state, p, dt, substeps)
    return bits(new.t, new.g, new.c, new.m, f, cost), clamps


def ref_integrate(state, p, steps, dt):
    states, _, clamps = ref_run(p, state.t, state.g, state.c, state.m, dt, steps)
    rows = [(state.g, state.c, state.m)] + states
    return [
        bits(state.t + k * dt, g, c, m, ref_feedback(p, c, m)) for k, (g, c, m) in enumerate(rows)
    ], clamps


def kernel_integrate(state, p, steps, dt):
    traj = integrate(state, p, steps * dt, dt)
    assert len(traj) == steps + 1
    return [bits(s.t, s.g, s.c, s.m, f) for s, f in traj.samples], traj.clamp_events


def ref_step(state, p, dt):
    (g, c, m), = ref_run(p, state.t, state.g, state.c, state.m, dt, 1)[0]
    return bits(state.t + dt, g, c, m)


def kernel_step(state, p, dt):
    s = one_step(state, p, dt)
    return bits(s.t, s.g, s.c, s.m)


def ref_integrate_raw(t0, g, c, m, p, steps, dt):
    states, _, clamps = ref_run(p, t0, g, c, m, dt, steps)
    return [bits(*row) for row in [(g, c, m)] + states], clamps


def kernel_integrate_raw(t0, g, c, m, p, steps, dt):
    rows, clamps = _integrate_raw(t0, g, c, m, p, steps, dt)
    return [bits(*row) for row in rows], clamps


class TestEvalDerivatives:
    """The reference right-hand side at points where the model's formula has
    a known value; the kernel is matched to this reference bit for bit."""

    def test_quiescent_origin(self):
        p = ModelParameters(alpha1=0.7, alpha2=0.5, alpha3=0.4, alpha4=0.9,
                            phi1=1.0, phi2=1.0, phi3=1.0, phi4=1.0,
                            beta1=0.3, beta2=0.2, beta3=0.1, gamma1=0.5, gamma2=0.5)
        assert ref_deriv(p)(0.0, 5.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_pure_decay_of_m(self):
        p = ModelParameters(alpha1=0.3, alpha2=0.2, alpha3=0.4, alpha4=0.5,
                            phi1=1.0, phi2=1.0, phi3=1.0, phi4=1.0,
                            beta1=0.1, beta2=0.2, beta3=0.5, gamma1=0.3, gamma2=0.3)
        dg, dc, dm = ref_deriv(p)(0.0, 1.0, 0.0, 2.0)
        assert dm == -1.0
        assert dg == 0.0 and dc == 0.0

    def test_undamped_unit_point(self):
        p = ModelParameters(alpha1=1.0, alpha2=1.0, alpha3=1.0, alpha4=1.0,
                            phi1=1.0, phi2=1.0, phi3=1.0, phi4=1.0)
        dg, dc, dm = ref_deriv(p)(1.0, 1.0, 1.0, 1.0)
        expected = 1.0 - math.exp(-1.0)
        assert dg == pytest.approx(expected, abs=1e-15)
        assert dc == pytest.approx(expected, abs=1e-15)
        assert dm == pytest.approx(expected, abs=1e-15)

    def test_non_finite_raises(self):
        # the kernel reads states only from a SystemState, which refuses this one
        with pytest.raises(DomainError):
            advance(SystemState(math.inf, 1.0, 1.0, 1.0), DEFAULT_PARAMETERS, 0.1, 1)


def exponent_case(e):
    """(state, p, dt) of one step from g = 1 whose stage 2 puts g at 1 - e,
    so that stage's exp(-phi3 * g) is exp(e - 1)."""
    p = ModelParameters(alpha3=1e-300, alpha4=1.0, phi3=1.0, phi4=1.0, beta1=1.0)
    return SystemState(0.0, 1.0, 1.0, 1.0), p, 2.0 * e / (1.0 - math.exp(-1.0))


def coefficient(name):
    lo, hi = DEFAULT_PARAM_BOUNDS[name]
    return st.one_of(st.just(lo), st.floats(lo, hi))


params_st = st.builds(ModelParameters, **{name: coefficient(name) for name in PARAM_FIELDS})
component_st = st.floats(0.0, 3.0)
state_st = st.builds(SystemState, component_st, component_st, component_st, component_st)
dt_st = st.floats(0.001, 4.0)


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(state=state_st, p=params_st, dt=dt_st, substeps=st.integers(1, 50))
    def test_advance(self, state, p, dt, substeps):
        assert outcome(kernel_advance, state, p, dt, substeps) == outcome(
            ref_advance, state, p, dt, substeps
        )

    @settings(max_examples=300, deadline=None)
    @given(state=state_st, p=params_st, dt=dt_st, steps=st.integers(1, 50))
    def test_integrate(self, state, p, dt, steps):
        assert outcome(kernel_integrate, state, p, steps, dt) == outcome(
            ref_integrate, state, p, steps, dt
        )

    @settings(max_examples=300, deadline=None)
    @given(state=state_st, p=params_st, dt=dt_st)
    def test_step_rk4(self, state, p, dt):
        assert outcome(kernel_step, state, p, dt) == outcome(ref_step, state, p, dt)

    @pytest.mark.parametrize(
        "p, state, dt, substeps, clamps",
        [
            # inhibitory feedback drags g through zero over several substeps
            (ModelParameters(alpha4=1.0, phi4=5.0, beta1=1.0), SystemState(0.0, 0.5, 1.0, 1.0), 2.0, 20, 15),
            # one long step overshoots all three components below zero
            (
                ModelParameters(
                    alpha2=1.718, alpha3=0.994, alpha4=1.666, phi1=1.808, phi2=1.942, phi3=0.905,
                    phi4=1.52, beta1=1.996, beta2=0.63, beta3=0.152, gamma1=0.559,
                ),
                SystemState(0.0, 0.92, 2.97, 2.8), 1.0, 1, 3,
            ),
        ],
    )
    def test_clamping_cases(self, p, state, dt, substeps, clamps):
        got = kernel_advance(state, p, dt, substeps)
        assert got == ref_advance(state, p, dt, substeps)
        assert got[1] == clamps
        assert outcome(kernel_integrate, state, p, substeps, dt / substeps) == ref_integrate(
            state, p, substeps, dt / substeps
        )

    @pytest.mark.parametrize("substeps", [1, 2, 7])
    def test_overflow_raises_with_reference_step_index(self, substeps):
        p = ModelParameters(alpha2=1e308, phi2=1.0)
        state = SystemState(0.0, 1.0, 1.0, 1.0)
        expected = outcome(ref_advance, state, p, 0.5, substeps)
        assert expected[0] == "NumericalError"
        assert outcome(kernel_advance, state, p, 0.5, substeps) == expected
        assert outcome(kernel_integrate, state, p, substeps, 0.5) == outcome(
            ref_integrate, state, p, substeps, 0.5
        )
        assert outcome(kernel_step, state, p, 0.5) == outcome(ref_step, state, p, 0.5)

    def test_exponent_between_709_and_overflow(self):
        # exp(e - 1) is finite up to about 709.78 and overflows past it,
        # where only the redo's inf makes the step non-finite: a kernel that
        # cut at 709 fails the first e, one that never redid the step the
        # second
        for e in (710.4, 710.8):
            state, p, dt = exponent_case(e)
            expected = outcome(ref_advance, state, p, dt, 1)
            assert (expected[0] == "NumericalError") == (e > 710.79)
            assert outcome(kernel_advance, state, p, dt, 1) == expected

    @pytest.mark.parametrize(
        "state, p",
        [
            # stage 2 puts c at -1/gamma2, the denominator of f
            (SystemState(0.0, 0.5, 1.0, 0.5), ModelParameters(alpha4=1.0, phi4=1.0, beta2=4.0, gamma2=1.0)),
            # stage 2 puts m at -1/gamma1, the denominator of dc/dt's damping
            (SystemState(0.0, 0.5, 0.5, 1.0), ModelParameters(beta3=4.0, gamma1=1.0)),
        ],
        ids=["gamma2", "gamma1"],
    )
    def test_zero_stage_denominator_is_a_numerical_error(self, state, p):
        assert outcome(ref_advance, state, p, 1.0, 1) == ("NumericalError", 0)
        assert outcome(kernel_advance, state, p, 1.0, 1) == ("NumericalError", 0)

    def test_negative_start_time_uses_guarded_exp(self):
        # calibration integrates from the first observed time, which may be
        # negative; exp(-phi1 * t) then sits in the same window
        p = ModelParameters(alpha1=1e-310, phi1=1.0, beta3=1.0)
        for t0 in (-709.5, -709.0, -100.0):
            assert outcome(kernel_integrate_raw, t0, 1.0, 1.0, 1.0, p, 3, 0.25) == outcome(
                ref_integrate_raw, t0, 1.0, 1.0, 1.0, p, 3, 0.25
            )



def kernel_run(p, t0, g, c, m, h, n):
    """_rk4_run as ref_run reports it: (states after each step, cost, clamps)."""
    states = []
    cost, clamps = _rk4_run(p, t0, g, c, m, h, n, states)[3:]
    return states, cost, clamps


def run_bits(run, *args):
    """A run's states, cost and clamps as bits, or its NumericalError's step."""
    got = outcome(run, *args)
    if got[0] == "NumericalError":
        return got
    states, cost, clamps = got
    return [bits(*row) for row in states], bits(cost), clamps


signed_zero = st.sampled_from([0.0, -0.0])
time_call = st.fixed_dictionaries({
    "p": params_st,
    "alpha1": signed_zero | coefficient("alpha1"),
    "phi1": signed_zero | st.sampled_from([1.0, 2.5]) | coefficient("phi1"),
    # ints equal to floats drawn here, so runs with equal keys of either type meet
    "t0": signed_zero | st.sampled_from([-709.5, -3.0, -3, 0, 2.0, 2]) | st.floats(-50.0, 50.0),
    "h": st.sampled_from([1.0, 1, 2.0, 2]) | st.floats(0.001, 2.0),
    "n": st.integers(1, 12),
    "state": st.tuples(st.just(-0.0) | component_st, component_st, component_st),
    # which of alpha1, phi1, t0, h and n the call takes from the one before
    "kept": st.sets(st.sampled_from(["alpha1", "phi1", "t0", "h", "n"])),
    "via_advance": st.booleans(),
})


class TestTimeTermMemo:
    """The time terms 1 - exp(-phi1 * t) are shared between runs with equal
    phi1, t0 and h and the same step count; every run still equals the
    reference bit for bit, whatever ran before it."""

    @settings(max_examples=200, deadline=None)
    @given(calls=st.lists(time_call, min_size=2, max_size=5))
    def test_call_sequences_match_reference(self, calls):
        prev = None
        for call in calls:
            if prev is not None:
                call = {**call, **{name: prev[name] for name in call["kept"]}}
            p = call["p"].replace(alpha1=call["alpha1"], phi1=call["phi1"])
            t0, h, n = call["t0"], call["h"], call["n"]
            if call["via_advance"] and t0 >= 0.0:
                state = SystemState(t0, *(abs(x) for x in call["state"]))
                assert outcome(kernel_advance, state, p, h * n, n) == outcome(ref_advance, state, p, h * n, n)
            else:
                args = (p, t0, *call["state"], h, n)
                assert run_bits(kernel_run, *args) == run_bits(ref_run, *args)
            prev = call

    def test_signed_zeros_keep_their_sign(self):
        # 0.0 == -0.0, but a zero drive alpha1 * (1 - exp(-phi1 * t)) leaves
        # g = -0.0 as -0.0 only when alpha1 is -0.0 too; each run repeats or
        # flips the sign of alpha1, phi1 or t0 of the one before
        for alpha1, phi1, t0 in [(0.0, 0.5, 0.0), (0.0, 0.5, 0.0), (-0.0, 0.5, 0.0), (-0.0, 0.5, 0.0),
                                 (0.0, 0.5, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, 0.0), (0.0, -0.0, 0.0)]:
            p = ModelParameters(alpha1=alpha1, phi1=phi1)
            args = (p, t0, -0.0, 0.0, 0.0, 0.1, 2)
            assert run_bits(kernel_run, *args) == run_bits(ref_run, *args)
            assert run_bits(kernel_run, *args)[0][-1] == bits(math.copysign(0.0, alpha1), 0.0, 0.0)

    def test_int_key_after_the_equal_float_key(self):
        # each int run follows the float run of equal t0 and h; past 2**53
        # their sums t0 + k*h can round differently, which the last case's
        # tiny phi1 carries into g by step 50
        cases = [
            (DEFAULT_PARAMETERS, 3.0, 1.0),
            (ModelParameters(alpha1=1.0, phi1=1.854722835381216e-19), 2.751788642814995e16, 1.2212808701218117e17),
        ]
        for p, t0, h in cases:
            for key_t0, key_h in ((t0, h), (int(t0), int(h))):
                args = (p, key_t0, 0.5, 0.5, 0.5, key_h, 50)
                assert run_bits(kernel_run, *args) == run_bits(ref_run, *args)

    def test_redo_after_a_memo_hit(self):
        # the same key three times, so the last runs on the kept terms; the
        # last start drags g through zero, so stages go negative and each
        # such step is redone with the guarded exp
        p = ModelParameters(alpha1=0.3, phi1=0.7, alpha4=1.0, phi4=5.0, beta1=1.0)
        for state in (SystemState(0.0, 3.0, 0.0, 0.0), SystemState(0.0, 3.0, 0.0, 0.0), SystemState(0.0, 0.5, 1.0, 1.0)):
            got = kernel_advance(state, p, 2.0, 20)
            assert got == ref_advance(state, p, 2.0, 20)
        assert got[1] > 0
        # a stage exponent below the overflow keeps the step finite, one
        # past it redoes the step, which then ends non-finite
        for e in (710.4, 710.8):
            state, p, dt = exponent_case(e)
            expected = outcome(ref_advance, state, p, dt, 1)
            assert (expected[0] == "NumericalError") == (e > 710.79)
            for _ in range(3):
                assert outcome(kernel_advance, state, p, dt, 1) == expected

    def test_a_long_run_builds_no_table(self):
        # run twice, as a memo that kept it would hold the table from the
        # first; a table of 30,000 steps' terms takes about 4.3 MB
        state = SystemState(0.0, 0.5, 0.5, 0.5)
        tracemalloc.start()
        try:
            for _ in range(2):
                advance(state, DEFAULT_PARAMETERS, 1.0, 30_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCsvExport:
    def test_header_rows_and_full_precision(self, tmp_path):
        traj = integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 1.0, 0.25)
        path = tmp_path / "series.csv"
        write_series_csv(generate_synthetic(DEFAULT_PARAMETERS, DEFAULT_INITIAL_STATE, 1.0, 0.25, 1, 0.0, 0), path)
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == ""
        assert lines[0] == "t,G,C,M,F"
        assert len(lines) == len(traj) + 1
        for line, (state, f) in zip(lines[1:], traj.samples):
            t_s, g_s, c_s, m_s, f_s = line.split(",")
            assert float(t_s) == state.t
            assert float(g_s) == state.g
            assert float(c_s) == state.c
            assert float(m_s) == state.m
            assert float(f_s) == f
