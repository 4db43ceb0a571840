"""Calibration: objective residuals, Levenberg-Marquardt fitting, synthetic data."""

import math
import statistics

import numpy as np
import pytest

from regflow import calibration
from regflow.cli import main
from regflow.calibration import (
    FitOptions,
    ObservedSeries,
    _damped_step,
    _dot,
    _gram,
    _levenberg_marquardt,
    _prepare,
    _residuals,
    _sum_squares,
    fit,
    generate_synthetic,
    objective,
    read_series_csv,
    write_series_csv,
)
from regflow.dynamics import (
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _exp,
    _integrate_raw,
    _step_count,
    eval_feedback,
    integrate,
)
from regflow.errors import ArgumentError, NumericalError

TRUE_PARAMS = ModelParameters(
    alpha1=0.6, alpha2=0.5, alpha3=0.4, alpha4=0.8,
    phi1=0.8, phi2=0.7, phi3=0.6, phi4=0.9,
    beta1=0.2, beta2=0.3, beta3=0.25, gamma1=0.5, gamma2=0.4,
)
START = SystemState(t=0.0, g=0.4, c=0.3, m=0.2)


def make_noiseless_obs(horizon=3.0, dt=0.05, sample_every=2):
    return generate_synthetic(TRUE_PARAMS, START, horizon, dt, sample_every, 0.0, 0)


class TestObjective:
    def test_self_residual_is_zero(self):
        obs = make_noiseless_obs()
        total, comps = objective(TRUE_PARAMS, obs, 0.05)
        assert total <= 1e-10
        assert all(c <= 1e-10 for c in comps)

    def test_total_equals_component_sum(self):
        obs = make_noiseless_obs()
        total, comps = objective(DEFAULT_PARAMETERS, obs, 0.05)
        assert total == pytest.approx(sum(comps), rel=1e-9)

    def test_single_mismatched_row_contributes_exactly_one(self):
        # frozen dynamics: predictions stay at the initial row, so a +1
        # offset in the observed g adds exactly 1.0 to e_g and nothing else
        p = ModelParameters(alpha4=2.0, phi4=0.7, gamma2=0.3)
        f0 = eval_feedback(SystemState(0.0, 1.0, 1.0, 1.0), p)
        obs = ObservedSeries(
            times=[0.0, 1.0],
            g_obs=[1.0, 2.0],
            c_obs=[1.0, 1.0],
            m_obs=[1.0, 1.0],
            f_obs=[f0, f0],
        )
        total, (e_g, e_c, e_m, e_f) = objective(p, obs, 0.1)
        assert e_g == 1.0
        assert e_c == 0.0 and e_m == 0.0 and e_f == 0.0
        assert total == 1.0

    def test_truth_is_global_minimum_on_noiseless_data(self):
        obs = make_noiseless_obs()
        base, _ = objective(TRUE_PARAMS, obs, 0.05)
        rng = np.random.default_rng(5)
        for _ in range(25):
            values = {name: float(rng.uniform(0.0, 2.0)) for name in PARAM_FIELDS}
            total, _ = objective(ModelParameters(**values), obs, 0.05)
            assert total >= base

    def test_component_order_invariance(self):
        obs = make_noiseless_obs()
        total, comps = objective(DEFAULT_PARAMETERS, obs, 0.05)
        for perm in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)):
            assert total == pytest.approx(sum(comps[i] for i in perm), rel=1e-9)

    def test_matches_row_loop_reference_bit_for_bit(self):
        # reference: the four sums accumulated in one plain loop over rows
        obs = make_noiseless_obs()
        steps = _step_count(obs.times[-1] - obs.times[0], 0.05)
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = ModelParameters(*(float(v) for v in rng.uniform(0.0, 2.0, len(PARAM_FIELDS))))
            raw, _ = _integrate_raw(0.0, 0.4, 0.3, 0.2, p, steps, 0.05)
            e_g = e_c = e_m = e_f = 0.0
            for j, t in enumerate(obs.times):
                g, c, m = raw[int(round(t / 0.05))]
                f = p.alpha4 * (m * (1.0 - _exp(-p.phi4 * c)) / (1.0 + p.gamma2 * c))
                dg, dc, dm, df = obs.g_obs[j] - g, obs.c_obs[j] - c, obs.m_obs[j] - m, obs.f_obs[j] - f
                e_g += dg * dg
                e_c += dc * dc
                e_m += dm * dm
                e_f += df * df
            assert objective(p, obs, 0.05) == (e_g + e_c + e_m + e_f, (e_g, e_c, e_m, e_f))

    def test_squares_are_products(self):
        # IEEE 754 rounds x * x correctly; x ** 2 need not, and this x is a
        # value where a libm pow can give the float one below
        x = 1.8997457034743226e-64
        assert _sum_squares([[x]]) == (x * x, (x * x,))
        assert _sum_squares([[x]])[0] == 3.609033737869149e-128
        # a finite value whose square overflows sums to inf
        assert _sum_squares([[1.0], [1e200, 1.0]]) == (math.inf, (1.0, math.inf))

    def test_too_short_series_rejected(self):
        with pytest.raises(ArgumentError):
            objective(
                TRUE_PARAMS,
                ObservedSeries([0.0], [1.0], [1.0], [1.0], [0.0]),
                0.1,
            )

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ArgumentError):
            objective(
                TRUE_PARAMS,
                ObservedSeries([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]),
                0.1,
            )

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ArgumentError, match="m_obs length 1 != times length 2"):
            objective(
                TRUE_PARAMS,
                ObservedSeries([0.0, 0.1], [1.0, 1.0], [1.0, 1.0], [1.0], [0.0, 0.0]),
                0.1,
            )


class TestLevenbergMarquardt:
    def test_quadratic_bowl(self):
        resid = lambda x: [[v - 0.5 for v in x]]
        lo, hi = [0.0] * 4, [1.0] * 4
        x, _, f, iters, conv = _levenberg_marquardt(resid, [0.9] * 4, lo, hi, 500, 1e-12)
        assert conv
        assert f < 1e-10
        assert x == pytest.approx([0.5] * 4, abs=1e-4)

    def test_minimum_on_box_face(self):
        # unconstrained minimum at -1 lies outside; projection pins x at 0
        resid = lambda x: [[v + 1.0 for v in x]]
        lo, hi = [0.0] * 3, [5.0] * 3
        x, _, f, _, _ = _levenberg_marquardt(resid, [2.0] * 3, lo, hi, 500, 1e-12)
        assert all(low <= v <= high for v, low, high in zip(x, lo, hi))
        assert x == pytest.approx([0.0] * 3, abs=1e-6)

    def test_rosenbrock(self):
        def resid(x):
            return [[10.0 * (b - a ** 2) for a, b in zip(x, x[1:])], [1.0 - a for a in x[:-1]]]

        lo, hi = [0.0] * 4, [2.0] * 4
        x, _, f, iters, conv = _levenberg_marquardt(resid, [0.2] * 4, lo, hi, 4000, 1e-12)
        assert f < 1e-8
        assert x == pytest.approx([1.0] * 4, abs=1e-3)

    @pytest.mark.parametrize("seed", range(6))
    def test_damped_step_is_the_least_squares_step(self, seed):
        # the Cholesky solve of (JᵀJ + λD²) s = -Jᵀr over the free
        # coordinates gives numpy's least-squares solution of the stacked
        # system [J; √λ·D] s = [-r; 0]; zero columns get D = 1 and s = 0
        rng = np.random.default_rng(seed)
        m, n = 40, 7
        jac = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=n)
        jac[:, rng.choice(n, size=2, replace=False)] = 0.0
        r = rng.normal(size=m)
        free = sorted(rng.choice(n, size=5, replace=False).tolist())
        lam = 10.0 ** rng.uniform(-6, 1)
        norms = np.linalg.norm(jac, axis=0)
        diag = np.where(norms > 0.0, norms, 1.0)[free]
        cols = jac.T.tolist()
        jtj = [[_dot(cols[i], cols[j]) for j in range(i + 1)] for i in range(n)]
        grad = [_dot(col, r.tolist()) for col in cols]
        step = _damped_step(jtj, grad, free, (lam * diag ** 2).tolist())
        stacked = np.vstack([jac[:, free], np.diag(math.sqrt(lam) * diag)])
        oracle = np.linalg.lstsq(stacked, np.concatenate([-r, np.zeros(len(free))]), rcond=None)[0]
        assert step == pytest.approx(oracle.tolist(), rel=1e-9, abs=1e-12)
        for j, s in zip(free, step):
            if norms[j] == 0.0:
                assert s == 0.0

    def test_gram_gives_the_dot_products_bit_for_bit(self):
        rng = np.random.default_rng(7)
        vectors = (rng.normal(size=(6, 31)) * 10.0 ** rng.uniform(-8, 8, size=(6, 1))).tolist()
        assert _gram(vectors) == [[_dot(vectors[i], vectors[j]) for j in range(i + 1)] for i in range(6)]

    def test_a_step_far_shorter_than_its_drop_predicts_is_taken(self):
        # from x = 2e-300 the step is clipped to 0 and the residual jumps
        # down: the drop is 0.75 but the linear model predicts about 4e-300,
        # a gain whose cube no float holds
        def resid(x):
            return [[1.0 + x[0]]] if x[0] > 1e-300 else [[0.5]]

        x, rows, f, iters, conv = _levenberg_marquardt(resid, [2e-300], [0.0], [1.0], 5, 0.0)
        assert (x, rows, f, conv) == ([0.0], [[0.5]], 0.25, True)

    def test_damped_step_refuses_a_non_positive_pivot(self):
        # an undamped zero column leaves a zero pivot
        jtj = [[4.0], [0.0, 0.0]]
        assert _damped_step(jtj, [1.0, 0.0], [0, 1], [0.0, 0.0]) is None
        assert _damped_step(jtj, [1.0, 0.0], [0, 1], [0.0, 1e-300]) == [-0.25, 0.0]


class TestFit:
    def test_recovery_from_perturbed_guess(self):
        obs = make_noiseless_obs()
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.10 for n in PARAM_FIELDS})
        res = fit(obs, guess, options=FitOptions(max_iter=5000, tol=1e-10, restarts=0, seed=0))
        assert res.objective_value < 1e-6
        assert res.iterations <= 5000

    def test_zero_series_converges_immediately(self):
        obs = ObservedSeries(
            times=[0.0, 1.0, 2.0],
            g_obs=[0.0, 0.0, 0.0],
            c_obs=[0.0, 0.0, 0.0],
            m_obs=[0.0, 0.0, 0.0],
            f_obs=[0.0, 0.0, 0.0],
        )
        res = fit(obs, ModelParameters(), options=FitOptions(max_iter=50, tol=1e-12))
        assert res.objective_value == 0.0
        assert res.converged
        assert res.iterations <= 1

    def test_restarts_never_hurt(self):
        obs = make_noiseless_obs(horizon=2.0)
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.5 for n in PARAM_FIELDS})
        opts0 = FitOptions(max_iter=150, tol=1e-10, restarts=0, seed=3)
        opts3 = FitOptions(max_iter=150, tol=1e-10, restarts=3, seed=3)
        res0 = fit(obs, guess, options=opts0)
        res3 = fit(obs, guess, options=opts3)
        assert res3.objective_value <= res0.objective_value

    def test_a_restart_that_wins_gives_the_result(self, monkeypatch):
        # a start from the box's top corner stops unconverged after 8
        # iterations; seed 1's first restart converges, so the loop stops
        # there and its coefficients, objective and convergence are returned
        obs = make_noiseless_obs(horizon=2.0)
        bounds = {n: (0.8 * getattr(TRUE_PARAMS, n), 1.2 * getattr(TRUE_PARAMS, n)) for n in PARAM_FIELDS}
        guess = ModelParameters(**{n: hi for n, (_, hi) in bounds.items()})
        starts = []

        def recording(*args):
            starts.append(_levenberg_marquardt(*args))
            return starts[-1]

        monkeypatch.setattr(calibration, "_levenberg_marquardt", recording)
        res = fit(obs, guess, bounds=bounds, options=FitOptions(max_iter=8, tol=1e-12, restarts=3, seed=1))
        assert len(starts) == 2
        (_, _, first_f, first_iters, first_conv), (x, _, f, iters, conv) = starts
        assert not first_conv and conv and f < first_f
        assert res.params == ModelParameters(*x)
        assert res.objective_value == f
        assert res.converged
        assert res.iterations == first_iters + iters
        assert res.restarts_used == 1

    def test_deterministic_given_seed(self):
        obs = make_noiseless_obs(horizon=2.0)
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.3 for n in PARAM_FIELDS})
        opts = FitOptions(max_iter=100, tol=1e-10, restarts=2, seed=9)
        res1 = fit(obs, guess, options=opts)
        res2 = fit(obs, guess, options=opts)
        assert res1.objective_value == res2.objective_value
        assert all(
            getattr(res1.params, n) == getattr(res2.params, n) for n in PARAM_FIELDS
        )

    def test_result_stays_in_bounds(self):
        obs = make_noiseless_obs(horizon=2.0)
        bounds = {name: (0.0, 0.45) for name in PARAM_FIELDS}
        guess = ModelParameters(**{name: 0.2 for name in PARAM_FIELDS})
        res = fit(obs, guess, bounds=bounds, options=FitOptions(max_iter=200, restarts=1, seed=2))
        for name in PARAM_FIELDS:
            assert 0.0 <= getattr(res.params, name) <= 0.45

    def test_objective_matches_component_sum(self):
        obs = make_noiseless_obs(horizon=2.0)
        res = fit(obs, DEFAULT_PARAMETERS, options=FitOptions(max_iter=50))
        assert res.objective_value == pytest.approx(sum(res.components), rel=1e-9)

    def test_guess_outside_bounds_rejected(self):
        obs = make_noiseless_obs(horizon=2.0)
        bounds = {name: (0.0, 0.1) for name in PARAM_FIELDS}
        with pytest.raises(ArgumentError):
            fit(obs, TRUE_PARAMS, bounds=bounds)

    def test_invalid_bounds_rejected(self):
        obs = make_noiseless_obs(horizon=2.0)
        bad = {name: (1.0, 0.5) for name in PARAM_FIELDS}
        with pytest.raises(ArgumentError):
            fit(obs, ModelParameters(), bounds=bad)

    def test_diverging_corners_of_huge_bounds_survive(self):
        # restarts sample uniformly inside the box; with bounds this wide
        # every sampled point overflows the integration, which must be
        # scored as +inf rather than aborting the fit. tol=0 and a short
        # first start keep the guess from meeting tol, so both restarts run
        obs = make_noiseless_obs(horizon=2.0)
        wide = {name: (0.0, 1e160) for name in PARAM_FIELDS}
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.5 for n in PARAM_FIELDS})
        res = fit(
            obs,
            guess,
            bounds=wide,
            options=FitOptions(max_iter=3, tol=0.0, restarts=2, seed=0),
        )
        assert res.restarts_used == 2
        assert math.isfinite(res.objective_value)
        base, _ = objective(guess, obs, 0.05)
        assert res.objective_value <= base

    def test_restart_points_whose_squares_overflow_lose(self):
        # past alpha1 ~ 1e154 the integration stays finite but the squares
        # of its residuals do not: such restart points score +inf, so the
        # guess's start wins
        obs = make_noiseless_obs(horizon=2.0)
        prep = _prepare(obs, 0.05)
        rows = _residuals(TRUE_PARAMS.replace(alpha1=1e199), obs, 0.05, prep)
        assert all(map(math.isfinite, (v for row in rows for v in row)))
        assert objective(TRUE_PARAMS.replace(alpha1=1e199), obs, 0.05)[0] == math.inf
        bounds = dict(DEFAULT_PARAM_BOUNDS, alpha1=(0.0, 1e200))
        guess = TRUE_PARAMS.replace(alpha1=0.9)
        res = fit(obs, guess, bounds=bounds, options=FitOptions(max_iter=3, tol=0.0, restarts=2, seed=0))
        alone = fit(obs, guess, bounds=bounds, options=FitOptions(max_iter=3, tol=0.0))
        assert res.restarts_used == 2
        assert res.to_json_dict() == dict(alone.to_json_dict(), restarts_used=2)

    def test_jacobian_probe_past_the_divergence_edge_survives(self):
        # just below the alpha3 at which the integration overflows, the
        # forward-difference probe crosses the edge; its non-finite
        # residuals must not reach the step
        obs = make_noiseless_obs(horizon=2.0)
        prep = _prepare(obs, 0.05)

        def finite(alpha3):
            try:
                r = _residuals(TRUE_PARAMS.replace(alpha3=alpha3), obs, 0.05, prep)
            except NumericalError:
                return False
            return bool(np.all(np.isfinite(r)))

        lo, hi = 1.0, 1e300
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if finite(mid) else (lo, mid)
        assert hi / lo - 1.0 < 1e-9
        guess = TRUE_PARAMS.replace(alpha3=lo)
        wide = {name: (0.0, 1e160) for name in PARAM_FIELDS}
        res = fit(obs, guess, bounds=wide, options=FitOptions(max_iter=3, tol=0.0))
        assert math.isfinite(res.objective_value)
        assert res.objective_value <= objective(guess, obs, 0.05)[0]

    def test_a_start_that_diverges_raises(self):
        # resid scores the diverged guess as +inf so that restarts could
        # run; with none, fit integrates it again to raise the error itself
        obs = make_noiseless_obs(horizon=2.0)
        wide = {name: (0.0, 1e300) for name in PARAM_FIELDS}
        with pytest.raises(NumericalError, match="non-finite state"):
            fit(obs, TRUE_PARAMS.replace(alpha3=1e300), bounds=wide, options=FitOptions(max_iter=3, restarts=0))

    def test_components_are_those_of_the_winning_point(self):
        # the components come from the residuals the optimizer last
        # evaluated, not from a second integration
        obs = make_noiseless_obs(horizon=2.0)
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.05 for n in PARAM_FIELDS})
        res = fit(obs, guess, options=FitOptions(max_iter=5, tol=0.0, restarts=0))
        assert (res.objective_value, res.components) == objective(res.params, obs, 0.05)

    def test_recovers_every_coefficient_on_noiseless_data(self):
        obs = make_noiseless_obs()
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.10 for n in PARAM_FIELDS})
        res = fit(obs, guess, options=FitOptions(tol=0.0))
        assert res.converged
        for name in PARAM_FIELDS:
            assert abs(getattr(res.params, name) - getattr(TRUE_PARAMS, name)) <= 1e-6, name

    def test_agrees_with_scipy_least_squares(self):
        optimize = pytest.importorskip("scipy.optimize")
        obs = make_noiseless_obs()
        guess = ModelParameters(**{n: getattr(TRUE_PARAMS, n) * 1.10 for n in PARAM_FIELDS})
        prep = _prepare(obs, 0.05)
        lo = [DEFAULT_PARAM_BOUNDS[n][0] for n in PARAM_FIELDS]
        hi = [DEFAULT_PARAM_BOUNDS[n][1] for n in PARAM_FIELDS]
        oracle = optimize.least_squares(
            lambda x: np.ravel(_residuals(ModelParameters(*x.tolist()), obs, 0.05, prep)),
            [getattr(guess, n) for n in PARAM_FIELDS],
            bounds=(lo, hi),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        res = fit(obs, guess, options=FitOptions(tol=0.0))
        for name, x in zip(PARAM_FIELDS, oracle.x):
            assert abs(getattr(res.params, name) - x) <= 1e-6, name

    def test_coefficients_the_data_cannot_see_keep_their_guess(self):
        # with alpha4 pinned at 0 the feedback is 0, so beta1, phi4 and
        # gamma2 have zero Jacobian columns and JᵀJ is singular
        truth = TRUE_PARAMS.replace(alpha4=0.0)
        obs = generate_synthetic(truth, START, 3.0, 0.05, 2, 0.0, 0)
        guess = ModelParameters(**{n: getattr(truth, n) * 1.10 for n in PARAM_FIELDS})
        bounds = {**DEFAULT_PARAM_BOUNDS, "alpha4": (0.0, 0.0)}
        res = fit(obs, guess, bounds=bounds, options=FitOptions(tol=0.0))
        assert res.converged
        for name in PARAM_FIELDS:
            if name in ("beta1", "phi4", "gamma2"):
                assert getattr(res.params, name) == pytest.approx(getattr(guess, name), rel=1e-12)
            else:
                assert abs(getattr(res.params, name) - getattr(truth, name)) <= 1e-6, name

    def test_guess_meeting_tol_costs_one_residual_evaluation(self, monkeypatch):
        obs = make_noiseless_obs()
        calls = []
        real = calibration._integrate_raw

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(calibration, "_integrate_raw", counting)
        res = fit(obs, TRUE_PARAMS, options=FitOptions(restarts=3))
        # one evaluation at the guess, whose residuals give the reported objective
        assert len(calls) == 1
        assert res.iterations == 0 and res.restarts_used == 0 and res.converged

    def test_nonpositive_dt_rejected(self):
        obs = make_noiseless_obs(horizon=2.0)
        for dt in (0.0, -0.05, math.nan):
            with pytest.raises(ArgumentError):
                fit(obs, TRUE_PARAMS, dt=dt)


class TestGenerateSynthetic:
    def test_zero_noise_equals_subsampled_integration(self):
        obs = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 3, 0.0, 42)
        traj = integrate(START, TRUE_PARAMS, 2.0, 0.1)
        picks = range(0, len(traj.samples), 3)
        for j, k in enumerate(picks):
            state, f = traj.samples[k]
            assert obs.times[j] == state.t
            assert obs.g_obs[j] == state.g
            assert obs.c_obs[j] == state.c
            assert obs.m_obs[j] == state.m
            assert obs.f_obs[j] == f

    def test_same_seed_is_identical(self):
        a = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.05, 17)
        b = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.05, 17)
        assert a.times == b.times
        assert a.g_obs == b.g_obs and a.f_obs == b.f_obs

    def test_different_seed_differs(self):
        a = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.05, 17)
        b = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.05, 18)
        assert a.g_obs != b.g_obs

    def test_noise_sd_recovered_from_residuals(self):
        # 201 samples per variable; the sample sd of (obs - truth) should
        # land near the generating sd
        horizon, dt = 20.0, 0.1
        noise_sd = 0.1
        truth = generate_synthetic(TRUE_PARAMS, START, horizon, dt, 1, 0.0, 0)
        noisy = generate_synthetic(TRUE_PARAMS, START, horizon, dt, 1, noise_sd, 123)
        for clean, dirty in (
            (truth.g_obs, noisy.g_obs),
            (truth.c_obs, noisy.c_obs),
            (truth.m_obs, noisy.m_obs),
            (truth.f_obs, noisy.f_obs),
        ):
            resid = [d - c for c, d in zip(clean, dirty)]
            sd = statistics.stdev(resid)
            assert 0.07 <= sd <= 0.13

    def test_bad_arguments_rejected(self):
        with pytest.raises(ArgumentError):
            generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 0, 0.0, 0)
        with pytest.raises(ArgumentError):
            generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, -0.1, 0)
        with pytest.raises(ArgumentError):
            generate_synthetic(TRUE_PARAMS, START, 0.2, 0.1, 5, 0.0, 0)


class TestSeriesCsv:
    def test_round_trip_is_exact(self, tmp_path):
        obs = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.03, 5)
        path = tmp_path / "series.csv"
        write_series_csv(obs, path)
        back = read_series_csv(path)
        assert back.times == obs.times
        assert back.g_obs == obs.g_obs
        assert back.c_obs == obs.c_obs
        assert back.m_obs == obs.m_obs
        assert back.f_obs == obs.f_obs

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ArgumentError):
            read_series_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ArgumentError):
            read_series_csv(path)

    def test_blank_row_is_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,G,C,M,F\n0,1,1,1,0\n\n0.1,2,2,2,0.5\n")
        back = read_series_csv(path)
        assert back.times == [0.0, 0.1]
        assert back.f_obs == [0.0, 0.5]

    def test_calibrate_checks_the_series_it_reads_once(self, tmp_path, monkeypatch):
        # read_series_csv checks the series and fit is given the same one:
        # each observed value goes through _number once
        obs = generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.0, 0)
        path = tmp_path / "series.csv"
        write_series_csv(obs, path)
        checked = []
        number = calibration._number

        def counted(value, where, *rest, **kwargs):
            checked.append(where)
            return number(value, where, *rest, **kwargs)

        monkeypatch.setattr(calibration, "_number", counted)
        assert main(["calibrate", "--obs", str(path), "--max-iter", "1", "--out", str(tmp_path / "out")]) == 0
        columns = ("times", "g_obs", "c_obs", "m_obs", "f_obs")
        assert len([where for where in checked if where in columns]) == len(columns) * len(obs)

    @pytest.mark.parametrize("change", ["value", "bool", "append", "column"])
    def test_a_series_that_passed_is_checked_again_once_changed(self, tmp_path, change):
        path = tmp_path / "series.csv"
        write_series_csv(generate_synthetic(TRUE_PARAMS, START, 2.0, 0.1, 2, 0.0, 0), path)
        obs = read_series_csv(path)
        if change == "value":
            obs.g_obs[3] = math.nan
        elif change == "bool":
            obs.f_obs[0] = True
        elif change == "append":
            obs.m_obs.append(0.5)
        else:
            obs.times = list(reversed(obs.times))
        with pytest.raises(ArgumentError):
            fit(obs, TRUE_PARAMS, options=FitOptions(max_iter=1), dt=0.1)
