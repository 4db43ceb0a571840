"""Metrics, Welch ANOVA, the F tail, and sensitivity sweeps."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regflow.analysis import (
    adherence_accuracy,
    bonferroni_pairwise,
    compliance_stability,
    f_sf,
    metrics_report,
    regularized_incomplete_beta,
    sweep,
    welch_anova,
    write_sweep_csv,
)
from regflow.dynamics import (
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    integrate,
)
from regflow.errors import ArgumentError, DomainError, NumericalError


class TestAdherenceAccuracy:
    def test_identical_series(self):
        assert adherence_accuracy([1, 2, 3], [1, 2, 3], 0.1) == 1.0

    def test_one_miss(self):
        assert adherence_accuracy([1, 2, 3], [1, 2, 10], 0.5) == pytest.approx(2 / 3)

    def test_boundary_is_strict(self):
        assert adherence_accuracy([1.0], [1.5], 0.5) == 0.0

    def test_translation_invariance(self):
        c = [0.2, 1.4, 2.9, 0.7]
        g = [0.3, 1.1, 3.4, 0.5]
        base = adherence_accuracy(c, g, 0.4)
        shifted = adherence_accuracy([x + 5.0 for x in c], [x + 5.0 for x in g], 0.4)
        assert shifted == base

    def test_errors(self):
        with pytest.raises(ArgumentError):
            adherence_accuracy([], [], 0.1)
        with pytest.raises(ArgumentError):
            adherence_accuracy([1, 2], [1], 0.1)
        with pytest.raises(ArgumentError):
            adherence_accuracy([1], [1], 0.0)


class TestComplianceStability:
    def test_constant_series_is_zero(self):
        assert compliance_stability([4, 4, 4, 4]) == 0.0

    def test_two_point_series(self):
        assert compliance_stability([1, 3]) == 1.0

    def test_three_point_series(self):
        assert compliance_stability([2, 2, 5]) == 2.0

    def test_translation_invariance_and_quadratic_scaling(self):
        c = [0.5, 1.2, 0.8, 2.0, 1.4]
        base = compliance_stability(c)
        assert compliance_stability([x + 3.0 for x in c]) == pytest.approx(base, rel=1e-12)
        assert compliance_stability([2.0 * x for x in c]) == pytest.approx(4.0 * base, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            compliance_stability([])

    def test_squares_are_products(self):
        # mean x, both deviations +-x: the variance is x * x, correctly
        # rounded, where a libm pow can give x ** 2 one float below
        x = 1.8997457034743226e-64
        assert compliance_stability([0.0, 2.0 * x]) == x * x == 3.609033737869149e-128

    @pytest.mark.parametrize("c", [[0.0, 1e200], [1e308, 1e308]], ids=["variance", "mean"])
    def test_past_the_float_range_is_a_numerical_error(self, c):
        with pytest.raises(NumericalError, match="compliance stability leaves the float range"):
            compliance_stability(c)

    def test_report_bundle(self):
        rep = metrics_report([1.0, 1.2], [1.0, 1.3], epsilon=0.5)
        assert rep.adherence_accuracy == 1.0
        assert rep.mean_compliance == pytest.approx(1.1)
        assert rep.epsilon == 0.5


class TestIncompleteBeta:
    # reference values frozen from an offline scipy.stats.f computation
    FROZEN = [
        # (x, df1, df2, cdf)
        (5.76, 3.0, 152.81, 0.999071778694751),
        (0.35, 2.0, 143.29, 0.29471116460964025),
        (1.0, 2.0, 10.0, 0.5981224279835391),
        (2.5, 5.5, 2.7, 0.7414310976936227),
        (19.2, 1.0, 6.0, 0.9953407850560061),
        (0.5, 7.0, 3.0, 0.2026936424866509),
    ]

    def test_sf_complements_cdf(self):
        for x, d1, d2, cdf in self.FROZEN:
            assert f_sf(x, d1, d2) == pytest.approx(1.0 - cdf, abs=1e-9)

    def test_extreme_tail(self):
        # far tail needs the direct sf form, not 1 - cdf
        assert f_sf(84.96, 2.0, 96.01) == pytest.approx(5.7563379035283975e-22, rel=1e-6)

    def test_near_zero_statistic(self):
        # the beta argument df2 / (df2 + df1 x) rounds to within 1e-13 of 1;
        # its complement must be formed as a quotient, not as 1 - that
        # (reference from 50-digit mpmath)
        cdf = 1.0 - f_sf(2.4052760790448807e-13, 1.0, 3.9999999999995186)
        assert cdf == pytest.approx(3.6782710537188392e-07, rel=1e-8)

    def test_edges(self):
        assert f_sf(0.0, 3.0, 5.0) == 1.0
        assert f_sf(-1.0, 3.0, 5.0) == 1.0
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        for a, b, x in ((2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (10.0, 1.5, 0.9)):
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ArgumentError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ArgumentError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)
        with pytest.raises(ArgumentError):
            f_sf(1.0, 0.0, 5.0)
        with pytest.raises(ArgumentError):
            f_sf(1.0, 3.0, math.nan)


def welch_by_products(groups):
    """Welch's F, its df2 and eta-squared, each square taken as a product,
    as plainly as possible; the sums are math.fsum's."""
    k = len(groups)
    means = [math.fsum(g) / len(g) for g in groups]
    variances = [math.fsum((v - m) * (v - m) for v in g) / (len(g) - 1) for g, m in zip(groups, means)]
    w = [len(g) / var for g, var in zip(groups, variances)]
    w_sum = math.fsum(w)
    grand = math.fsum(wi * m for wi, m in zip(w, means)) / w_sum
    numerator = math.fsum(wi * ((m - grand) * (m - grand)) for wi, m in zip(w, means)) / (k - 1)
    tmp = math.fsum((1.0 - wi / w_sum) * (1.0 - wi / w_sum) / (len(g) - 1.0) for wi, g in zip(w, groups))
    tmp /= k * k - 1.0
    values = [v for g in groups for v in g]
    mean = math.fsum(values) / len(values)
    ss_total = math.fsum((v - mean) * (v - mean) for v in values)
    ss_between = math.fsum(len(g) * ((m - mean) * (m - mean)) for g, m in zip(groups, means))
    return numerator / (1.0 + 2.0 * (k - 2.0) * tmp), 1.0 / (3.0 * tmp), ss_between / ss_total


class TestWelchAnova:
    def test_identical_groups_f_zero_p_one(self):
        res = welch_anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert res.f_stat == 0.0
        assert res.p_value == 1.0
        assert res.variance_explained == 0.0

    def test_two_group_fixture_matches_reference(self):
        # reference computed independently from the Welch formulas
        # (cross-checked against statsmodels anova_oneway, use_var="unequal")
        res = welch_anova([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        assert res.f_stat == pytest.approx(19.2, abs=1e-6)
        assert res.df1 == 1
        assert res.df2 == pytest.approx(6.0, abs=1e-6)
        assert res.p_value == pytest.approx(0.004659214943993935, abs=1e-6)

    def test_three_group_fixture_matches_reference(self):
        groups = [
            [18.2, 20.1, 17.6, 16.8, 18.8, 19.7, 19.1],
            [17.4, 18.7, 19.1, 16.4, 15.9, 18.4, 17.7],
            [15.2, 18.8, 17.7, 16.5, 15.9, 17.1, 16.7],
        ]
        res = welch_anova(groups)
        assert res.f_stat == pytest.approx(3.7930389009287127, abs=1e-6)
        assert res.df1 == 2
        assert res.df2 == pytest.approx(11.99927496293485, abs=1e-6)
        assert res.p_value == pytest.approx(0.052895506150045075, abs=1e-6)

    def test_unbalanced_fixture_matches_reference(self):
        groups = [
            [27.0, 7.0, 11.0, 18.0, 10.0, 13.0, 14.0],
            [25.0, 32.0, 38.0, 37.0, 29.0, 30.0],
            [28.0, 24.0, 21.0, 19.0, 23.0, 25.0, 26.0, 27.0],
        ]
        res = welch_anova(groups)
        assert res.f_stat == pytest.approx(14.100926822969965, abs=1e-6)
        assert res.df2 == pytest.approx(9.806531520820192, abs=1e-6)
        assert res.p_value == pytest.approx(0.001303451853387217, abs=1e-6)

    def test_two_balanced_equal_variance_groups_match_classical(self):
        # with two groups the Welch correction factor is exactly 1
        for offset in (1.0, 2.5, 10.0):
            g1 = [1.0, 2.0, 3.0, 4.0]
            g2 = [x + offset for x in g1]
            res = welch_anova([g1, g2])
            n, k = 4, 2
            grand = (sum(g1) + sum(g2)) / (2 * n)
            ssb = n * ((np.mean(g1) - grand) ** 2 + (np.mean(g2) - grand) ** 2)
            ssw = sum((x - np.mean(g1)) ** 2 for x in g1) + sum(
                (x - np.mean(g2)) ** 2 for x in g2
            )
            classical = (ssb / (k - 1)) / (ssw / (2 * n - k))
            assert res.f_stat == pytest.approx(classical, abs=1e-9)

    def test_group_order_invariance(self):
        groups = [[1.0, 2.0, 4.0], [3.0, 5.0, 9.0], [2.0, 2.5, 3.5]]
        a = welch_anova(groups)
        b = welch_anova(list(reversed(groups)))
        assert a.f_stat == pytest.approx(b.f_stat, rel=1e-12)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12)

    def test_f_nonnegative_on_random_groups(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            groups = [rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2), int(rng.integers(3, 9)))
                      for _ in range(k)]
            res = welch_anova(groups)
            assert res.f_stat >= 0.0
            assert 0.0 <= res.p_value <= 1.0
            assert 0.0 <= res.variance_explained <= 1.0

    def test_variance_explained_on_separated_groups(self):
        near = welch_anova([[1.0, 1.1, 0.9], [1.05, 0.95, 1.0]])
        far = welch_anova([[1.0, 1.1, 0.9], [9.0, 9.1, 8.9]])
        assert far.variance_explained > near.variance_explained

    def test_all_zero_variance_equal_means(self):
        res = welch_anova([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        assert res.f_stat == 0.0 and res.p_value == 1.0

    def test_all_zero_variance_unequal_means_degenerate(self):
        with pytest.raises(ArgumentError, match="degenerate"):
            welch_anova([[2.0, 2.0], [3.0, 3.0]])

    def test_single_zero_variance_group_degenerate(self):
        with pytest.raises(ArgumentError):
            welch_anova([[2.0, 2.0, 2.0], [1.0, 3.0, 5.0]])

    def test_too_few_groups_or_values(self):
        with pytest.raises(ArgumentError):
            welch_anova([[1.0, 2.0]])
        with pytest.raises(ArgumentError):
            welch_anova([[1.0], [2.0, 3.0]])
        # a group that is a number, or a list of lists
        with pytest.raises(ArgumentError, match="group 0 needs at least 2 values"):
            welch_anova([5.0, [2.0, 3.0]])
        with pytest.raises(ArgumentError, match=re.escape("group 1 value 0 must be a number, got [1.0, 2.0]")):
            welch_anova([[2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]])

    def test_non_finite_value_rejected(self):
        with pytest.raises(ArgumentError, match="group 1 contains non-finite values"):
            welch_anova([[1.0, 2.0], [3.0, math.nan]])

    @pytest.mark.parametrize("big", [[1e308, 1e308, -1e308], [1e200, -1e200], [1e300, 1.1e300]])
    def test_statistics_past_the_float_range_are_a_numerical_error(self, big):
        with pytest.raises(NumericalError, match="overflow the float range"):
            welch_anova([big, [1.0, 2.0]])

    def test_a_total_square_past_the_float_range_is_a_numerical_error(self):
        # F and both variances are finite, but -0.7e154 lies 1.35e154 from
        # the grand mean, whose square is inf: eta-squared's total would be
        # inf and its ratio a silent 0.0
        with pytest.raises(NumericalError, match="overflow the float range"):
            welch_anova([[-0.7e154, 0.7e154], [1.3e154, 1.3e154 + 1e140]])

    def test_squares_are_products(self):
        # the groups deviate from their means by d and 2d; d ** 2 from glibc's
        # pow is 3.6090337378691487e-128 where d * d is 3.609033737869149e-128,
        # and pow's F is 0.2 where the products give 0.19999999999999998
        d = 1.8997457034743226e-64
        groups = [[0.0, 2.0 * d], [0.0, 4.0 * d]]
        res = welch_anova(groups)
        assert (res.f_stat, res.df2, res.variance_explained) == welch_by_products(groups)

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([["1", "2.5"], ["3", "5"]], "group 0 value 0 must be a number, got '1'"),
            ([[1.0, 2.0], [3.0, True]], "group 1 value 1 must be a number, got True"),
            ([[1.0, 10**400], [3.0, 5.0]], "group 0 value 1 must be a number within the float range, got an integer of 401 digits"),
        ],
        ids=["str", "bool", "int"],
    )
    def test_a_value_that_is_not_a_number_is_refused(self, groups, message):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            welch_anova(groups)
        with pytest.raises(ArgumentError, match=re.escape(message)):
            bonferroni_pairwise(groups)

    @settings(max_examples=200, deadline=None)
    @given(
        groups=st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40).filter(lambda g: max(g) - min(g) > 1e-3),
            min_size=2,
            max_size=5,
        )
    )
    @example(groups=[[0.0, 0.0, 88.0], [0.0, 88.0, 6.103515625e-05]])
    @example(groups=[[1, 2], [3, 5], [4, 4, 7]])
    def test_agrees_with_scipy(self, groups):
        stats = pytest.importorskip("scipy.stats")
        res = welch_anova(groups)
        oracle = stats.f_oneway(*groups, equal_var=False)
        assert res.f_stat == pytest.approx(float(oracle.statistic), rel=1e-10)
        assert res.p_value == pytest.approx(float(oracle.pvalue), rel=1e-10)


class TestBonferroni:
    def test_two_groups_single_pair_unadjusted(self):
        groups = [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
        out = bonferroni_pairwise(groups)
        assert len(out) == 1
        assert out[0].p_adjusted == out[0].p_raw

    def test_four_groups_six_pairs_scaled(self):
        rng = np.random.default_rng(3)
        groups = [list(rng.normal(i, 1.0, 6)) for i in range(4)]
        out = bonferroni_pairwise(groups)
        assert len(out) == 6
        for comp in out:
            assert comp.p_adjusted == pytest.approx(min(1.0, comp.p_raw * 6), rel=1e-12)
            assert comp.p_adjusted >= comp.p_raw

    def test_identical_groups_all_adjusted_to_one(self):
        g = [1.0, 2.0, 3.0]
        out = bonferroni_pairwise([g, g, g])
        assert all(comp.p_adjusted == 1.0 for comp in out)

    def test_labels(self):
        groups = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        out = bonferroni_pairwise(groups, labels=["limited", "medium", "rich"])
        assert [c.pair for c in out] == [
            ("limited", "medium"),
            ("limited", "rich"),
            ("medium", "rich"),
        ]

    def test_wrong_number_of_labels_rejected(self):
        with pytest.raises(ArgumentError, match="got 2 labels for 3 groups"):
            bonferroni_pairwise([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], labels=["a", "b"])


class TestSweep:
    def test_alpha1_linearity_without_feedback(self):
        base = ModelParameters(alpha1=0.1, phi1=1.0, beta1=0.0)
        result = sweep(base, SystemState(0.0, 0.0, 0.0, 0.0), 10.0, 0.05, "alpha1", [0.1, 0.2])
        assert result.change_rates["G"][0] == pytest.approx(0.0, abs=1e-15)
        assert result.change_rates["G"][1] == pytest.approx(1.0, abs=1e-9)

    def test_single_baseline_value_rates_zero(self):
        result = sweep(
            DEFAULT_PARAMETERS, SystemState(0.0, 0.5, 0.5, 0.5), 5.0, 0.05,
            "alpha2", [DEFAULT_PARAMETERS.alpha2],
        )
        for name in ("G", "C", "M", "F"):
            assert result.change_rates[name][0] == 0.0

    def test_beta3_sweep_makes_terminal_m_non_increasing(self):
        values = [0.1, 0.2, 0.4, 0.8]
        result = sweep(
            DEFAULT_PARAMETERS, SystemState(0.0, 0.5, 0.5, 0.5), 5.0, 0.05, "beta3", values
        )
        ms = result.outputs["M"]
        assert all(ms[i] >= ms[i + 1] for i in range(len(ms) - 1))

    def test_zero_baseline_gives_nan_marker(self):
        base = ModelParameters(alpha1=0.5, phi1=1.0)  # c and m stay zero
        result = sweep(base, SystemState(0.0, 0.0, 0.0, 0.0), 2.0, 0.05, "alpha2", [0.5])
        assert math.isnan(result.change_rates["C"][0])

    def test_a_terminal_time_past_the_float_range_is_refused_as_by_integrate(self):
        # two steps of 1e308 end at t = inf while g, c and m stay finite
        p, start = ModelParameters(phi1=1.0), SystemState(0.0, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError, match="state field t is not finite: inf"):
            integrate(start, p, 1.7e308, 1e308)
        with pytest.raises(DomainError, match="state field t is not finite: inf"):
            sweep(p, start, 1.7e308, 1e308, "alpha1", [0.5])

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ArgumentError):
            sweep(DEFAULT_PARAMETERS, SystemState(0.0, 0.5, 0.5, 0.5), 2.0, 0.05, "delta9", [0.1])

    def test_no_values_rejected(self):
        with pytest.raises(ArgumentError, match="values must be non-empty"):
            sweep(DEFAULT_PARAMETERS, SystemState(0.0, 0.5, 0.5, 0.5), 2.0, 0.05, "alpha1", [])

    def test_csv_layout(self, tmp_path):
        base = ModelParameters(alpha1=0.1, phi1=1.0)
        result = sweep(base, SystemState(0.0, 0.0, 0.0, 0.0), 2.0, 0.1, "alpha1", [0.1, 0.3])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "parameter,value,G,C,M,F,rate_G,rate_C,rate_M,rate_F"
        assert len(lines) == 3
        assert lines[1].startswith("alpha1,0.1")


def outcome(call):
    """call()'s value, or the message and step of its NumericalError."""
    try:
        return call()
    except NumericalError as exc:
        return str(exc), exc.step_index


params_st = st.builds(
    ModelParameters, **{name: st.floats(*DEFAULT_PARAM_BOUNDS[name]) for name in PARAM_FIELDS}
)
component_st = st.floats(0.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(
    p=params_st,
    initial=st.builds(SystemState, component_st, component_st, component_st, component_st),
    dt=st.floats(0.01, 1.0),
    multiple=st.floats(1.0, 40.0),
    parameter=st.sampled_from(PARAM_FIELDS),
    values=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
)
def test_sweep_outputs_are_the_terminal_samples_of_integrate(p, initial, dt, multiple, parameter, values):
    horizon = multiple * dt

    def terminals():
        runs = [integrate(initial, q, horizon, dt) for q in [p] + [p.replace(**{parameter: v}) for v in values]]
        return [tuple(x.hex() for x in (s.g, s.c, s.m, f)) for s, f in (run.terminal() for run in runs[1:])]

    def swept():
        result = sweep(p, initial, horizon, dt, parameter, values)
        return [tuple(x.hex() for x in row) for row in zip(*(result.outputs[name] for name in "GCMF"))]

    assert outcome(swept) == outcome(terminals)
