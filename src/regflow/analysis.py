"""Evaluation metrics, group statistics, and parameter-sensitivity sweeps.

Metrics: adherence accuracy is the fraction of steps where compliance
effort tracks guidance within epsilon (strict inequality); compliance
stability is the population variance of the compliance series (lower is
smoother).

Group comparison uses Welch's one-way ANOVA, which tolerates unequal group
variances and yields fractional denominator degrees of freedom. The
F-distribution tail is evaluated through the regularized incomplete beta
function (continued fraction, relative tolerance 1e-10, at most 300
iterations), so no statistics library is needed at runtime. Variance
explained is reported as eta-squared from the classical between/total sum
of squares.

Sensitivity sweeps rerun the integration with a single coefficient
replaced and report terminal outputs plus their relative change against
the baseline coefficient set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .dynamics import (
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _feedback,
    _integration_steps,
    _number,
    _rk4_run,
    _total,
    _write_text,
    integrate,  # unused here; bench/tracing.py wraps it by this module's name
)
from .errors import ArgumentError, NumericalError

__all__ = [
    "MetricsReport",
    "WelchAnovaResult",
    "PairwiseComparison",
    "SweepResult",
    "adherence_accuracy",
    "compliance_stability",
    "metrics_report",
    "welch_anova",
    "bonferroni_pairwise",
    "sweep",
    "f_sf",
    "regularized_incomplete_beta",
    "write_sweep_csv",
]

OUTPUT_NAMES = ("G", "C", "M", "F")


# ---------------------------------------------------------------------------
# adherence and stability
# ---------------------------------------------------------------------------

def adherence_accuracy(
    c_series: Sequence[float],
    g_series: Sequence[float],
    epsilon: float,
) -> float:
    """Fraction of steps with |c - g| strictly below epsilon."""
    if len(c_series) == 0:
        raise ArgumentError("adherence needs at least one sample")
    if len(c_series) != len(g_series):
        raise ArgumentError(
            f"series lengths differ: {len(c_series)} vs {len(g_series)}"
        )
    _number(epsilon, "epsilon", positive=True)
    hits = sum(1 for c, g in zip(c_series, g_series) if abs(c - g) < epsilon)
    return hits / len(c_series)


def compliance_stability(c_series: Sequence[float]) -> float:
    """Population variance of the compliance series (divide by T), each
    deviation squared as a product; NumericalError when it is not finite."""
    n = len(c_series)
    if n == 0:
        raise ArgumentError("stability needs at least one sample")
    mean = _total(c_series) / n
    var = _total(d * d for d in (c - mean for c in c_series)) / n
    if not math.isfinite(var):
        raise NumericalError(f"compliance stability leaves the float range: mean {mean!r}, variance {var!r}")
    return var


@dataclass(frozen=True)
class MetricsReport:
    adherence_accuracy: float
    compliance_stability: float
    epsilon: float
    mean_compliance: float


DEFAULT_EPSILON = 0.5


def metrics_report(
    c_series: Sequence[float],
    g_series: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> MetricsReport:
    return MetricsReport(
        adherence_accuracy=adherence_accuracy(c_series, g_series, epsilon),
        compliance_stability=compliance_stability(c_series),
        epsilon=epsilon,
        mean_compliance=_total(c_series) / len(c_series),
    )


# ---------------------------------------------------------------------------
# F distribution via the regularized incomplete beta function
# ---------------------------------------------------------------------------

_BETA_MAX_ITER = 300
_BETA_REL_TOL = 1e-10


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_REL_TOL:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    _number(a, "a", positive=True)
    _number(b, "b", positive=True)
    _number(x, "x", high=1.0)
    return _incomplete_beta(a, b, x, 1.0 - x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given both x and y = 1 - x, so a caller that has y to full
    precision loses nothing to the cancellation in 1 - x when x is near 1."""
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    # log the smaller of x and y, log1p the larger from it
    if x <= y:
        ln_x, ln_y = math.log(x), math.log1p(-x)
    else:
        ln_x, ln_y = math.log1p(-y), math.log(y)
    ln_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * ln_x + b * ln_y
    front = math.exp(ln_front)
    # the continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a,b) = 1 - I_y(b,a) on the other
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, y) / b


def f_sf(x: float, df1: float, df2: float) -> float:
    """Upper tail 1 - CDF of the F(df1, df2) distribution, computed directly
    for accuracy at large x, and with both beta arguments formed as
    quotients for accuracy at small x."""
    _number(df1, "df1", positive=True)
    _number(df2, "df2", positive=True)
    if x <= 0.0:
        return 1.0
    scaled = df1 * x
    return _incomplete_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + scaled), scaled / (df2 + scaled))


# ---------------------------------------------------------------------------
# Welch's one-way ANOVA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WelchAnovaResult:
    f_stat: float
    df1: int
    df2: float
    p_value: float
    variance_explained: float


def _check_groups(groups: Sequence[Sequence[float]]) -> list[list[float]]:
    if len(groups) < 2:
        raise ArgumentError("need at least 2 groups")
    checked = []
    for i, g in enumerate(groups):
        try:
            values = [float(v) for v in g]
        except TypeError:
            # a scalar, or a group of sequences
            values = []
        if len(values) < 2:
            raise ArgumentError(f"group {i} needs at least 2 values")
        if not all(map(math.isfinite, values)):
            raise ArgumentError(f"group {i} contains non-finite values")
        checked.append(values)
    return checked


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _eta_squared(groups: list[list[float]], means: list[float]) -> float:
    values = [v for g in groups for v in g]
    grand = _mean(values)
    ss_total = math.fsum((v - grand) ** 2 for v in values)
    if ss_total == 0.0:
        return 0.0
    ss_between = math.fsum(len(g) * (mean - grand) ** 2 for g, mean in zip(groups, means))
    return ss_between / ss_total


def welch_anova(groups: Sequence[Sequence[float]]) -> WelchAnovaResult:
    """Welch's heteroscedastic one-way ANOVA over two or more groups. Every
    sum is math.fsum's, exactly rounded; NumericalError when a statistic
    leaves the float range."""
    checked = _check_groups(groups)
    try:
        return _welch(checked)
    except OverflowError:
        raise NumericalError("Welch ANOVA: the group statistics overflow the float range") from None


def _welch(checked: list[list[float]]) -> WelchAnovaResult:
    k = len(checked)
    n = [len(g) for g in checked]
    means = [_mean(g) for g in checked]
    variances = [
        math.fsum((v - mean) ** 2 for v in g) / (len(g) - 1) for g, mean in zip(checked, means)
    ]

    if all(v == 0.0 for v in variances):
        if all(mean == means[0] for mean in means):
            return WelchAnovaResult(
                f_stat=0.0,
                df1=k - 1,
                df2=float(sum(n) - k),
                p_value=1.0,
                variance_explained=0.0,
            )
        raise ArgumentError(
            "degenerate groups: zero variance everywhere with unequal means"
        )
    if 0.0 in variances:
        raise ArgumentError("a group has zero variance; Welch weights are undefined")

    w = [size / var for size, var in zip(n, variances)]
    w_sum = math.fsum(w)
    grand = math.fsum(wi * mean for wi, mean in zip(w, means)) / w_sum
    numerator = math.fsum(wi * (mean - grand) ** 2 for wi, mean in zip(w, means)) / (k - 1)
    tmp = math.fsum((1.0 - wi / w_sum) ** 2 / (size - 1.0) for wi, size in zip(w, n)) / (k * k - 1.0)
    f_stat = numerator / (1.0 + 2.0 * (k - 2.0) * tmp)
    df2 = 1.0 / (3.0 * tmp)
    # an inf or nan here comes from a term past the float range, the
    # failure an overflowing sum reports
    if not (math.isfinite(f_stat) and math.isfinite(df2)):
        raise OverflowError
    p_value = f_sf(f_stat, float(k - 1), df2)
    return WelchAnovaResult(
        f_stat=f_stat,
        df1=k - 1,
        df2=df2,
        p_value=p_value,
        variance_explained=_eta_squared(checked, means),
    )


@dataclass(frozen=True)
class PairwiseComparison:
    pair: tuple[str, str]
    p_raw: float
    p_adjusted: float


def bonferroni_pairwise(
    groups: Sequence[Sequence[float]],
    labels: Sequence[str] | None = None,
) -> list[PairwiseComparison]:
    """All pairwise two-group Welch tests with Bonferroni adjustment."""
    checked = _check_groups(groups)
    k = len(checked)
    if labels is None:
        labels = [str(i) for i in range(k)]
    elif len(labels) != k:
        raise ArgumentError(f"got {len(labels)} labels for {k} groups")
    pairs = list(combinations(range(k), 2))
    n_pairs = len(pairs)
    out = []
    for i, j in pairs:
        res = welch_anova([checked[i], checked[j]])
        out.append(
            PairwiseComparison(
                pair=(str(labels[i]), str(labels[j])),
                p_raw=res.p_value,
                p_adjusted=min(1.0, res.p_value * n_pairs),
            )
        )
    return out


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    parameter: str
    values: list[float]
    outputs: dict[str, list[float]]
    change_rates: dict[str, list[float]]


def _terminal_outputs(
    p: ModelParameters, initial: SystemState, steps: int, dt: float
) -> tuple[float, float, float, float]:
    """g, c, m and f after `steps` RK4 steps of size dt: the terminal sample
    of integrate, bit for bit, without building the samples before it.
    Only the terminal state is checked: the kernel keeps g, c and m finite
    and >= 0, and its time is the largest, so it fails where any would."""
    g, c, m, _, _ = _rk4_run(p, initial.t, initial.g, initial.c, initial.m, dt, steps)
    SystemState(initial.t + steps * dt, g, c, m)
    return g, c, m, _feedback(p, c, m)


def sweep(
    base: ModelParameters,
    initial: SystemState,
    horizon: float,
    dt: float,
    parameter: str,
    values: Sequence[float],
) -> SweepResult:
    """Rerun the integration for each value of one coefficient.

    The baseline outputs come from `base` unchanged; each change rate is
    (output - baseline) / |baseline|, or NaN where the baseline is zero.
    """
    if parameter not in PARAM_FIELDS:
        raise ArgumentError(f"unknown parameter {parameter!r}")
    if len(values) == 0:
        raise ArgumentError("values must be non-empty")
    for v in values:
        _number(v, "sweep value")
    steps = _integration_steps(horizon, dt)

    baseline = _terminal_outputs(base, initial, steps, dt)
    outputs: dict[str, list[float]] = {name: [] for name in OUTPUT_NAMES}
    change_rates: dict[str, list[float]] = {name: [] for name in OUTPUT_NAMES}
    for v in values:
        outs = _terminal_outputs(base.replace(**{parameter: v}), initial, steps, dt)
        for name, out, ref in zip(OUTPUT_NAMES, outs, baseline):
            outputs[name].append(out)
            if ref == 0.0:
                change_rates[name].append(math.nan)
            else:
                change_rates[name].append((out - ref) / abs(ref))
    return SweepResult(
        parameter=parameter,
        values=[float(v) for v in values],
        outputs=outputs,
        change_rates=change_rates,
    )


def write_sweep_csv(result: SweepResult, path) -> None:
    """Rows: parameter,value,G,C,M,F,rate_G,rate_C,rate_M,rate_F, each
    number written as "%.17g", the text of format(x, ".17g")."""

    def rows():
        yield "parameter,value,G,C,M,F,rate_G,rate_C,rate_M,rate_F\n"
        for i, v in enumerate(result.values):
            yield "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                result.parameter, v,
                *(result.outputs[name][i] for name in OUTPUT_NAMES),
                *(result.change_rates[name][i] for name in OUTPUT_NAMES),
            )

    _write_text(path, rows())
