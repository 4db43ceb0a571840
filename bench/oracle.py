"""Independent reference computations for checking regflow's outputs.

Nothing here imports regflow. Each function restates one formula of the
model from its definition (README.md of the package), so the benchmark can
check what the CLI wrote without trusting the code that wrote it:

    dG/dt = a1 (1 - e^(-p1 t)) - b1 F
    dC/dt = a2 G (1 - e^(-p2 C)) - b2 C / (1 + g1 M)
    dM/dt = a3 C (1 - e^(-p3 G)) - b3 M
    F     = a4 M (1 - e^(-p4 C)) / (1 + g2 C)

States are clamped at zero after every RK4 step, as the model specifies.
"""

from __future__ import annotations

import math

PARAMS = (
    "alpha1", "alpha2", "alpha3", "alpha4",
    "phi1", "phi2", "phi3", "phi4",
    "beta1", "beta2", "beta3",
    "gamma1", "gamma2",
)


def feedback(p: dict, c: float, m: float) -> float:
    """Feedback level F at compliance c and market adaptation m."""
    return p["alpha4"] * m * (1.0 - math.exp(-p["phi4"] * c)) / (1.0 + p["gamma2"] * c)


def rates(p: dict, t: float, g: float, c: float, m: float) -> tuple[float, float, float]:
    """Right-hand side (dG, dC, dM) of the three state equations."""
    f = feedback(p, c, m)
    dg = p["alpha1"] * (1.0 - math.exp(-p["phi1"] * t)) - p["beta1"] * f
    dc = p["alpha2"] * g * (1.0 - math.exp(-p["phi2"] * c)) - p["beta2"] * c / (1.0 + p["gamma1"] * m)
    dm = p["alpha3"] * c * (1.0 - math.exp(-p["phi3"] * g)) - p["beta3"] * m
    return dg, dc, dm


def rk4_step(p: dict, t: float, y: tuple[float, float, float], h: float):
    """One classical RK4 step of length h from (t, y); returns (y_new, clamps)."""
    k1 = rates(p, t, *y)
    k2 = rates(p, t + h / 2, *(y[i] + h / 2 * k1[i] for i in range(3)))
    k3 = rates(p, t + h / 2, *(y[i] + h / 2 * k2[i] for i in range(3)))
    k4 = rates(p, t + h, *(y[i] + h * k3[i] for i in range(3)))
    raw = [y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(3)]
    clamps = sum(1 for v in raw if v < 0.0)
    return tuple(max(v, 0.0) for v in raw), clamps


def integrate(p: dict, t0: float, y0: tuple[float, float, float], steps: int, h: float):
    """Fixed-step samples y(t0 + k h) for k = 0..steps."""
    out = [tuple(y0)]
    y = tuple(y0)
    for k in range(steps):
        y, _ = rk4_step(p, t0 + k * h, y, h)
        out.append(y)
    return out


def step_count(horizon: float, dt: float) -> int:
    """Steps covering a horizon: ceil(horizon / dt), exact multiples not rounded up."""
    return max(math.ceil(horizon / dt - 1e-9), 1)


def advance(p: dict, t: float, y, dt: float, substeps: int):
    """One decision interval: (y_new, F_new, cost, clamps).

    cost is the left-endpoint quadrature of b2 C / (1 + g1 M) over the
    interval, one term per substep at the substep's starting state.
    """
    h = dt / substeps
    cost = 0.0
    clamps = 0
    for k in range(substeps):
        cost += p["beta2"] * y[1] / (1.0 + p["gamma1"] * y[2]) * h
        y, n = rk4_step(p, t + k * h, y, h)
        clamps += n
    return y, feedback(p, y[1], y[2]), cost, clamps


def brr(safety: int, effectiveness: int, compliance: int, adverse: int) -> float:
    """Benefit-risk ratio (s + e + c) / a."""
    return (safety + effectiveness + compliance) / adverse


def median(values) -> float:
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def threshold(base: float, kappa: float, floor: float, ceiling: float, recent) -> float:
    """Median-tracking threshold: base moved kappa of the way to the median
    of the recent ratios, clipped to [floor, ceiling]; base when empty."""
    if not recent:
        return base
    return min(max(base + kappa * (median(recent) - base), floor), ceiling)


def residual_sum(p: dict, times, g, c, m, f, dt: float) -> float:
    """Sum of squared residuals of all four series against a prediction
    integrated from the first observed row, each observed time taken at
    the nearest integration sample."""
    t0 = times[0]
    steps = step_count(times[-1] - t0, dt)
    pred = integrate(p, t0, (g[0], c[0], m[0]), steps, dt)
    total = 0.0
    for j, tj in enumerate(times):
        gp, cp, mp = pred[round((tj - t0) / dt)]
        total += (g[j] - gp) ** 2 + (c[j] - cp) ** 2 + (m[j] - mp) ** 2 + (f[j] - feedback(p, cp, mp)) ** 2
    return total


def population_variance(xs) -> float:
    mu = sum(xs) / len(xs)
    return sum((x - mu) ** 2 for x in xs) / len(xs)


def adherence(c_series, g_series, epsilon: float) -> float:
    """Share of steps with |C - G| strictly below epsilon."""
    return sum(1 for c, g in zip(c_series, g_series) if abs(c - g) < epsilon) / len(c_series)


def welch(groups) -> tuple[float, float]:
    """Welch's one-way ANOVA: (F, denominator degrees of freedom)."""
    k = len(groups)
    n = [len(x) for x in groups]
    mean = [sum(x) / len(x) for x in groups]
    var = [sum((v - mean[i]) ** 2 for v in x) / (n[i] - 1) for i, x in enumerate(groups)]
    w = [n[i] / var[i] for i in range(k)]
    sw = sum(w)
    grand = sum(w[i] * mean[i] for i in range(k)) / sw
    a = sum(w[i] * (mean[i] - grand) ** 2 for i in range(k)) / (k - 1)
    lam = sum((1 - w[i] / sw) ** 2 / (n[i] - 1) for i in range(k)) / (k * k - 1)
    return a / (1 + 2 * (k - 2) * lam), 1 / (3 * lam)
