"""Least-squares estimation of the 13 model coefficients.

The objective integrates the coupled system from the first observed row and
sums squared residuals of the predicted g, c, m, and feedback series against
the observations:

    total = e_g + e_c + e_m + e_f,   e_x = sum_t (x_obs(t) - x_pred(t))^2

Minimization is derivative-free: a Nelder-Mead simplex with projection onto
the per-field box, optionally repeated from uniform random restart points.
The objective passes through an RK4 integration, so finite-difference
gradients would be dominated by integration noise; the simplex sidesteps
that entirely. Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_PARAM_BOUNDS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _exp,
    _fmt,
    _integrate_raw,
    _step_count,
    integrate,
)
from .errors import ArgumentError, NumericalError

__all__ = [
    "ObservedSeries",
    "FitOptions",
    "FitResult",
    "objective",
    "fit",
    "generate_synthetic",
    "read_series_csv",
    "write_series_csv",
]


@dataclass
class ObservedSeries:
    """Observed (or synthetic) series of the four model outputs."""

    times: list[float]
    g_obs: list[float]
    c_obs: list[float]
    m_obs: list[float]
    f_obs: list[float]

    def __len__(self) -> int:
        return len(self.times)


def _check_series(obs: ObservedSeries) -> None:
    n = len(obs.times)
    if n < 2:
        raise ArgumentError("observed series needs at least 2 rows")
    for name in ("g_obs", "c_obs", "m_obs", "f_obs"):
        if len(getattr(obs, name)) != n:
            raise ArgumentError(f"{name} length {len(getattr(obs, name))} != times length {n}")
    for i in range(n):
        if not math.isfinite(obs.times[i]):
            raise ArgumentError(f"times[{i}] is not finite")
        if i and obs.times[i] <= obs.times[i - 1]:
            raise ArgumentError(f"times must be strictly increasing at index {i}")
    for name in ("g_obs", "c_obs", "m_obs", "f_obs"):
        for i, v in enumerate(getattr(obs, name)):
            if not math.isfinite(v) or v < 0.0:
                raise ArgumentError(f"{name}[{i}] must be finite and >= 0, got {v!r}")


@dataclass
class FitOptions:
    max_iter: int = 2000
    tol: float = 1e-10
    restarts: int = 0
    seed: int = 0


@dataclass
class FitResult:
    params: ModelParameters
    objective_value: float
    components: tuple[float, float, float, float]
    iterations: int
    converged: bool
    restarts_used: int

    def to_json_dict(self) -> dict:
        return {
            "params": {name: getattr(self.params, name) for name in PARAM_FIELDS},
            "objective": self.objective_value,
            "components": {
                "e_g": self.components[0],
                "e_c": self.components[1],
                "e_m": self.components[2],
                "e_f": self.components[3],
            },
            "iterations": self.iterations,
            "converged": self.converged,
            "restarts_used": self.restarts_used,
        }


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def _residual_indices(obs: ObservedSeries, dt: float, steps: int) -> list[int]:
    t0 = obs.times[0]
    idxs = []
    for j, tj in enumerate(obs.times):
        idx = int(round((tj - t0) / dt))
        if idx < 0 or idx > steps:
            raise ArgumentError(
                f"observed time {tj} (row {j}) falls outside the integration horizon"
            )
        idxs.append(idx)
    return idxs


def objective(
    p: ModelParameters,
    obs: ObservedSeries,
    dt: float,
) -> tuple[float, tuple[float, float, float, float]]:
    """Sum of squared residuals of a prediction against observations.

    Integrates from the first observed row; each observed time is snapped
    to the nearest integration sample (error at most dt/2). Returns the
    total and the per-variable components (e_g, e_c, e_m, e_f).
    """
    _check_series(obs)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ArgumentError(f"dt must be positive, got {dt!r}")
    t0 = obs.times[0]
    horizon = obs.times[-1] - t0
    steps = max(_step_count(horizon, dt), 1)
    idxs = _residual_indices(obs, dt, steps)
    raw, _ = _integrate_raw(t0, obs.g_obs[0], obs.c_obs[0], obs.m_obs[0], p, steps, dt)
    a4, f4, g2 = p.alpha4, p.phi4, p.gamma2
    e_g = e_c = e_m = e_f = 0.0
    for j, idx in enumerate(idxs):
        g, c, m = raw[idx]
        f = a4 * (m * (1.0 - _exp(-f4 * c)) / (1.0 + g2 * c))
        e_g += (obs.g_obs[j] - g) ** 2
        e_c += (obs.c_obs[j] - c) ** 2
        e_m += (obs.m_obs[j] - m) ** 2
        e_f += (obs.f_obs[j] - f) ** 2
    return e_g + e_c + e_m + e_f, (e_g, e_c, e_m, e_f)


# ---------------------------------------------------------------------------
# Nelder-Mead simplex with box projection
# ---------------------------------------------------------------------------

def _nelder_mead_box(fn, x0, lo, hi, max_iter: int, tol: float, step):
    """Simplex minimization of fn over the box [lo, hi].

    Every trial point is projected onto the box. Uses dimension-adaptive
    expansion/contraction coefficients, which behave much better than the
    classic constants in a dozen dimensions. Terminates when the vertex
    objective spread or the vertex coordinate spread drops below tol.

    Returns (x_best, f_best, iterations, converged).
    """
    n = len(x0)
    rho = 1.0
    chi = 1.0 + 2.0 / n
    psi = 0.75 - 1.0 / (2.0 * n)
    sigma = 1.0 - 1.0 / n

    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    x0 = clip(np.asarray(x0, dtype=float))
    vertices = [x0]
    for i in range(n):
        xi = x0.copy()
        if xi[i] + step[i] <= hi[i]:
            xi[i] += step[i]
        else:
            xi[i] -= step[i]
        vertices.append(clip(xi))
    simplex = np.array(vertices)
    fvals = np.array([fn(x) for x in simplex])

    iters = 0
    converged = False
    while True:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        # when every vertex diverged the objective spread is meaningless;
        # only the coordinate spread can end the search then
        fspread = math.inf if math.isinf(fvals[0]) else fvals[-1] - fvals[0]
        if fspread < tol or np.max(np.abs(simplex[1:] - simplex[0])) < tol:
            converged = True
            break
        if iters >= max_iter:
            break
        iters += 1

        centroid = simplex[:-1].mean(axis=0)
        xr = clip(centroid + rho * (centroid - simplex[-1]))
        fr = fn(xr)
        if fr < fvals[0]:
            xe = clip(centroid + chi * (xr - centroid))
            fe = fn(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = clip(centroid + psi * (xr - centroid))
                fc = fn(xc)
                shrink = fc > fr
            else:
                xc = clip(centroid + psi * (simplex[-1] - centroid))
                fc = fn(xc)
                shrink = fc >= fvals[-1]
            if shrink:
                for i in range(1, n + 1):
                    simplex[i] = clip(simplex[0] + sigma * (simplex[i] - simplex[0]))
                    fvals[i] = fn(simplex[i])
            else:
                simplex[-1], fvals[-1] = xc, fc

    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best]), iters, converged


_INITIAL_STEP_FRACTION = 0.05
_REBUILD_SHRINK = 0.25


def _minimize_from(fn, x0, lo, hi, max_iter: int, tol: float):
    """One optimization start: simplex runs with rebuilds around the best
    point until the iteration budget is exhausted or improvement stops.

    A collapsed simplex can converge far from a minimum; rebuilding a
    smaller simplex at the best point and continuing is the standard
    remedy and keeps everything deterministic.
    """
    span = np.asarray(hi, float) - np.asarray(lo, float)
    best_x = np.minimum(np.maximum(np.asarray(x0, float), lo), hi)
    best_f = fn(best_x)
    total_iters = 0
    converged = best_f <= tol
    if converged:
        return best_x, best_f, total_iters, True
    rel = _INITIAL_STEP_FRACTION
    remaining = max_iter
    while remaining > 0:
        step = np.maximum(rel * span, 1e-9)
        x, f, iters, conv = _nelder_mead_box(fn, best_x, lo, hi, remaining, tol, step)
        total_iters += max(iters, 1)
        remaining -= max(iters, 1)
        converged = conv
        improved = f < best_f - tol
        if f < best_f:
            best_x, best_f = x, f
        if best_f <= tol or not improved:
            break
        rel *= _REBUILD_SHRINK
    return best_x, best_f, total_iters, converged


def _check_bounds(bounds: dict[str, tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty(len(PARAM_FIELDS))
    hi = np.empty(len(PARAM_FIELDS))
    for i, name in enumerate(PARAM_FIELDS):
        if name not in bounds:
            raise ArgumentError(f"bounds missing field {name}")
        lo_i, hi_i = bounds[name]
        if not (math.isfinite(lo_i) and math.isfinite(hi_i)):
            raise ArgumentError(f"bounds for {name} must be finite")
        if lo_i < 0.0 or lo_i > hi_i:
            raise ArgumentError(f"bounds for {name} must satisfy 0 <= lo <= hi")
        lo[i], hi[i] = lo_i, hi_i
    return lo, hi


def fit(
    obs: ObservedSeries,
    initial_guess: ModelParameters,
    bounds: dict[str, tuple[float, float]] | None = None,
    options: FitOptions | None = None,
    dt: float = 0.05,
) -> FitResult:
    """Minimize the objective over the 13-dimensional parameter box.

    Runs one start from initial_guess plus options.restarts starts from
    uniform random points in the box (seeded). Each start gets up to
    options.max_iter simplex iterations. Restarts are skipped once the
    best objective is at or below options.tol; the best result wins, ties
    broken in favor of the earliest start.
    """
    _check_series(obs)
    opts = options or FitOptions()
    if opts.max_iter < 1:
        raise ArgumentError("max_iter must be >= 1")
    if opts.tol < 0.0:
        raise ArgumentError("tol must be >= 0")
    if opts.restarts < 0:
        raise ArgumentError("restarts must be >= 0")
    lo, hi = _check_bounds(bounds if bounds is not None else DEFAULT_PARAM_BOUNDS)
    x_guess = np.array([getattr(initial_guess, name) for name in PARAM_FIELDS])
    if np.any(x_guess < lo) or np.any(x_guess > hi):
        raise ArgumentError("initial_guess lies outside the bounds box")

    t0 = obs.times[0]
    horizon = obs.times[-1] - t0
    steps = max(_step_count(horizon, dt), 1)
    idxs = _residual_indices(obs, dt, steps)
    g0, c0, m0 = obs.g_obs[0], obs.c_obs[0], obs.m_obs[0]
    obs_g, obs_c, obs_m, obs_f = obs.g_obs, obs.c_obs, obs.m_obs, obs.f_obs

    def fn(x) -> float:
        # exploratory simplex points may sit in a diverging corner of the
        # box; score them as +inf so the simplex backs away instead of
        # aborting the whole fit. Plain floats keep the integration kernel
        # off numpy scalar arithmetic.
        p = ModelParameters(*(float(v) for v in x))
        try:
            raw, _ = _integrate_raw(t0, g0, c0, m0, p, steps, dt)
            a4, f4, g2 = p.alpha4, p.phi4, p.gamma2
            e = 0.0
            for j, idx in enumerate(idxs):
                g, c, m = raw[idx]
                f = a4 * (m * (1.0 - _exp(-f4 * c)) / (1.0 + g2 * c))
                e += (
                    (obs_g[j] - g) ** 2
                    + (obs_c[j] - c) ** 2
                    + (obs_m[j] - m) ** 2
                    + (obs_f[j] - f) ** 2
                )
        except (NumericalError, OverflowError):
            return math.inf
        return e

    rng = random.Random(opts.seed)
    best_x, best_f, best_conv = None, math.inf, False
    total_iters = 0
    restarts_used = 0
    x, f, iters, conv = _minimize_from(fn, x_guess, lo, hi, opts.max_iter, opts.tol)
    total_iters += iters
    best_x, best_f, best_conv = x, f, conv
    for _ in range(opts.restarts):
        if best_f <= opts.tol:
            break
        x0_r = np.array([rng.uniform(lo[i], hi[i]) for i in range(len(PARAM_FIELDS))])
        restarts_used += 1
        x, f, iters, conv = _minimize_from(fn, x0_r, lo, hi, opts.max_iter, opts.tol)
        total_iters += iters
        if f < best_f:
            best_x, best_f, best_conv = x, f, conv

    params = ModelParameters(*(float(v) for v in best_x))
    total, components = objective(params, obs, dt)
    return FitResult(
        params=params,
        objective_value=total,
        components=components,
        iterations=total_iters,
        converged=best_conv,
        restarts_used=restarts_used,
    )


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic(
    p: ModelParameters,
    initial: SystemState,
    horizon: float,
    dt: float,
    sample_every: int,
    noise_sd: float,
    seed: int,
) -> ObservedSeries:
    """Integrate, subsample every `sample_every` steps, and optionally add
    independent Gaussian noise (clamped at zero). Deterministic per seed."""
    if not (isinstance(sample_every, int) and sample_every >= 1):
        raise ArgumentError(f"sample_every must be a positive integer, got {sample_every!r}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ArgumentError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    traj = integrate(initial, p, horizon, dt)
    picks = range(0, len(traj.samples), sample_every)
    rows = [traj.samples[k] for k in picks]
    if len(rows) < 2:
        raise ArgumentError("sampling produced fewer than 2 rows; lower sample_every")
    times = [state.t for state, _ in rows]
    g, c, m, f = (
        [state.g for state, _ in rows],
        [state.c for state, _ in rows],
        [state.m for state, _ in rows],
        [fv for _, fv in rows],
    )
    if noise_sd > 0.0:
        rng = random.Random(seed)
        for j in range(len(times)):
            g[j] = max(g[j] + rng.gauss(0.0, noise_sd), 0.0)
            c[j] = max(c[j] + rng.gauss(0.0, noise_sd), 0.0)
            m[j] = max(m[j] + rng.gauss(0.0, noise_sd), 0.0)
            f[j] = max(f[j] + rng.gauss(0.0, noise_sd), 0.0)
    return ObservedSeries(times=times, g_obs=g, c_obs=c, m_obs=m, f_obs=f)


# ---------------------------------------------------------------------------
# series I/O (same delimited layout as trajectory export)
# ---------------------------------------------------------------------------

def write_series_csv(obs: ObservedSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,G,C,M,F\n")
        for j in range(len(obs.times)):
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (obs.times[j], obs.g_obs[j], obs.c_obs[j], obs.m_obs[j], obs.f_obs[j])
                )
                + "\n"
            )


def read_series_csv(path) -> ObservedSeries:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ArgumentError(f"{path}: empty series file") from None
        if [h.strip() for h in header] != ["t", "G", "C", "M", "F"]:
            raise ArgumentError(f"{path}: expected header t,G,C,M,F, got {header}")
        times, g, c, m, f = [], [], [], [], []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ArgumentError(f"{path}:{row_no}: expected 5 columns, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ArgumentError(f"{path}:{row_no}: {exc}") from None
            times.append(vals[0])
            g.append(vals[1])
            c.append(vals[2])
            m.append(vals[3])
            f.append(vals[4])
    obs = ObservedSeries(times=times, g_obs=g, c_obs=c, m_obs=m, f_obs=f)
    _check_series(obs)
    return obs
