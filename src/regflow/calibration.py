"""Least-squares estimation of the 13 model coefficients.

The residuals are observed minus predicted g, c, m and feedback at each
observed time, integrating from the first observed row; the objective is

    total = e_g + e_c + e_m + e_f,   e_x = sum_t (x_obs(t) - x_pred(t))^2

A projected Levenberg-Marquardt minimizes it inside the per-field box,
optionally also from seeded random restart points. Fixed-step RK4 makes
the prediction a smooth, deterministic function of the coefficients
wherever no state is clamped at zero, so a forward-difference Jacobian
is accurate to about sqrt(machine epsilon). Everything is deterministic
for a fixed seed.
"""

from __future__ import annotations

import csv
import math
import operator
import random
import sys
from dataclasses import dataclass

from .dynamics import (
    DEFAULT_PARAM_BOUNDS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _check_box,
    _count,
    _feedback,
    _integrate_raw,
    _number,
    _step_count,
    _total,
    _write_text,
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
    """ArgumentError unless obs has at least 2 rows, columns of one length,
    finite values (g, c, m and f >= 0) and strictly increasing times. A
    series that passed keeps its columns as tuples in _passed and passes
    again at once while it holds the very objects that passed: calibrate
    reads a series with read_series_csv and fits it with fit, and both check
    it."""
    values = (obs.times, obs.g_obs, obs.c_obs, obs.m_obs, obs.f_obs)
    passed = getattr(obs, "_passed", ())
    if passed and all(len(a) == len(b) and all(map(operator.is_, a, b)) for a, b in zip(values, passed)):
        return
    n = len(obs.times)
    if n < 2:
        raise ArgumentError("observed series needs at least 2 rows")
    for name in ("g_obs", "c_obs", "m_obs", "f_obs"):
        if len(getattr(obs, name)) != n:
            raise ArgumentError(f"{name} length {len(getattr(obs, name))} != times length {n}")
    columns = (("times", -math.inf), ("g_obs", 0.0), ("c_obs", 0.0), ("m_obs", 0.0), ("f_obs", 0.0))
    for name, low in columns:
        for i, v in enumerate(getattr(obs, name)):
            try:
                _number(v, name, low)
            except ArgumentError:
                # the row's label is built only for the value that fails
                _number(v, f"{name}[{i}]", low)
    for i in range(1, n):
        if obs.times[i] <= obs.times[i - 1]:
            raise ArgumentError(f"times must be strictly increasing at index {i}")
    obs._passed = tuple(map(tuple, values))


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 2000
    tol: float = 1e-10
    restarts: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        _count(self.max_iter, "max_iter")
        _number(self.tol, "tol")
        _count(self.restarts, "restarts", 0)
        _count(self.seed, "seed", -math.inf)


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
# residuals and objective
# ---------------------------------------------------------------------------

def _prepare(obs: ObservedSeries, dt: float) -> tuple[int, list[int]]:
    """Check the series and dt; return what every residual evaluation
    shares: the step count and the sample index of each observed row."""
    _check_series(obs)
    _number(dt, "dt", positive=True)
    t0 = obs.times[0]
    steps = _step_count(obs.times[-1] - t0, dt)
    idxs = []
    for j, tj in enumerate(obs.times):
        idx = int(round((tj - t0) / dt))
        if idx < 0 or idx > steps:
            raise ArgumentError(
                f"observed time {tj} (row {j}) falls outside the integration horizon"
            )
        idxs.append(idx)
    return steps, idxs


def _residuals(p: ModelParameters, obs: ObservedSeries, dt: float, prep) -> tuple[list[float], ...]:
    """Observed minus predicted g, c, m and f at each observed time.

    Integrates from the first observed row; each observed time is snapped
    to the nearest integration sample (error at most dt/2). Returns four
    lists, g, c, m and f, each in row order; prep comes from _prepare.
    """
    steps, idxs = prep
    raw, _ = _integrate_raw(obs.times[0], obs.g_obs[0], obs.c_obs[0], obs.m_obs[0], p, steps, dt)
    pred = [raw[idx] for idx in idxs]
    return (
        [o - g for o, (g, _, _) in zip(obs.g_obs, pred)],
        [o - c for o, (_, c, _) in zip(obs.c_obs, pred)],
        [o - m for o, (_, _, m) in zip(obs.m_obs, pred)],
        [o - _feedback(p, c, m) for o, (_, c, m) in zip(obs.f_obs, pred)],
    )


def objective(
    p: ModelParameters,
    obs: ObservedSeries,
    dt: float,
) -> tuple[float, tuple[float, float, float, float]]:
    """Sum of squared residuals of a prediction against observations.

    Returns the total and the per-variable components (e_g, e_c, e_m, e_f)
    of the residuals from _residuals, each summed in row order.
    """
    return _sum_squares(_residuals(p, obs, dt, _prepare(obs, dt)))


def _sum_squares(rows) -> tuple[float, tuple[float, ...]]:
    """Each row's sum of the products v * v and their total, every sum taken
    left to right with one rounding per addition; an overflow gives inf."""
    components = []
    for row in rows:
        e = 0.0
        for v in row:
            e += v * v
        components.append(e)
    return _total(components), tuple(components)


def _dot(a, b) -> float:
    """Sum of a[i] * b[i], taken left to right like _sum_squares."""
    s = 0.0
    for u, v in zip(a, b):
        s += u * v
    return s


def _gram(vectors) -> list[list[float]]:
    """The lower triangle, by rows, of the dot products of an even number
    of equal-length vectors: row i holds _dot(vectors[i], vectors[j]) for
    j <= i, bit for bit. One pass over two rows and two columns makes four
    sums at once, which shares the cost of the loop among them."""
    gram = []
    for i in range(0, len(vectors), 2):
        a, b = vectors[i], vectors[i + 1]
        row_a, row_b = [], []
        for j in range(0, i, 2):
            c, d = vectors[j], vectors[j + 1]
            ac = ad = bc = bd = 0.0
            for u, v, w, x in zip(a, b, c, d):
                ac += u * w
                ad += u * x
                bc += v * w
                bd += v * x
            row_a += (ac, ad)
            row_b += (bc, bd)
        aa = ba = bb = 0.0
        for u, v in zip(a, b):
            aa += u * u
            ba += v * u
            bb += v * v
        row_a.append(aa)
        row_b += (ba, bb)
        gram += (row_a, row_b)
    return gram


# ---------------------------------------------------------------------------
# projected Levenberg-Marquardt
# ---------------------------------------------------------------------------

_EPS = sys.float_info.epsilon
# Forward-difference step relative to max(|x|, 1): sqrt(eps) balances the
# truncation error of the difference against the rounding error of it.
_FD_STEP = math.sqrt(_EPS)
# Past this damping a step moves x by less than its rounding error.
_MAX_DAMPING = 1e16


def _damped_step(jtj, grad, free, damping):
    """The step s over the coordinates in free (ascending) that solves
    (JᵀJ + diag(damping)) s = -grad, by Cholesky; jtj holds JᵀJ's lower
    triangle by rows. None when a pivot is not positive or s not finite."""
    low = []
    for a, i in enumerate(free):
        row = []
        for b, j in enumerate(free[:a]):
            row.append((jtj[i][j] - _dot(row, low[b])) / low[b][b])
        pivot = jtj[i][i] + damping[a] - _dot(row, row)
        if not pivot > 0.0:
            return None
        row.append(math.sqrt(pivot))
        low.append(row)
    # forward substitution, then back substitution in place: y becomes s
    y = []
    for a, i in enumerate(free):
        y.append((-grad[i] - _dot(low[a], y)) / low[a][a])
    for a in reversed(range(len(free))):
        y[a] = (y[a] - _dot([row[a] for row in low[a + 1:]], y[a + 1:])) / low[a][a]
    return y if all(map(math.isfinite, y)) else None


def _levenberg_marquardt(resid, x0, lo, hi, max_iter: int, tol: float):
    """Minimize the sum of squares of resid(x) over the box [lo, hi].

    resid(x) returns the residuals as a sequence of rows, and the sum of
    squares is _sum_squares's; a non-finite entry marks a point the model
    cannot evaluate. x0, lo and hi are sequences of floats. An iteration
    builds a forward-difference Jacobian (one resid call per coordinate,
    stepping backward at the upper bound) and its JᵀJ, holds coordinates
    that sit on a bound with the gradient pointing out of the box, and
    tries damped Gauss-Newton steps clipped to the box until one lowers
    the sum. Each trial solves the damped normal equations
    (JᵀJ + λD²) s = -Jᵀr over the free coordinates by Cholesky (Marquardt
    1963); a pivot that is not positive rejects the trial like a step that
    does not lower the sum. D is the running maximum of the column norms
    (Moré 1978), 1 for a column that has been zero throughout, and λ
    follows Nielsen's update.

    Converged: the sum is at or below tol (tested at x0 first, so a start
    that meets it costs one resid call), or no step lowers it any more
    (the clipped step leaves x unchanged or the damping passes
    _MAX_DAMPING). Not converged: max_iter iterations used, or resid(x0)
    not finite (returned with sum inf). iterations counts the Jacobians
    built.

    Returns (x_best, rows_best, f_best, iterations, converged) with x_best
    a list and rows_best resid(x_best).
    """
    x = [min(max(v, low), high) for v, low, high in zip(x0, lo, hi)]
    rows = resid(x)
    f = _sum_squares(rows)[0]
    if f <= tol:
        return x, rows, f, 0, True
    if not math.isfinite(f):
        return x, rows, math.inf, 0, False
    r = [v for row in rows for v in row]
    n = len(x)
    zero = [0.0] * len(r)
    scale = [0.0] * n
    lam, grow = 1e-3, 2.0
    for it in range(1, max_iter + 1):
        # each column of J is a difference of residuals over its step h;
        # the differences go into the dot products, and the steps after
        deltas, steps = [], []
        for j in range(n):
            h = _FD_STEP * max(abs(x[j]), 1.0)
            if x[j] + h > hi[j]:
                h = -h
                if x[j] + h < lo[j]:
                    deltas.append(zero)
                    steps.append(1.0)
                    continue
            probe = x.copy()
            probe[j] += h
            deltas.append([a - b for row_j, row in zip(resid(probe), rows) for a, b in zip(row_j, row)])
            steps.append(h)
        # JᵀJ's lower triangle by rows and Jᵀr, from rows 0 to n-1 and row n
        # of the dot products of the differences and r (padded to an even
        # count). A column whose squares do not sum to a finite number (a
        # probe the model cannot evaluate, or one that overflows) counts as
        # zero.
        tail = [r] if n % 2 else [r, zero]
        while True:
            gram = _gram(deltas + tail)
            jtj = [[v / steps[i] / steps[j] for j, v in enumerate(row)] for i, row in enumerate(gram[:n])]
            bad = [j for j in range(n) if not math.isfinite(jtj[j][j])]
            if not bad:
                break
            for j in bad:
                deltas[j] = zero
        grad = [v / h for v, h in zip(gram[n], steps)]
        scale = [max(s, math.sqrt(jtj[j][j])) for j, s in enumerate(scale)]
        free = [
            j for j in range(n)
            if not ((x[j] <= lo[j] and grad[j] > 0.0) or (x[j] >= hi[j] and grad[j] < 0.0))
        ]
        diag = [(scale[j] if scale[j] > 0.0 else 1.0) ** 2 for j in free]
        while True:
            step = _damped_step(jtj, grad, free, [lam * d for d in diag])
            x_new = None
            if step is not None:
                x_new = x.copy()
                for j, s in zip(free, step):
                    x_new[j] = min(max(x[j] + s, lo[j]), hi[j])
            if lam > _MAX_DAMPING or x_new == x:
                return x, rows, f, it, True
            if x_new is not None:
                rows_new = resid(x_new)
                f_new = _sum_squares(rows_new)[0]
                if f_new < f:
                    break
            lam *= grow
            grow *= 2.0
        # the drop the linear model r + J·d predicts for d = x_new - x:
        # |r|² - |r + J·d|² = -(2·Jᵀr·d + d·JᵀJ·d)
        d = [b - a for a, b in zip(x, x_new)]
        curvature = 0.0
        for i in range(n):
            curvature += d[i] * (jtj[i][i] * d[i] + 2.0 * _dot(jtj[i][:i], d))
        predicted = -(2.0 * _dot(grad, d) + curvature)
        # every gain from 1 up gives the factor 1/3; capping it keeps the
        # cube finite when a step far shorter than x's scale predicts a drop
        # far smaller than the one it made
        gain = min((f - f_new) / predicted, 1.0) if predicted > 0.0 else 0.0
        # the floor keeps a later rejection able to raise the damping
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), _EPS)
        grow = 2.0
        x, rows, f = x_new, rows_new, f_new
        r = [v for row in rows for v in row]
        if f <= tol:
            return x, rows, f, it, True
    return x, rows, f, max_iter, False


def fit(
    obs: ObservedSeries,
    initial_guess: ModelParameters,
    bounds: dict[str, tuple[float, float]] | None = None,
    options: FitOptions | None = None,
    dt: float = 0.05,
) -> FitResult:
    """Least-squares fit of the 13 coefficients inside a box.

    One projected Levenberg-Marquardt start from initial_guess, then up to
    options.restarts starts from uniform random points in the box (seeded
    by options.seed), skipped once the best objective is at or below
    options.tol. The best start wins, ties going to the earliest.

    A start converges when its objective is at or below options.tol or no
    step inside the box lowers it further; it stops unconverged after
    options.max_iter iterations, or at once when the integration diverges
    at its starting point. An iteration is one forward-difference Jacobian
    (13 integrations) plus its trial steps; `iterations` sums them over
    all starts run, and `converged` is the winning start's. The reported
    objective and components are _sum_squares of the winning start's last
    residuals, so the objective is the very sum the optimizer compared.
    """
    prep = _prepare(obs, dt)
    opts = options or FitOptions()
    box = _check_box(bounds if bounds is not None else DEFAULT_PARAM_BOUNDS, "bounds")
    lo, hi = (list(side) for side in zip(*box.values()))
    x_guess = [getattr(initial_guess, name) for name in PARAM_FIELDS]
    if any(v < low or v > high for v, low, high in zip(x_guess, lo, hi)):
        raise ArgumentError("initial_guess lies outside the bounds box")

    def resid(x):
        # a point in a diverging corner of the box gets infinite residuals,
        # so the optimizer backs away instead of aborting the whole fit
        try:
            return _residuals(ModelParameters(*x), obs, dt, prep)
        except (NumericalError, OverflowError):
            return [[math.inf] * len(obs)] * 4

    rng = random.Random(opts.seed)
    best_x, best_rows, best_f, total_iters, best_conv = _levenberg_marquardt(
        resid, x_guess, lo, hi, opts.max_iter, opts.tol
    )
    restarts_used = 0
    for _ in range(opts.restarts):
        if best_f <= opts.tol:
            break
        x0_r = [rng.uniform(lo[i], hi[i]) for i in range(len(PARAM_FIELDS))]
        restarts_used += 1
        x, rows, f, iters, conv = _levenberg_marquardt(resid, x0_r, lo, hi, opts.max_iter, opts.tol)
        total_iters += iters
        if f < best_f:
            best_x, best_rows, best_f, best_conv = x, rows, f, conv

    params = ModelParameters(*best_x)
    # resid stands in infinite residuals for a diverged integration; only
    # then is it run again, so that its NumericalError reaches the caller
    # (finite residuals whose squares overflow come back the same, with an
    # infinite objective)
    if not math.isfinite(best_f):
        best_rows = _residuals(params, obs, dt, prep)
    total, components = _sum_squares(best_rows)
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
    _count(sample_every, "sample_every")
    _number(noise_sd, "noise_sd")
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
# series I/O: a t,G,C,M,F CSV
# ---------------------------------------------------------------------------

def write_series_csv(obs: ObservedSeries, path) -> None:
    """Rows t,G,C,M,F, each number written as "%.17g", the text of
    format(x, ".17g")."""
    rows = zip(obs.times, obs.g_obs, obs.c_obs, obs.m_obs, obs.f_obs)
    _write_text(path, ["t,G,C,M,F\n"] + ["%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows])


def read_series_csv(path) -> ObservedSeries:
    """A t,G,C,M,F series; ArgumentError naming the path when the file
    cannot be read, is not UTF-8 text or is not such a CSV."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ArgumentError(f"{path} is not a CSV file: {exc}") from None
    if not rows:
        raise ArgumentError(f"{path}: empty series file")
    header = rows[0]
    if [h.strip() for h in header] != ["t", "G", "C", "M", "F"]:
        raise ArgumentError(f"{path}: expected header t,G,C,M,F, got {header}")
    times, g, c, m, f = [], [], [], [], []
    for row_no, row in enumerate(rows[1:], start=2):
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
