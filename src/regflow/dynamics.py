"""Coupled guidance/compliance/adaptation dynamics.

The model tracks three non-negative state variables per manufacturer:

    g   guidance issuance level
    c   compliance effort
    m   market adaptation

plus an algebraic feedback level f derived from the instantaneous state.
The evolution is the coupled nonlinear system

    dg/dt = alpha1 * (1 - exp(-phi1 * t)) - beta1 * f
    dc/dt = alpha2 * g * (1 - exp(-phi2 * c)) - beta2 * (c / (1 + gamma1 * m))
    dm/dt = alpha3 * c * (1 - exp(-phi3 * g)) - beta3 * m
    f     = alpha4 * (m * (1 - exp(-phi4 * c)) / (1 + gamma2 * c))

The code evaluates each expression as written here, left to right with
the grouping shown.

Integration is fixed-step classical RK4. After every step each component
is clamped at zero (the quantities are semantically non-negative) and the
number of clamp events is counted so runs can be audited. All functions
here are pure; identical inputs give bit-identical outputs. The one state
the module keeps is _time_table, an lru_cache of the time terms
1 - exp(-phi1 * t) of the two runs integrated last: they depend on no
state, so agents and integrations with equal phi1, t0, h and step count
share them, and a result never depends on what ran before it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace

from .errors import ArgumentError, DomainError, NumericalError

__all__ = [
    "ModelParameters",
    "SystemState",
    "Trajectory",
    "PARAM_FIELDS",
    "DEFAULT_PARAMETERS",
    "DEFAULT_PARAM_BOUNDS",
    "DEFAULT_INITIAL_STATE",
    "eval_feedback",
    "integrate",
    "advance",
]

# Steps above this are refused rather than silently ground through.
MAX_STEPS = 10_000_000


#: the largest float; an int above it cannot be converted to one
_FLOAT_MAX = sys.float_info.max


def _store_floats(kind: str, obj) -> None:
    """Store each field of obj as the float it equals; DomainError naming
    the first that is a bool or not a real number, an int past the float
    range, not finite or negative (kind names the fields in the message)."""
    for name, v in vars(obj).items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise DomainError(f"{kind} {name} must be a number, got {v!r}")
        if isinstance(v, int) and not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            raise DomainError(f"{kind} {name} must be within the float range, got an integer of {_int_size(v)}")
        x = float(v)
        if not math.isfinite(x):
            raise DomainError(f"{kind} {name} is not finite: {v!r}")
        if x < 0.0:
            raise DomainError(f"{kind} {name} must be >= 0, got {v!r}")
        object.__setattr__(obj, name, x)


@dataclass(frozen=True)
class ModelParameters:
    """The 13 coefficients of the coupled system.

    alpha* are gain coefficients, phi* saturation rates, beta* damping
    coefficients, gamma* dilution coefficients. All must be finite and
    non-negative; each is stored as a float (see _store_floats).
    """

    alpha1: float = 0.0
    alpha2: float = 0.0
    alpha3: float = 0.0
    alpha4: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0
    phi4: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    beta3: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        # "0 <= v <= max" is false for nan and inf, so a set of valid floats
        # passes in one pass; any other set is converted field by field
        if not all(type(v) is float and 0.0 <= v <= _FLOAT_MAX for v in vars(self).values()):
            _store_floats("parameter", self)

    def replace(self, **changes: float) -> "ModelParameters":
        return replace(self, **changes)


PARAM_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ModelParameters))

#: Box constraints used by calibration and by bounded parameter updates.
#: Saturation rates get a tighter box to keep the exponentials well-scaled.
DEFAULT_PARAM_BOUNDS: dict[str, tuple[float, float]] = {
    name: ((0.0, 5.0) if name.startswith("phi") else (0.0, 10.0))
    for name in PARAM_FIELDS
}

#: Baseline coefficient set shipped with the package. Chosen so that the
#: default simulation is stable (no clamping from the default start) and
#: the feedback loop is strong enough that damping produces the expected
#: saturation behaviour.
DEFAULT_PARAMETERS = ModelParameters(
    alpha1=0.5,
    alpha2=0.4,
    alpha3=0.35,
    alpha4=0.6,
    phi1=0.6,
    phi2=0.5,
    phi3=0.5,
    phi4=0.5,
    beta1=0.3,
    beta2=0.25,
    beta3=0.3,
    gamma1=0.4,
    gamma2=0.3,
)


@dataclass(frozen=True)
class SystemState:
    """A point of the system: time plus the three state components, all finite floats >= 0."""

    t: float
    g: float
    c: float
    m: float

    def __post_init__(self) -> None:
        # integrate builds one state per sample: one chained test clears a
        # state of valid floats, only any other walks the fields
        top = _FLOAT_MAX
        if not (
            type(self.t) is type(self.g) is type(self.c) is type(self.m) is float
            and 0.0 <= self.t <= top and 0.0 <= self.g <= top and 0.0 <= self.c <= top and 0.0 <= self.m <= top
        ):
            _store_floats("state field", self)


DEFAULT_INITIAL_STATE = SystemState(t=0.0, g=0.5, c=0.5, m=0.5)


@dataclass
class Trajectory:
    """Uniformly-spaced integration output.

    samples holds (state, f) pairs where f is the feedback level evaluated
    at that state; spacing between consecutive sample times is exactly dt.
    clamp_events counts components clamped to zero during integration.
    """

    samples: list[tuple[SystemState, float]]
    dt: float
    clamp_events: int = 0

    def __len__(self) -> int:
        return len(self.samples)

    def terminal(self) -> tuple[SystemState, float]:
        return self.samples[-1]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _real(value, where: str) -> float:
    """A JSON number as a float; ArgumentError for anything else. An integer
    past the float range is named by its digit count, not its digits."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            if isinstance(value, int):
                raise ArgumentError(
                    f"{where} must be a number within the float range, got an integer of {_int_size(value)}"
                ) from None
    raise ArgumentError(f"{where} must be a number, got {value!r}")


def _int_size(value: int) -> str:
    """The size of an int for a message: its digit count, or its bit count
    past the digits str() converts."""
    try:
        return f"{len(str(abs(value)))} digits"
    except ValueError:
        return f"{value.bit_length()} bits"


def _integer(value, where: str) -> int:
    """A JSON number without a fractional part (10 or 10.0) as an int;
    ArgumentError for anything else, never a truncation."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ArgumentError(f"{where} must be an integer, got {value!r}")


def _count(value, where: str, least: int = 1) -> None:
    """ArgumentError naming `where` unless value is an int, not a bool, and
    at least `least`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ArgumentError(f"{where} must be an integer, got {value!r}")
    if value < least:
        raise ArgumentError(f"{where} must be >= {least}, got {value!r}")


def _number(value, where: str, low=0.0, high=math.inf, *, positive=False) -> float:
    """value as a float when it is a real number, not a bool or a str, that
    is finite, at least low (above 0 in place of that when positive) and at
    most high; ArgumentError naming `where` otherwise."""
    x = value if type(value) is float else _real(value, where)
    if (0.0 < x if positive else low <= x) and x <= high and math.isfinite(x):
        return x
    if positive:
        need = "positive and finite"
    elif high < math.inf:
        need = f"in [{low:g}, {high:g}]"
    else:
        need = "finite" if low == -math.inf else f"finite and >= {low:g}"
    raise ArgumentError(f"{where} must be {need}, got {value!r}")


def _store_number(obj, name: str, where: str, **limits) -> None:
    """Store the field obj.name of a frozen dataclass as the float that
    _number(value, where, **limits) returns, so that an int and the equal
    float make equal objects."""
    object.__setattr__(obj, name, _number(getattr(obj, name), where, **limits))


def _total(values) -> float:
    """The sum of values, added left to right with one rounding per
    addition: what builtin sum() gives floats before Python 3.12, which
    compensates the rounding and so can differ in the last digit."""
    total = 0.0
    for v in values:
        total += v
    return total


def _check_bound(name: str, pair, where: str) -> tuple[float, float]:
    """One coefficient's box as floats; ArgumentError unless pair holds two
    finite numbers with 0 <= lo <= hi."""
    try:
        lo, hi = pair
        lo = _number(lo, "lo")
        return lo, _number(hi, "hi", lo)
    except (TypeError, ValueError):
        raise ArgumentError(
            f"{where}: bounds for {name} must be [lo, hi], finite numbers with 0 <= lo <= hi, got {pair!r}"
        ) from None


def _check_box(bounds, where: str) -> dict[str, tuple[float, float]]:
    """A coefficient box: a mapping of each of the 13 coefficient names, and
    no other name, to a pair that _check_bound accepts. Returns the pairs as
    floats in PARAM_FIELDS order; `where` names the box in errors."""
    if not isinstance(bounds, Mapping):
        raise ArgumentError(f"{where} must map each coefficient name to [lo, hi], got {bounds!r}")
    for name in bounds:
        if name not in PARAM_FIELDS:
            raise ArgumentError(f"{where} names unknown parameter {name!r}")
    missing = [name for name in PARAM_FIELDS if name not in bounds]
    if missing:
        raise ArgumentError(f"{where} has no bounds for {', '.join(missing)}")
    return {name: _check_bound(name, bounds[name], where) for name in PARAM_FIELDS}


def _bounds_from_json(data, where: str) -> dict[str, tuple[float, float]]:
    """DEFAULT_PARAM_BOUNDS overlaid with a JSON object {name: [lo, hi]},
    checked by _check_box; `where` names the source in errors."""
    return _check_box({**DEFAULT_PARAM_BOUNDS, **data} if isinstance(data, dict) else data, where)


def _exp(x: float) -> float:
    """math.exp(x), or inf where math.exp raises OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def _feedback(p: ModelParameters, c: float, m: float) -> float:
    """f at compliance c and adaptation m, unchecked. _rk4_run inlines the
    same expression in the same operation order."""
    return p.alpha4 * (m * (1.0 - _exp(-p.phi4 * c)) / (1.0 + p.gamma2 * c))


def eval_feedback(state: SystemState, p: ModelParameters) -> float:
    """Feedback level f at a state; bounded by alpha4 * m."""
    return _feedback(p, state.c, state.m)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

#: Runs of at most this many steps read their time terms from _time_table,
#: a list of about 600 KB at most; a longer run computes them as it goes.
_TERMS_STEPS = 4096


def _time_rows(nf1: float, t0: float, h: float, n: int):
    """(w(t), w(t + h/2), w(t + h)) for each step k of an n-step run from t0
    in steps of h, where t = t0 + k*h and w(t) = 1 - _exp(nf1 * t), the
    factor of alpha1 in dg/dt. From t0 >= 0 every exponent is <= 0, where
    math.exp cannot overflow, so it stands in for _exp."""
    exp = math.exp if t0 >= 0.0 else _exp
    half = 0.5 * h
    for k in range(n):
        t = t0 + k * h
        yield 1.0 - exp(nf1 * t), 1.0 - exp(nf1 * (t + half)), 1.0 - exp(nf1 * (t + h))


# Two, because calibration returns to its base point after its phi1 probe.
@functools.lru_cache(maxsize=2)
def _time_table(nf1: float, t0: float, h: float, n: int) -> list:
    """_time_rows as a list, kept for the two runs asked for last; callers
    only read it. Equal keys give equal terms: a zero nf1 or t of either
    sign gives w = 0.0, and h is a float, so an int t0 converts before
    t0 + k*h rounds."""
    return list(_time_rows(nf1, t0, h, n))


def _rk4_run(
    p: ModelParameters,
    t0: float,
    g: float,
    c: float,
    m: float,
    h: float,
    n: int,
    samples: list | None = None,
) -> tuple[float, float, float, float, int]:
    """n clamped classical-RK4 steps of size h from (t0, g, c, m).

    Step k starts at t0 + k*h. After each step negative components are
    clamped to zero and counted. A non-finite state or a zero stage
    denominator raises NumericalError with step_index k. Each step's
    (g, c, m) is appended to samples when given. Returns (g, c, m, cost,
    clamps); cost is the left-endpoint quadrature of
    beta2 * c / (1 + gamma1 * m).

    Each stage evaluates f, dg, dc and dm as the module docstring writes
    them, in that order and with its grouping, so a stage is bit for bit
    the right-hand side at the stage point. The factor 1 - exp(-phi1 * t)
    of dg comes from _time_rows: through _time_table for a run of at most
    _TERMS_STEPS steps, step by step for a longer one. Every step runs on
    math.exp and is redone with _exp only if math.exp raises OverflowError,
    so a step's value is that step evaluated with _exp. With p's fields and
    h floats, no other operation raises it on checked inputs.
    """
    a1, a2, a3, a4 = p.alpha1, p.alpha2, p.alpha3, p.alpha4
    nf1, nf2, nf3, nf4 = -p.phi1, -p.phi2, -p.phi3, -p.phi4
    b1, b2, b3 = p.beta1, p.beta2, p.beta3
    g1, g2 = p.gamma1, p.gamma2
    half = 0.5 * h
    sixth = h / 6.0
    math_exp = math.exp
    inf = math.inf
    cost = 0.0
    clamps = 0
    terms = _time_table(nf1, t0, h, n) if n <= _TERMS_STEPS else _time_rows(nf1, t0, h, n)
    for k, (w1, w2, w4) in enumerate(terms):
        exp = math_exp
        while True:
            try:
                # stage 1 at (t, g, c, m); d is also the cost integrand
                f = a4 * (m * (1.0 - exp(nf4 * c)) / (1.0 + g2 * c))
                d = b2 * (c / (1.0 + g1 * m))
                k1g = a1 * w1 - b1 * f
                k1c = a2 * g * (1.0 - exp(nf2 * c)) - d
                k1m = a3 * c * (1.0 - exp(nf3 * g)) - b3 * m
                # stages 2 and 3 share the time t + h/2
                drive = a1 * w2
                sg2 = g + half * k1g
                sc2 = c + half * k1c
                sm2 = m + half * k1m
                f = a4 * (sm2 * (1.0 - exp(nf4 * sc2)) / (1.0 + g2 * sc2))
                k2g = drive - b1 * f
                k2c = a2 * sg2 * (1.0 - exp(nf2 * sc2)) - b2 * (sc2 / (1.0 + g1 * sm2))
                k2m = a3 * sc2 * (1.0 - exp(nf3 * sg2)) - b3 * sm2
                sg3 = g + half * k2g
                sc3 = c + half * k2c
                sm3 = m + half * k2m
                f = a4 * (sm3 * (1.0 - exp(nf4 * sc3)) / (1.0 + g2 * sc3))
                k3g = drive - b1 * f
                k3c = a2 * sg3 * (1.0 - exp(nf2 * sc3)) - b2 * (sc3 / (1.0 + g1 * sm3))
                k3m = a3 * sc3 * (1.0 - exp(nf3 * sg3)) - b3 * sm3
                sg4 = g + h * k3g
                sc4 = c + h * k3c
                sm4 = m + h * k3m
                f = a4 * (sm4 * (1.0 - exp(nf4 * sc4)) / (1.0 + g2 * sc4))
                k4g = a1 * w4 - b1 * f
                k4c = a2 * sg4 * (1.0 - exp(nf2 * sc4)) - b2 * (sc4 / (1.0 + g1 * sm4))
                k4m = a3 * sc4 * (1.0 - exp(nf3 * sg4)) - b3 * sm4
                break
            except OverflowError:
                exp = _exp
            except ZeroDivisionError:
                raise NumericalError(f"zero denominator in RK4 step {k}", step_index=k) from None
        cost += d * h
        ng = g + sixth * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
        nc = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        nm = m + sixth * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        if ng < 0.0:
            ng = 0.0
            clamps += 1
        if nc < 0.0:
            nc = 0.0
            clamps += 1
        if nm < 0.0:
            nm = 0.0
            clamps += 1
        # clamped values are >= 0 or nan, so "< inf" is "finite"
        if not (ng < inf and nc < inf and nm < inf):
            raise NumericalError(
                f"non-finite state after RK4 step {k}: g={ng!r} c={nc!r} m={nm!r}",
                step_index=k,
            )
        g, c, m = ng, nc, nm
        if samples is not None:
            samples.append((g, c, m))
    return g, c, m, cost, clamps


def _integrate_raw(
    t0: float,
    g0: float,
    c0: float,
    m0: float,
    p: ModelParameters,
    steps: int,
    dt: float,
) -> tuple[list[tuple[float, float, float]], int]:
    """steps RK4 steps on plain floats: steps+1 samples and the clamp count."""
    out = [(g0, c0, m0)]
    clamps = _rk4_run(p, t0, g0, c0, m0, dt, steps, out)[4]
    return out, clamps


def _step_count(horizon: float, dt: float) -> int:
    """ceil(horizon / dt), at least 1; ArgumentError above MAX_STEPS."""
    # the relative guard keeps a horizon that is an exact multiple of dt
    # from gaining a spurious extra step from float division
    ratio = horizon / dt - 1e-9
    if not ratio <= MAX_STEPS:
        # below 2**53 every float count is exact, so the message can name it
        count = math.ceil(ratio) if ratio < 2.0**53 else f"{ratio:.4g}"
        raise ArgumentError(f"horizon/dt requires {count} steps; limit is {MAX_STEPS}")
    return max(math.ceil(ratio), 1)


def _integration_steps(horizon: float, dt: float) -> tuple[float, int]:
    """dt as a float and integrate's step count; ArgumentError unless dt is
    positive and finite and horizon is finite and at least dt."""
    dt = _number(dt, "dt", positive=True)
    _number(horizon, "horizon", dt)
    return dt, _step_count(horizon, dt)


def integrate(
    initial: SystemState,
    p: ModelParameters,
    horizon: float,
    dt: float,
) -> Trajectory:
    """Integrate over [t0, t0 + horizon] with fixed step dt.

    Produces ceil(horizon/dt) + 1 samples, the first being the initial
    state; every sample carries the feedback level of its state.
    """
    dt, steps = _integration_steps(horizon, dt)
    t0 = initial.t
    raw, clamps = _integrate_raw(t0, initial.g, initial.c, initial.m, p, steps, dt)
    samples = [
        # positional arguments: a keyword call costs more than the state's check
        (SystemState(t0 + k * dt, g, c, m), _feedback(p, c, m))
        for k, (g, c, m) in enumerate(raw)
    ]
    return Trajectory(samples=samples, dt=dt, clamp_events=clamps)


def advance(
    state: SystemState,
    p: ModelParameters,
    dt: float,
    substeps: int,
) -> tuple[SystemState, float, float, int]:
    """Advance one decision interval of length dt in `substeps` RK4 substeps.

    Returns (new_state, feedback_at_new_state, compliance_cost, clamp_events)
    where compliance_cost is the left-endpoint quadrature of the damping
    term beta2 * c / (1 + gamma1 * m) over the interval.
    """
    dt = _number(dt, "dt", positive=True)
    _count(substeps, "substeps")
    g, c, m, cost, clamps = _rk4_run(p, state.t, state.g, state.c, state.m, dt / substeps, substeps)
    return SystemState(state.t + dt, g, c, m), _feedback(p, c, m), cost, clamps


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _write_text(path, pieces) -> None:
    """Write an iterable of text pieces to path as UTF-8 with "\n" line
    ends. The text goes to a sibling <file>.partial of the file path names,
    through any symlinks, and then replaces that file with its permission
    bits, so an error while the pieces are made or written leaves it as it
    was; the partial file is removed on any error. ArgumentError naming the
    path when it cannot be written, for example when it is a directory."""
    target = os.path.realpath(path)
    partial = f"{target}.partial"
    try:
        try:
            with open(partial, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
            with contextlib.suppress(FileNotFoundError):
                os.chmod(partial, os.stat(target).st_mode & 0o7777)
            os.replace(partial, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(partial)
            raise
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc}") from None
