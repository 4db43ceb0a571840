"""Workload definitions and their seeded inputs.

Every workload runs the same four-command study, in the order the paper's
results are produced: `calibrate` the coefficients to an observed series,
`sweep` one coefficient around them, `simulate` the market, and read the
result back with `metrics --groups auto`. The sizes decide which module
carries the round:

    simulate_rk4    many agents, 100 RK4 substeps per step: dynamics.advance
    simulate_audit  more agents at 1 substep: policy, scoring, engine,
                    JSON write and JSON read
    simulate_llm    --policy llm against the local stub: prompts, HTTP, parsing
    fit_sweep       the CLI-default fit of a fixed 13-coefficient problem and
                    a 40-value sweep: scalar RK4 inside an optimizer

The seed draws the roster, the coefficients and the sweep. The fit in
fit_sweep does not depend on the seed: it is the one operation expected to
fail today (Nelder-Mead stalls short of the true coefficients), and it must
fail the same way in every run.
"""

from __future__ import annotations

import json
import os
import random

import oracle

NAMES = ("simulate_rk4", "simulate_audit", "simulate_llm", "fit_sweep")

DT = 0.05
MAX_STEP = 0.05
THRESHOLD = {"base": 4.0, "kappa": 0.3, "window": 10, "floor": 2.0, "ceiling": 8.0}
SCHEDULE = {"strict_steps": 10, "lenient_steps": 5, "cycle": True}
BOUNDS = {name: [0.0, 5.0] if name.startswith("phi") else [0.0, 10.0] for name in oracle.PARAMS}
#: A fit counts as failed when a recovered coefficient misses the true one by more.
RECOVERY_TOL = 1e-4

DEFAULT = dict(zip(oracle.PARAMS, (0.5, 0.4, 0.35, 0.6, 0.6, 0.5, 0.5, 0.5, 0.3, 0.25, 0.3, 0.4, 0.3)))

#: The fixed calibration problem of fit_sweep (the package's acceptance
#: criterion 3 coefficients), fitted from a guess 10% high on every one.
FIT_TRUTH = dict(zip(oracle.PARAMS, (0.6, 0.5, 0.4, 0.8, 0.8, 0.7, 0.6, 0.9, 0.2, 0.3, 0.25, 0.5, 0.4)))
FIT_INITIAL = (0.4, 0.3, 0.2)

SIZES = {
    # agents, steps, substeps, series horizon, sweep values, sweep horizon
    "simulate_rk4": dict(agents=100, steps=10, substeps=100, series_horizon=40.0, sweep_n=8, sweep_horizon=20.0),
    "simulate_audit": dict(agents=120, steps=36, substeps=1, series_horizon=40.0, sweep_n=8, sweep_horizon=20.0),
    "simulate_llm": dict(agents=12, steps=12, substeps=20, series_horizon=40.0, sweep_n=8, sweep_horizon=20.0),
    "fit_sweep": dict(agents=12, steps=73, substeps=20, series_horizon=3.0, sweep_n=40, sweep_horizon=30.0),
}

#: How many times every round runs each command. The short commands run
#: several times so that a run holds many samples of each.
REPEATS = {
    "simulate_rk4": dict(calibrate=10, sweep=5, simulate=1, metrics=3),
    "simulate_audit": dict(calibrate=10, sweep=5, simulate=1, metrics=1),
    "simulate_llm": dict(calibrate=10, sweep=5, simulate=1, metrics=10),
    "fit_sweep": dict(calibrate=1, sweep=3, simulate=2, metrics=8),
}

TIERS = ("limited", "medium", "rich")
RISKS = ("low", "medium", "high")
FOCUS = (
    "surgical robotics", "imaging diagnostics", "cardiac monitoring", "ultrasound",
    "decision support", "radiology triage", "pathology", "preventive care", "remote monitoring",
)


def _roster(rng: random.Random, n: int) -> list[dict]:
    tiers = list(TIERS) * 2 + [rng.choice(TIERS) for _ in range(n - 6)]
    rng.shuffle(tiers)
    return [
        {
            "id": f"M{i:04d}",
            "name": f"Maker {i:04d}",
            "resource_tier": tier,
            "risk_preference": rng.choice(RISKS),
            "ai_investment_fraction": round(rng.uniform(0.01, 0.2), 3),
            "focus": rng.choice(FOCUS),
        }
        for i, tier in enumerate(tiers)
    ]


def _series(truth: dict, y0, horizon: float, every: int = 2) -> dict:
    samples = oracle.integrate(truth, 0.0, y0, oracle.step_count(horizon, DT), DT)[::every]
    return {
        "times": [k * every * DT for k in range(len(samples))],
        "g": [y[0] for y in samples],
        "c": [y[1] for y in samples],
        "m": [y[2] for y in samples],
        "f": [oracle.feedback(truth, y[1], y[2]) for y in samples],
    }


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def build(name: str, seed: int, workdir: str, llm_endpoint: str | None, concurrency: int) -> dict:
    """Write the workload's inputs under workdir; return its plan.

    The plan holds the four CLI commands of one round, the files each
    writes, and every input the checks need.
    """
    size = SIZES[name]
    rng = random.Random(f"{name}:{seed}")
    roster = _roster(rng, size["agents"])
    truth = {k: v * rng.uniform(0.9, 1.1) for k, v in DEFAULT.items()}
    if name == "fit_sweep":
        fit_truth, fit_y0 = FIT_TRUTH, FIT_INITIAL
        guess = {k: v * 1.10 for k, v in FIT_TRUTH.items()}
    else:
        fit_truth, fit_y0 = truth, tuple(rng.uniform(0.2, 0.6) for _ in range(3))
        guess = dict(truth)
    series = _series(fit_truth, fit_y0, size["series_horizon"])
    sweep_param = rng.choice(oracle.PARAMS)
    n = size["sweep_n"]
    sweep_values = [truth[sweep_param] * (0.5 + k / (n - 1)) for k in range(n)]
    sweep_initial = tuple(round(rng.uniform(0.2, 0.6), 6) for _ in range(3))

    config = {
        "total_steps": size["steps"],
        "dt_per_step": DT,
        "inner_substeps": size["substeps"],
        "schedule": SCHEDULE,
        "threshold": THRESHOLD,
        "param_bounds": BOUNDS,
        "max_step": MAX_STEP,
        "initial": {"params": truth},
    }
    if name == "simulate_llm":
        config.update(
            policy_kind="llm",
            llm={"endpoint": llm_endpoint, "model": "stub", "timeout": 30.0, "retries": 2},
            llm_concurrency=concurrency,
        )

    out = {k: os.path.join(workdir, k) for k in ("cal", "sweep", "sim", "met")}
    for d in out.values():
        os.makedirs(d, exist_ok=True)
    inp = {k: os.path.join(workdir, f"{k}.json") for k in ("roster", "config", "guess", "truth")}
    inp["series"] = os.path.join(workdir, "series.csv")
    for key, data in (("roster", roster), ("config", config), ("guess", guess), ("truth", truth)):
        _write_json(inp[key], data)
    with open(inp["series"], "w", encoding="utf-8") as fh:
        fh.write("t,G,C,M,F\n")
        for row in zip(series["times"], series["g"], series["c"], series["m"], series["f"]):
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    commands = [
        {
            "name": "calibrate",
            "argv": ["calibrate", "--obs", inp["series"], "--guess", inp["guess"],
                     "--out", out["cal"], "--max-iter", "2000", "--tol", "1e-10",
                     "--restarts", "0", "--seed", "0", "--dt", str(DT)],
            "outputs": [os.path.join(out["cal"], "fit.json")],
        },
        {
            "name": "sweep",
            "argv": ["sweep", "--parameter", sweep_param, "--values", ",".join(_fmt(v) for v in sweep_values),
                     "--params", inp["truth"], "--initial", ",".join(_fmt(v) for v in sweep_initial),
                     "--horizon", str(size["sweep_horizon"]), "--dt", str(DT), "--out", out["sweep"]],
            "outputs": [os.path.join(out["sweep"], "sweep.csv")],
        },
        {
            "name": "simulate",
            "argv": ["simulate", "--config", inp["config"], "--profiles", inp["roster"],
                     "--out", out["sim"]],
            "outputs": [os.path.join(out["sim"], "result.json"), os.path.join(out["sim"], "trajectories.csv")],
        },
        {
            "name": "metrics",
            "argv": ["metrics", "--result", os.path.join(out["sim"], "result.json"), "--groups", "auto",
                     "--out", out["met"]],
            "outputs": [os.path.join(out["met"], "metrics.json")],
        },
    ]
    for cmd in commands:
        cmd["repeat"] = REPEATS[name][cmd["name"]]
    return {
        "workload": name,
        "seed": seed,
        "commands": commands,
        "agents": size["agents"],
        "steps": size["steps"],
        "substeps": size["substeps"],
        "llm": name == "simulate_llm",
        "roster": roster,
        "truth": truth,
        "fit_truth": fit_truth,
        "guess": guess,
        "series": series,
        "sweep": {
            "parameter": sweep_param,
            "values": sweep_values,
            "initial": sweep_initial,
            "horizon": size["sweep_horizon"],
        },
    }
