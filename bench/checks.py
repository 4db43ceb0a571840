"""Checks of one round's outputs against the oracle and the known inputs.

Each check function returns a list of problems (empty when the output is
correct) plus, where the output also decides whether an operation failed,
the count of failed operations it found. Nothing here compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math

import oracle
import stub
import workloads

REL = 1e-9
ABS = 1e-12


def _close(a: float, b: float, rel: float = REL, abs_: float = ABS) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def _default_initial(ids: list[str]) -> dict:
    """The CLI's stock start: staggered by each agent's sorted position."""
    return {aid: (0.5, 0.4 + 0.01 * i, 0.3 + 0.02 * i) for i, aid in enumerate(sorted(ids))}


def check_simulation(plan: dict, result: dict, csv_path: str) -> tuple[list[str], int]:
    """Replay every agent-step with the oracle. Returns (problems, fallbacks)."""
    problems: list[str] = []
    roster = {p["id"]: p for p in plan["roster"]}
    ids = sorted(roster)
    cfg = result["config"]
    for key, want in (("total_steps", plan["steps"]), ("inner_substeps", plan["substeps"]),
                      ("dt_per_step", workloads.DT), ("max_step", workloads.MAX_STEP)):
        if cfg[key] != want:
            problems.append(f"config {key}={cfg[key]!r}, expected {want!r}")
    if result["profiles"] != [roster[a] for a in ids]:
        problems.append("profiles differ from the roster")
    if len(result["records"]) != plan["steps"]:
        return problems + [f"{len(result['records'])} records, expected {plan['steps']}"], 0

    thr = workloads.THRESHOLD
    sched = workloads.SCHEDULE
    period = sched["strict_steps"] + sched["lenient_steps"]
    substeps = plan["substeps"]
    dt = workloads.DT
    params = {a: dict(plan["truth"]) for a in ids}
    start = _default_initial(ids)
    state = {a: (0.0,) + start[a] for a in ids}
    last_approved = {a: True for a in ids}
    window: list[float] = []
    clamps = 0
    fallbacks = 0
    for t, rec in enumerate(result["records"]):
        strict = t % period < sched["strict_steps"]
        if rec["step"] != t or rec["phase"] != ("strict" if strict else "lenient"):
            problems.append(f"step {t}: step/phase {rec['step']}/{rec['phase']}")
        threshold = oracle.threshold(thr["base"], thr["kappa"], thr["floor"], thr["ceiling"], window)
        if rec["threshold"] != threshold:
            problems.append(f"step {t}: threshold {rec['threshold']!r}, oracle {threshold!r}")
        step_brrs = []
        fsum = 0.0
        for a in ids:
            ar = rec["agents"][a]
            where = f"step {t} agent {a}"
            dec = ar["decision"]
            if dec["fallback"] is not None:
                fallbacks += 1
            elif plan["llm"]:
                want = stub.decision_for(roster[a]["resource_tier"], strict, last_approved[a])
                sub = dec["submission"]
                got = {k: sub[k] for k in ("safety", "effectiveness", "compliance", "adverse")}
                if dec["adjustments"] != want["adjustments"] or any(got[k] != want[k] for k in got):
                    problems.append(f"{where}: decision differs from the stub's reply")
            for name, delta in dec["adjustments"].items():
                if abs(delta) > workloads.MAX_STEP + 1e-15:
                    problems.append(f"{where}: adjustment {name}={delta} exceeds max_step")
                lo, hi = workloads.BOUNDS[name]
                params[a][name] = min(max(params[a][name] + delta, lo), hi)
            if any(not _close(ar["params"][k], params[a][k]) for k in oracle.PARAMS):
                problems.append(f"{where}: coefficients differ from the bounded update")
            p = ar["params"]
            t0, *y0 = state[a]
            y, f, cost, n = oracle.advance(p, t0, tuple(y0), dt, substeps)
            clamps += n
            s = ar["state"]
            if not (_close(s["t"], t0 + dt) and all(_close(s[k], y[i]) for i, k in enumerate("gcm"))):
                problems.append(f"{where}: state {s} differs from oracle RK4 {y}")
            if not _close(ar["f"], f) or not _close(ar["compliance_cost"], cost):
                problems.append(f"{where}: F/cost {ar['f']}/{ar['compliance_cost']} vs oracle {f}/{cost}")
            if ar["market_adaptation"] != s["m"]:
                problems.append(f"{where}: market_adaptation is not M")
            state[a] = (s["t"], s["g"], s["c"], s["m"])
            params[a] = dict(p)
            fsum += ar["f"]
            if dec["comply"]:
                sub = dec["submission"]
                scores = [sub[k] for k in ("safety", "effectiveness", "compliance", "adverse")]
                if any(not (isinstance(v, int) and 1 <= v <= 10) for v in scores):
                    problems.append(f"{where}: scores {scores} outside 1..10")
                    continue
                ratio = oracle.brr(*scores)
                if ar["brr"] != ratio or ar["approved"] != (ratio >= threshold):
                    problems.append(f"{where}: brr/approved {ar['brr']}/{ar['approved']}, oracle {ratio}")
                last_approved[a] = ratio >= threshold
                step_brrs.append(ratio)
            elif ar["brr"] is not None or ar["approved"] is not None:
                problems.append(f"{where}: scored without a submission")
        if not _close(rec["mean_feedback"], fsum / len(ids)):
            problems.append(f"step {t}: mean_feedback is not the agents' mean F")
        window = (window + step_brrs)[-thr["window"]:]
    if result["clamp_events"] != clamps:
        problems.append(f"clamp_events {result['clamp_events']}, oracle {clamps}")
    if result["llm_fallbacks"] != fallbacks:
        problems.append(f"llm_fallbacks {result['llm_fallbacks']}, decisions say {fallbacks}")
    problems += _check_csv(result, csv_path)
    return problems[:20], fallbacks


def _check_csv(result: dict, path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["step", "agent", "G", "C", "M", "F", "brr", "approved", "threshold", "cost", "adaptation"]:
        return [f"CSV header {rows[0]}"]
    expected = []
    for rec in result["records"]:
        for a in sorted(rec["agents"]):
            ar = rec["agents"][a]
            expected.append([
                rec["step"], a, ar["state"]["g"], ar["state"]["c"], ar["state"]["m"], ar["f"],
                ar["brr"], ar["approved"], rec["threshold"], ar["compliance_cost"], ar["market_adaptation"],
            ])
    if len(rows) - 1 != len(expected):
        return [f"CSV has {len(rows) - 1} rows, JSON {len(expected)} agent-steps"]
    for row, want in zip(rows[1:], expected):
        got = [int(row[0]), row[1]] + [float(v) for v in row[2:6]]
        got += [None if row[6] == "" else float(row[6]), {"": None, "true": True, "false": False}[row[7]]]
        got += [float(v) for v in row[8:]]
        if got != want:
            return [f"CSV row {row[:2]} differs from result.json"]
    return []


def check_metrics(result: dict, metrics: dict) -> list[str]:
    problems = []
    records = result["records"]
    ids = sorted(records[0]["agents"])
    eps = metrics["epsilon"]
    for a in ids:
        c = [r["agents"][a]["state"]["c"] for r in records]
        g = [r["agents"][a]["state"]["g"] for r in records]
        rep = metrics["per_agent"][a]
        if rep["adherence_accuracy"] != oracle.adherence(c, g, eps):
            problems.append(f"{a}: adherence {rep['adherence_accuracy']}")
        if not _close(rep["compliance_stability"], oracle.population_variance(c), 1e-9, 1e-15):
            problems.append(f"{a}: stability {rep['compliance_stability']}")
        if not _close(rep["mean_compliance"], sum(c) / len(c)):
            problems.append(f"{a}: mean compliance {rep['mean_compliance']}")
    tiers: dict[str, list[str]] = {}
    for prof in result["profiles"]:
        tiers.setdefault(prof["resource_tier"], []).append(prof["id"])
    groups = {k: sorted(v) for k, v in sorted(tiers.items())}
    if metrics["groups"]["members"] != groups:
        return problems + ["groups are not the resource tiers"]
    terminal = records[-1]["agents"]
    f, df2 = oracle.welch([[terminal[a]["market_adaptation"] for a in m] for m in groups.values()])
    w = metrics["groups"]["welch_anova"]
    if w["df1"] != len(groups) - 1 or not _close(w["f_stat"], f, 1e-8) or not _close(w["df2"], df2, 1e-8):
        problems.append(f"Welch F({w['df1']}, {w['df2']})={w['f_stat']}, oracle F(., {df2})={f}")
    return problems


def check_fit(plan: dict, fit: dict) -> tuple[list[str], bool]:
    """Returns (problems, recovered)."""
    s = plan["series"]
    args = (s["times"], s["g"], s["c"], s["m"], s["f"], workloads.DT)
    problems = []
    got = fit["params"]
    at_fit = oracle.residual_sum(got, *args)
    at_guess = oracle.residual_sum(plan["guess"], *args)
    if not _close(fit["objective"], at_fit, 1e-8, 1e-20):
        problems.append(f"objective {fit['objective']!r}, oracle residual sum {at_fit!r}")
    if fit["objective"] > at_guess * (1 + 1e-9) + 1e-20:
        problems.append(f"objective {fit['objective']!r} exceeds the guess's {at_guess!r}")
    if not _close(sum(fit["components"].values()), fit["objective"]):
        problems.append("objective is not the sum of its components")
    for k in oracle.PARAMS:
        lo, hi = workloads.BOUNDS[k]
        if not lo <= got[k] <= hi:
            problems.append(f"{k}={got[k]} outside its bounds")
    error = max(abs(got[k] - plan["fit_truth"][k]) for k in oracle.PARAMS)
    return problems, error <= workloads.RECOVERY_TOL


def check_sweep(plan: dict, path: str) -> list[str]:
    sw = plan["sweep"]
    base = plan["truth"]
    steps = oracle.step_count(sw["horizon"], workloads.DT)

    def terminal(p):
        y = oracle.integrate(p, 0.0, tuple(sw["initial"]), steps, workloads.DT)[-1]
        return y + (oracle.feedback(p, y[1], y[2]),)

    ref = terminal(base)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(sw["values"]):
        return [f"sweep.csv has {len(rows)} rows for {len(sw['values'])} values"]
    problems = []
    for row, value in zip(rows, sw["values"]):
        out = terminal(dict(base, **{sw["parameter"]: value}))
        got = [float(v) for v in row[2:]]
        want_rates = [math.nan if r == 0.0 else (o - r) / abs(r) for o, r in zip(out, ref)]
        if row[0] != sw["parameter"] or float(row[1]) != value:
            problems.append(f"sweep row {row[:2]} is not {sw['parameter']}={value}")
        if not all(_close(a, b) for a, b in zip(got[:4], out)):
            problems.append(f"sweep {sw['parameter']}={value}: outputs {got[:4]}, oracle {out}")
        for a, b in zip(got[4:], want_rates):
            if not (math.isnan(a) and math.isnan(b)) and not _close(a, b, 1e-7, 1e-9):
                problems.append(f"sweep {sw['parameter']}={value}: rate {a}, oracle {b}")
    return problems


def check_round(plan: dict, succeeded: set[str]) -> tuple[list[str], dict]:
    """Check the outputs the last round left, for the commands in
    `succeeded`. Returns (problems, facts)."""
    out = {c["name"]: c["outputs"] for c in plan["commands"]}
    problems: list[str] = []
    facts = {"fallbacks": 0, "recovered": True}
    if "simulate" in succeeded:
        with open(out["simulate"][0], encoding="utf-8") as fh:
            result = json.load(fh)
        found, facts["fallbacks"] = check_simulation(plan, result, out["simulate"][1])
        problems += found
        if "metrics" in succeeded:
            with open(out["metrics"][0], encoding="utf-8") as fh:
                problems += check_metrics(result, json.load(fh))
    if "calibrate" in succeeded:
        with open(out["calibrate"][0], encoding="utf-8") as fh:
            found, facts["recovered"] = check_fit(plan, json.load(fh))
        problems += found
    if "sweep" in succeeded:
        problems += check_sweep(plan, out["sweep"][0])
    return problems, facts
