"""Benchmark of the regflow CLI, end to end and per module.

    python3 bench/run.py --workload simulate_rk4 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The run builds the workload's inputs from the seed, times a fresh
interpreter up to a ready CLI (setup_s), runs the workload's rounds in one
worker process, checks the outputs against the oracle, and prints one JSON
line: the end-to-end metrics with --trace 0, or with --trace 1 the
per-layer metrics of one extra traced round. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
MIN_TIMED_ROUNDS = 3
#: Time the worker may take beyond --seconds: set-up, warm-up and traced rounds.
WORKER_MARGIN_S = 120
SETUP_CODE = "import regflow.cli as cli; cli.build_parser()"


def _env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") if env.get("PYTHONPATH") else src
    return env


def measure_setup(src: str) -> float:
    """Median time, at a fixed host speed (see speed.py), of a fresh
    interpreter importing regflow.cli and building its parser."""
    clock = speed.Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        # No timeout: with one, Popen.wait polls every 50 ms and the time
        # comes out in 50 ms steps.
        times.append(clock.timed(subprocess.run, [sys.executable, "-c", SETUP_CODE], env=_env(src), check=True)[2])
    return statistics.median(times)


class Stub:
    """The chat-completions stub, running as a child process."""

    def __init__(self, workdir: str):
        self._log = open(os.path.join(workdir, "stub.err"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py")],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        port = int(self.proc.stdout.readline())
        self.endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"
        self.stats_url = f"http://127.0.0.1:{port}/stats"

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def run_worker(plan: dict, workdir: str, src: str) -> dict:
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    with open(os.path.join(workdir, "worker.err"), "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            env=_env(src), stdout=subprocess.DEVNULL, stderr=err, timeout=plan["seconds"] + WORKER_MARGIN_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see {err.name}")
    with open(plan["report"], encoding="utf-8") as fh:
        return json.load(fh)


def command_s(report: dict, command: str) -> float:
    """Median time at a fixed host speed of one command's timed calls."""
    return statistics.median(
        t for r in report["rounds"] if r["kind"] == "timed" for t in r["fixed_speed"][command])


def end_to_end(plan: dict, report: dict, setup_s: float) -> dict:
    agent_steps = plan["agents"] * plan["steps"]
    return {
        "setup_s": (setup_s, "s"),
        "agent_steps_per_s": (agent_steps / command_s(report, "simulate"), "agent-steps/s"),
        "metrics_s": (command_s(report, "metrics"), "s"),
        "calibrate_s": (command_s(report, "calibrate"), "s"),
        "sweep_s": (command_s(report, "sweep"), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(plan: dict, report: dict, spans: list) -> dict:
    s = tracing.summarize(spans)
    by = s["by_name"]

    def total(name):
        return by.get(name, {}).get("total", 0.0)

    def count(name):
        return by.get(name, {}).get("count", 0)

    roots = {spans[i][0]: i for i in s["roots"]}
    run_s = total("simulation.run")
    advance_calls = count("dynamics.advance")
    fit_root = roots["cli.calibrate"]
    evals = len(tracing.descendants_named(spans, fit_root, "dynamics.integrate_raw"))
    fit_s = total("calibration.fit")
    load = roots["cli.metrics"]
    result_load = sum(spans[i][2] - spans[i][1] for i in tracing.descendants_named(spans, load, "cli.load_json"))
    result_load += total("simulation.result_from_json")
    trips = [1000.0 * d for d in by.get("agents.llm_round_trip", {}).get("durations", [])]
    traced = next(r for r in report["rounds"] if r["kind"] == "traced")
    timed = [r for r in report["rounds"] if r["kind"] == "timed"]
    stub = (
        {k: traced["stub"][k] - timed[-1]["stub"][k] for k in ("requests", "connections")}
        if plan["llm"] else {"requests": 0, "connections": 0}
    )
    fit = _read_json(_output(plan, "calibrate", 0))
    agent_steps = plan["agents"] * plan["steps"]
    names = [c["name"] for c in plan["commands"]]
    traced_s = sum(traced["fixed_speed"][n][0] for n in names)
    out = {
        "dynamics.advance_s": (total("dynamics.advance"), "s"),
        "dynamics.rk4_substep_ns": (1e9 * total("dynamics.advance") / (advance_calls * plan["substeps"]), "ns"),
        "dynamics.advance_calls": (advance_calls, "count"),
        "dynamics.integrate_s": (total("dynamics.integrate"), "s"),
        "dynamics.integrate_calls": (count("dynamics.integrate"), "count"),
        "agents.rule_decide_s": (total("agents.rule_decide"), "s"),
        "agents.apply_adjustments_s": (total("agents.apply_adjustments"), "s"),
        "agents.render_prompt_s": (total("agents.render_prompt"), "s"),
        "agents.parse_reply_s": (total("agents.parse_reply"), "s"),
        "agents.llm_round_trip_ms": (statistics.median(trips) if trips else 0.0, "ms"),
        "agents.llm_round_trip_p93_ms": (
            statistics.quantiles(trips, n=100, method="inclusive")[92] if trips else 0.0, "ms"),
        "agents.llm_requests": (stub["requests"], "count"),
        "agents.llm_connections": (stub["connections"], "count"),
        "agents.llm_requests_per_connection": (
            stub["requests"] / stub["connections"] if stub["connections"] else 0.0, "ratio"),
        "brr.score_s": (total("brr.score"), "s"),
        "simulation.run_s": (run_s, "s"),
        "simulation.engine_self_s": (by.get("simulation.run", {}).get("self", 0.0), "s"),
        "simulation.llm_overlap": (total("agents.llm_decide") / run_s, "ratio"),
        "simulation.to_json_dict_s": (total("simulation.to_json_dict"), "s"),
        "simulation.write_json_s": (total("simulation.write_json") - total("simulation.to_json_dict"), "s"),
        "simulation.write_csv_s": (total("simulation.write_csv"), "s"),
        "simulation.json_bytes_per_agent_step": (os.path.getsize(_output(plan, "simulate", 0)) / agent_steps, "B"),
        "simulation.csv_bytes_per_agent_step": (os.path.getsize(_output(plan, "simulate", 1)) / agent_steps, "B"),
        "simulation.result_load_s": (result_load, "s"),
        "analysis.metrics_report_s": (total("analysis.metrics_report"), "s"),
        "analysis.welch_s": (total("analysis.welch"), "s"),
        "analysis.sweep_s": (total("analysis.sweep"), "s"),
        "calibration.fit_s": (fit_s, "s"),
        "calibration.objective_ms": (1000.0 * fit_s / evals, "ms"),
        "calibration.fit_iterations": (fit["iterations"], "count"),
        "calibration.objective_evals": (evals, "count"),
        "calibration.restarts_used": (fit["restarts_used"], "count"),
        "trace_overhead": (traced_s / sum(command_s(report, n) for n in names) - 1.0, "ratio"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (s["self"][layer], "s")
    return out


def _output(plan: dict, command: str, index: int) -> str:
    return next(c["outputs"][index] for c in plan["commands"] if c["name"] == command)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regflow benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the worker and the stub are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "regflow", "cli.py")):
        print(f"no regflow sources under {src}; run from the root of a regflow checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    setup_s = measure_setup(src)
    stub = Stub(workdir) if args.workload == "simulate_llm" else None
    try:
        concurrency = min(2, len(os.sched_getaffinity(0)))
        plan = workloads.build(
            args.workload, args.seed, workdir, stub and stub.endpoint, concurrency)
        plan.update(
            src=src, seconds=args.seconds, min_rounds=MIN_TIMED_ROUNDS, trace=bool(args.trace),
            stats_url=stub and stub.stats_url, log=os.path.join(workdir, "worker.out"),
            report=os.path.join(workdir, "report.json"), spans=os.path.join(workdir, "spans.json"),
        )
        report = run_worker(plan, workdir, src)
    finally:
        if stub is not None:
            stub.close()

    rounds = report["rounds"]
    succeeded = {name for name, codes in rounds[-1]["codes"].items() if not any(codes)}
    problems, facts = checks.check_round(plan, succeeded)
    digests = {json.dumps(r["hashes"], sort_keys=True) for r in rounds}
    if len(digests) != 1:
        problems.append("rounds of the same commands wrote different bytes")
    decisions = plan["agents"] * plan["steps"] if plan["llm"] else 0
    simulations = sum(len(r["codes"]["simulate"]) for r in rounds)
    if plan["llm"]:
        served = rounds[-1]["stub"]["requests"] - report["stub_before"]["requests"]
        if served != decisions * simulations:
            problems.append(f"stub served {served} requests for {decisions * simulations} decisions")
    calls = [code for r in rounds for codes in r["codes"].values() for code in codes]
    attempted = len(calls) + decisions * simulations
    failed = sum(1 for code in calls if code != 0) + facts["fallbacks"] * simulations
    if not facts["recovered"]:
        failed += sum(len(r["codes"]["calibrate"]) for r in rounds)

    if args.trace:
        metrics = per_layer(plan, report, _read_json(plan["spans"]))
        if metrics["dynamics.advance_calls"][0] != plan["agents"] * plan["steps"]:
            problems.append("traced advance calls differ from agents x steps")
    else:
        metrics = end_to_end(plan, report, setup_s)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
