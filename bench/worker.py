"""Runs one workload's rounds in a single process and times each command.

    python3 bench/worker.py PLAN.json

Each command is `regflow.cli.main(argv)`, called in-process so that the
interpreter start-up is measured once, as setup_s, and not once per
command; a round runs each command the plan's `repeat` times. One untimed
warm-up round comes first; timed rounds then repeat until the plan's
seconds have passed (at least `min_rounds`). When the plan asks for a
trace, one more round runs with the tracer installed for the first call of
each command, and its spans are written out. The timings, exit codes, output hashes and stub
counters of every round go to the plan's `report` file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import urllib.request

import speed
import tracing


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _stub_counts(url: str | None) -> dict | None:
    if url is None:
        return None
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _call(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is the CLI's exit status 1
        traceback.print_exc()
        return 1


def _round(main, plan: dict, kind: str, tracer=None) -> dict:
    """Run every command of the plan `repeat` times, recording each call's
    wall time, its time at a fixed host speed (see speed.py) and its exit
    code. With a tracer, the first call of each command is traced."""
    clock = speed.Clock()
    seconds, fixed, codes = {}, {}, {}
    for cmd in plan["commands"]:
        name = cmd["name"]
        seconds[name], fixed[name], codes[name] = [], [], []
        for i in range(cmd["repeat"]):
            if tracer is None or i > 0:
                code, wall, at_speed = clock.timed(_call, main, cmd["argv"])
            else:
                tracer.install()
                try:
                    code, wall, at_speed = clock.timed(tracer.span, f"cli.{name}", _call, main, cmd["argv"])
                finally:
                    tracer.uninstall()
            seconds[name].append(wall)
            fixed[name].append(at_speed)
            codes[name].append(code)
    return {
        "kind": kind,
        "seconds": seconds,
        "fixed_speed": fixed,
        "codes": codes,
        "hashes": {p: _digest(p) for cmd in plan["commands"] for p in cmd["outputs"]},
        "stub": _stub_counts(plan["stats_url"]),
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import regflow.cli

    if not os.path.abspath(regflow.cli.__file__).startswith(plan["src"] + os.sep):
        print(f"regflow imported from {regflow.cli.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    cli_main = regflow.cli.main

    report = {"stub_before": _stub_counts(plan["stats_url"]), "rounds": []}
    with open(plan["log"], "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        report["rounds"].append(_round(cli_main, plan, "warmup"))
        started = time.perf_counter()
        timed = 0
        while timed < plan["min_rounds"] or time.perf_counter() - started < plan["seconds"]:
            report["rounds"].append(_round(cli_main, plan, "timed"))
            timed += 1
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if plan["trace"]:
            tracer = tracing.Tracer()
            report["rounds"].append(_round(cli_main, plan, "traced", tracer))
            tracer.write(plan["spans"])

    with open(plan["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
