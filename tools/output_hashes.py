"""The sha256 of every output of a fixed set of regflow commands.

    python3 tools/output_hashes.py [--root CHECKOUT] > hashes.json
    python3 tools/output_hashes.py --diff BASE.json HEAD.json

The first form runs, with the package from CHECKOUT/src (default: this
checkout), the CLI's default commands at seed 1 and one round of each of
the four benchmark workloads at seed 1, and prints {output: sha256} as
sorted JSON. The default commands are
`simulate --seed 1`, `metrics --groups auto` on its result, `sweep`,
`corpus print`, and `calibrate` on a noise-free series that the package
writes first (its obs.csv is hashed too). Two more runs reach the RK4
kernel's rarer time-term paths: `calibrate` on the same series shifted to
start at t = -2.0, and a 5,000-step `sweep` of phi1. One `simulate --policy scripted`
run of the default roster follows a script, written by this tool, in which
every other agent-step abstains (no submission, so a null approval and
ratio). The workload inputs come from
this checkout's bench/workloads.build, whichever checkout runs them, so
two checkouts are compared on the same inputs. simulate_llm runs against
this checkout's bench/stub.py, started as a child process on an ephemeral
port; its endpoint URL is replaced by a fixed placeholder in every output
before hashing.

The second form exits 1 when an output's hash differs between two such
files, or is missing from one, unless the output is listed, one name a
line, in tools/expected_changes.txt; and when a listed output did not
change, so that the list names exactly the outputs a change meant to
change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected_changes.txt")

WORKLOADS = ("simulate_rk4", "simulate_audit", "simulate_llm", "fit_sweep")
SEED = 1
ENDPOINT_PLACEHOLDER = b"http://stub/v1/chat/completions"

CLI = "import sys; from regflow.cli import main; sys.exit(main(sys.argv[1:]))"
# the series of the CI bare-install check, and the same series from t = -2.0
OBS = """
from dataclasses import replace
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.dynamics import DEFAULT_PARAMETERS, SystemState
truth = DEFAULT_PARAMETERS.replace(alpha1=0.6, beta2=0.3, phi4=0.9)
obs = generate_synthetic(truth, SystemState(0.0, 0.4, 0.3, 0.2), 3.0, 0.05, 2, 0.0, 0)
write_series_csv(obs, "default/obs.csv")
write_series_csv(replace(obs, times=[t - 2.0 for t in obs.times]), "time_terms/obs.csv")
"""
DEFAULT_COMMANDS = (
    ["simulate", "--seed", "1", "--out", "default"],
    ["metrics", "--result", "default/result.json", "--groups", "auto", "--out", "default"],
    ["sweep", "--parameter", "alpha1", "--values", "0.25,0.5,1", "--out", "default"],
    ["calibrate", "--obs", "default/obs.csv", "--max-iter", "50", "--out", "default"],
)
DEFAULT_OUTPUTS = (
    "obs.csv", "result.json", "trajectories.csv", "metrics.json", "sweep.csv", "fit.json", "corpus.json",
)
# a calibration from a negative start time, whose time terms take the
# guarded exp, and a phi1 sweep of 5,000 steps per value, past
# dynamics._TERMS_STEPS, so its time terms are never kept
TIME_TERM_COMMANDS = (
    ["calibrate", "--obs", "time_terms/obs.csv", "--max-iter", "50", "--out", "time_terms"],
    ["sweep", "--parameter", "phi1", "--values", "0.3,0.6,0.9", "--horizon", "250", "--out", "time_terms"],
)
TIME_TERM_OUTPUTS = ("obs.csv", "fit.json", "sweep.csv")
SCRIPTED_STEPS = 12
# the default roster's ids; agent i abstains at step t when t + i is odd
SCRIPT = [
    {
        "step": t,
        "agent": aid,
        "decision": {
            "comply": False,
            "rationale": "hold",
            "warnings": ["score 11 clipped to 10"],
        } if (t + i) % 2 else {
            "comply": True,
            "adjustments": {"alpha1": 0.01 * (i % 3), "phi2": -0.02},
            "submission": {
                "agent_id": aid, "safety": 3 + i % 7, "effectiveness": 6, "compliance": 8, "adverse": 1 + t % 5,
                "regulation_ids": ["R1"],
            },
            "rationale": "file",
        },
    }
    for t in range(SCRIPTED_STEPS)
    for i, aid in enumerate("ABCDEFGHIJ")
]
SCRIPTED_COMMAND = [
    "simulate", "--policy", "scripted", "--script", "scripted/script.json", "--steps", str(SCRIPTED_STEPS),
    "--seed", "1", "--out", "scripted",
]


def _python(root: str, args: list[str], stdout=subprocess.DEVNULL) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{args[2:] or 'writing obs.csv'} exited {proc.returncode}:\n{proc.stderr}")


def _sha256(path: str, endpoint: str | None = None) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if endpoint is not None:
        data = data.replace(endpoint.encode(), ENDPOINT_PLACEHOLDER)
    return hashlib.sha256(data).hexdigest()


def _start_stub() -> tuple[subprocess.Popen, str]:
    """bench/stub.py as a child process, and its chat-completions endpoint."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(REPO, "bench", "stub.py")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        port = int(proc.stdout.readline())
    except ValueError:
        _stop(proc)
        raise SystemExit("bench/stub.py did not print its port")
    return proc, f"http://127.0.0.1:{port}/v1/chat/completions"


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def output_hashes(root: str) -> dict[str, str]:
    """Run every command with root's package, in a fresh directory whose
    paths are all relative, and hash what each writes."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, os.path.join(REPO, "bench"))
    import workloads

    hashes = {}
    cwd = os.getcwd()
    stub = None
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            os.makedirs("default")
            os.makedirs("time_terms")
            _python(root, ["-c", OBS])
            for argv in DEFAULT_COMMANDS:
                _python(root, ["-c", CLI, *argv])
            with open("default/corpus.json", "w", encoding="utf-8") as fh:
                _python(root, ["-c", CLI, "corpus", "print"], stdout=fh)
            for name in DEFAULT_OUTPUTS:
                hashes[f"default/{name}"] = _sha256(f"default/{name}")
            for argv in TIME_TERM_COMMANDS:
                _python(root, ["-c", CLI, *argv])
            for name in TIME_TERM_OUTPUTS:
                hashes[f"time_terms/{name}"] = _sha256(f"time_terms/{name}")
            os.makedirs("scripted")
            with open("scripted/script.json", "w", encoding="utf-8") as fh:
                json.dump(SCRIPT, fh)
            _python(root, ["-c", CLI, *SCRIPTED_COMMAND])
            for name in ("result.json", "trajectories.csv"):
                hashes[f"scripted/{name}"] = _sha256(f"scripted/{name}")
            stub, endpoint = _start_stub()
            for name in WORKLOADS:
                llm = endpoint if name == "simulate_llm" else None
                plan = workloads.build(name, SEED, name, llm, 1)
                for cmd in plan["commands"]:
                    _python(root, ["-c", CLI, *cmd["argv"]])
                    for path in cmd["outputs"]:
                        hashes[path.replace(os.sep, "/")] = _sha256(path, llm)
        finally:
            if stub is not None:
                _stop(stub)
            os.chdir(cwd)
    return hashes


def diff(base_path: str, head_path: str, expected_path: str = EXPECTED) -> int:
    """1 when an output not listed in expected_path changed or a listed one
    did not, else 0."""
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(head_path, encoding="utf-8") as fh:
        head = json.load(fh)
    with open(expected_path, encoding="utf-8") as fh:
        expected = {line.strip() for line in fh if line.strip()}
    changed = sorted(name for name in base.keys() | head.keys() if base.get(name) != head.get(name))
    for name in changed:
        print(f"{name}: {base.get(name)} -> {head.get(name)}{' (expected)' if name in expected else ''}")
    unexpected = [name for name in changed if name not in expected]
    stale = sorted(expected.difference(changed))
    if unexpected:
        print(f"{len(unexpected)} output(s) changed; list each intended change in tools/expected_changes.txt")
    if stale:
        print(f"listed but unchanged, remove from tools/expected_changes.txt: {', '.join(stale)}")
    if unexpected or stale:
        return 1
    print(f"{len(base.keys() | head.keys())} outputs compared; {len(changed)} changed, each one listed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=REPO, help="checkout whose src/ runs the commands")
    parser.add_argument("--diff", nargs=2, metavar=("BASE", "HEAD"), help="compare two hash files")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    print(json.dumps(output_hashes(os.path.abspath(args.root)), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
