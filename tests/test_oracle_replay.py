"""`simulate` replayed agent-step by agent-step with the benchmark's oracle.

bench/checks.py recomputes every coefficient update, RK4 advance, score and
threshold of a result.json from the inputs alone, in plain Python. Here
Hypothesis draws the inputs: rosters over every tier and risk, run lengths,
substep counts and coefficient sets around the benchmark's defaults, with
the benchmark's step, bounds, threshold and schedule and the stock starts.
"""

import json
import os
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from regflow.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _import_bench():
    """bench/checks.py and bench/workloads.py, imported without writing
    bytecode under bench/."""
    sys.path.insert(0, BENCH)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
    return checks, workloads


checks, workloads = _import_bench()

PROFILE = st.fixed_dictionaries({
    "resource_tier": st.sampled_from(workloads.TIERS),
    "risk_preference": st.sampled_from(workloads.RISKS),
    "ai_investment_fraction": st.floats(0.0, 1.0),
})
SCALES = st.lists(st.floats(0.5, 1.5), min_size=len(workloads.DEFAULT), max_size=len(workloads.DEFAULT))


@settings(max_examples=25, deadline=None)
@given(
    profiles=st.lists(PROFILE, min_size=1, max_size=30),
    steps=st.integers(1, 30),
    substeps=st.integers(1, 50),
    scales=SCALES,
)
def test_simulate_matches_the_oracle_replay(profiles, steps, substeps, scales):
    roster = [
        {"id": f"M{i:02d}", "name": f"Maker {i:02d}", "focus": "", **p} for i, p in enumerate(profiles)
    ]
    truth = {name: v * k for (name, v), k in zip(workloads.DEFAULT.items(), scales)}
    config = {
        "total_steps": steps,
        "dt_per_step": workloads.DT,
        "inner_substeps": substeps,
        "schedule": workloads.SCHEDULE,
        "threshold": workloads.THRESHOLD,
        "param_bounds": workloads.BOUNDS,
        "max_step": workloads.MAX_STEP,
        "initial": {"params": truth},
    }
    plan = {"roster": roster, "steps": steps, "substeps": substeps, "truth": truth, "llm": False}
    with tempfile.TemporaryDirectory() as work:
        paths = {name: os.path.join(work, f"{name}.json") for name in ("roster", "config")}
        for name, data in (("roster", roster), ("config", config)):
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        argv = ["simulate", "--config", paths["config"], "--profiles", paths["roster"], "--out", work]
        assert main(argv) == 0
        with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        problems, fallbacks = checks.check_simulation(plan, result, os.path.join(work, "trajectories.csv"))
    assert problems == []
    assert fallbacks == 0
