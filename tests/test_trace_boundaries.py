"""Every regflow attribute that the benchmark's tracer wraps exists, and a
traced round counts what bench/run.py divides by or checks.

bench/tracing.py replaces module attributes by name for one traced round.
Renaming or deleting one of them, or calling one a different number of
times, breaks only `bench/run.py --trace 1`, so these tests read the
tracer's table and run a small traced round through it.
"""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import regflow.simulation as simulation
from regflow.agents import DEFAULT_PROFILES, ClientConfig
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.cli import main
from regflow.corpus import build_default_corpus
from regflow.dynamics import DEFAULT_PARAMETERS, SystemState
from regflow.simulation import SimulationConfig, default_initial

from llm_stub import StubLLMServer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
CORPUS = build_default_corpus()


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the "requests" entry names a library regflow no longer calls
REGFLOW_BOUNDARIES = [(module, attr) for module, attr, _ in _tracing().BOUNDARIES if module.startswith("regflow.")]


def test_the_table_names_regflow_attributes():
    assert REGFLOW_BOUNDARIES


@pytest.mark.parametrize("module, attr", REGFLOW_BOUNDARIES, ids=[f"{m}.{a}" for m, a in REGFLOW_BOUNDARIES])
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"bench/tracing.py wraps {module}.{attr}, which is gone"


def test_a_traced_round_counts_what_the_benchmark_divides_by(tmp_path, monkeypatch):
    agents, steps = 6, 3
    tiers = ("limited", "medium", "rich")
    roster = [{"id": f"M{i}", "name": f"Maker {i}", "resource_tier": tiers[i % 3]} for i in range(agents)]
    (tmp_path / "roster.json").write_text(json.dumps(roster))
    (tmp_path / "config.json").write_text(json.dumps({"total_steps": steps, "inner_substeps": 2}))
    obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
    write_series_csv(obs, tmp_path / "obs.csv")

    tracing = _tracing()
    # only the regflow entries: the "requests" one would import a library
    # that is not a dependency
    monkeypatch.setattr(tracing, "BOUNDARIES", tuple(b for b in tracing.BOUNDARIES if b[0].startswith("regflow.")))
    tracer = tracing.Tracer()
    # root spans named as bench/worker.py names them
    tracer.install()
    try:
        codes = [
            tracer.span("cli.simulate", main, [
                "simulate", "--config", str(tmp_path / "config.json"), "--profiles", str(tmp_path / "roster.json"),
                "--out", str(tmp_path / "sim"),
            ]),
            tracer.span("cli.calibrate", main, [
                "calibrate", "--obs", str(tmp_path / "obs.csv"), "--max-iter", "3", "--out", str(tmp_path / "cal"),
            ]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]

    summary = tracing.summarize(tracer.spans)
    counts = {name: entry["count"] for name, entry in summary["by_name"].items()}
    assert counts["dynamics.advance"] == agents * steps
    assert counts["simulation.write_json"] == 1
    assert counts["simulation.write_csv"] == 1
    roots = {tracer.spans[i][0]: i for i in summary["roots"]}
    assert tracing.descendants_named(tracer.spans, roots["cli.calibrate"], "dynamics.integrate_raw")


LLM_REPLY = json.dumps({
    "comply": True, "adjustments": {"alpha2": 0.015}, "safety": 8, "effectiveness": 7, "compliance": 9,
    "adverse": 4, "rationale": "stub decision",
})


@pytest.mark.parametrize("policy", ["rule", "scripted", "llm"])
def test_every_agent_step_calls_advance_once(monkeypatch, policy):
    """bench/run.py marks a traced round incorrect unless the traced
    regflow.simulation.advance calls equal agents x steps, under every
    policy: the engine calls the module attribute once per agent-step,
    however many agent-steps share one decision."""
    profiles = list(DEFAULT_PROFILES)[:5]
    initial = default_initial(profiles)
    config = SimulationConfig(total_steps=7, inner_substeps=2)
    calls = []
    advance = simulation.advance
    monkeypatch.setattr(simulation, "advance", lambda *args: calls.append(args[0]) or advance(*args))
    if policy == "rule":
        result = simulation.run(config, profiles, initial, CORPUS)
    elif policy == "scripted":
        # the rule policy's decisions, each serving several agent-steps
        script = simulation.extract_script(simulation.run(config, profiles, initial, CORPUS))
        assert len({id(decision) for decision in script.values()}) < len(script)
        calls.clear()
        result = simulation.run_scripted(
            dataclasses.replace(config, policy_kind="scripted"), profiles, initial, CORPUS, script
        )
    else:
        with StubLLMServer(behavior="reply", reply_content=LLM_REPLY) as server:
            llm = ClientConfig(endpoint=server.url, model="stub", timeout=5.0, retries=1)
            result = simulation.run(
                dataclasses.replace(config, policy_kind="llm", llm=llm, llm_concurrency=2),
                profiles, initial, CORPUS,
            )
            assert server.hits == len(profiles) * config.total_steps
        assert result.llm_fallbacks == 0
    assert len(calls) == len(profiles) * config.total_steps
    # each call advances the state that the agent's previous step recorded
    previous = {aid: state for aid, (_, state) in initial.items()}
    steps = iter(calls)
    for rec in result.records:
        for aid, ar in rec.agents.items():
            assert next(steps) is previous[aid]
            previous[aid] = ar.state
