"""End-to-end llm-policy simulation runs against the local stub."""

import concurrent.futures
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import regflow.simulation as simulation
from regflow.agents import ClientConfig, DEFAULT_PROFILES
from regflow.corpus import build_default_corpus
from regflow.errors import ArgumentError
from regflow.simulation import SimulationConfig, default_initial, run

from llm_stub import StubLLMServer

CORPUS = build_default_corpus()

GOOD_REPLY = json.dumps(
    {
        "comply": True,
        "adjustments": {"alpha2": 0.015},
        "safety": 8,
        "effectiveness": 7,
        "compliance": 9,
        "adverse": 4,
        "rationale": "stub decision",
    }
)


def llm_config(server, steps=4, concurrency=4):
    return SimulationConfig(
        total_steps=steps,
        inner_substeps=4,
        policy_kind="llm",
        llm=ClientConfig(endpoint=server.url, model="stub", timeout=5.0, retries=1),
        llm_concurrency=concurrency,
    )


def test_llm_run_applies_stub_decisions_to_every_agent():
    profiles = list(DEFAULT_PROFILES)
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        result = run(llm_config(server), profiles, default_initial(profiles), CORPUS)
        hits = server.hits
    assert hits == 4 * len(profiles)
    assert result.llm_fallbacks == 0
    for rec in result.records:
        for ar in rec.agents.values():
            assert ar.decision.rationale == "stub decision"
            assert ar.brr == 6.0
            assert ar.decision.adjustments.deltas == {"alpha2": 0.015}


def test_llm_run_concurrency_one_matches_concurrency_four():
    profiles = list(DEFAULT_PROFILES)[:6]
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        serial = run(llm_config(server, concurrency=1), profiles, default_initial(profiles), CORPUS)
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        pooled = run(llm_config(server, concurrency=4), profiles, default_initial(profiles), CORPUS)
    from regflow.simulation import result_to_json_dict

    a = json.dumps(result_to_json_dict(serial)["records"], sort_keys=True)
    b = json.dumps(result_to_json_dict(pooled)["records"], sort_keys=True)
    assert a == b


def test_llm_run_replays_exactly_without_network():
    profiles = list(DEFAULT_PROFILES)[:5]
    initial = default_initial(profiles)
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        original = run(llm_config(server), profiles, initial, CORPUS)
    from regflow.simulation import SimulationConfig, extract_script, result_to_json_dict, run_scripted

    replayed = run_scripted(
        SimulationConfig(total_steps=4, inner_substeps=4, policy_kind="scripted"),
        profiles,
        initial,
        CORPUS,
        extract_script(original),
    )
    a = json.dumps(result_to_json_dict(original)["records"], sort_keys=True)
    b = json.dumps(result_to_json_dict(replayed)["records"], sort_keys=True)
    assert a == b


def test_llm_run_counts_fallbacks_on_garbage():
    profiles = list(DEFAULT_PROFILES)[:3]
    with StubLLMServer(behavior="garbage") as server:
        result = run(llm_config(server, steps=2), profiles, default_initial(profiles), CORPUS)
    assert result.llm_fallbacks == 2 * 3
    for rec in result.records:
        for ar in rec.agents.values():
            assert ar.decision.fallback == "parse"
            # the fallback rule decision still complies and is scored
            assert ar.brr is not None


@pytest.fixture()
def pools(monkeypatch):
    """Every ThreadPoolExecutor that simulation builds, in order; run
    imports the class from concurrent.futures when an llm run starts."""
    built = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.shut_down = False
            built.append(self)

        def shutdown(self, *args, **kwargs):
            self.shut_down = True
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return built


def test_llm_run_builds_one_thread_pool(pools):
    profiles = list(DEFAULT_PROFILES)[:6]
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        serial = run(llm_config(server, steps=5, concurrency=1), profiles, default_initial(profiles), CORPUS)
        assert len(pools) == 1 and pools[0]._max_workers == 1 and pools[0].shut_down
        pooled = run(llm_config(server, steps=5, concurrency=4), profiles, default_initial(profiles), CORPUS)
    assert len(pools) == 2 and pools[1]._max_workers == 4 and pools[1].shut_down
    a = json.dumps(simulation.result_to_json_dict(serial)["records"], sort_keys=True)
    b = json.dumps(simulation.result_to_json_dict(pooled)["records"], sort_keys=True)
    assert a == b


def test_llm_pool_is_shut_down_when_the_run_raises(pools):
    profiles = list(DEFAULT_PROFILES)[:3]
    initial = default_initial(profiles[:2])  # the third profile has no initial data
    with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
        with pytest.raises(ArgumentError, match="initial data ids"):
            run(llm_config(server, steps=2), profiles, initial, CORPUS)
    assert len(pools) == 1 and pools[0].shut_down
