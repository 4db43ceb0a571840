"""The chat-completions-backed policy against a local stub server."""

import json

from regflow.agents import (
    ClientConfig,
    DEFAULT_PROFILES,
    PolicyEnv,
    llm_policy_decide,
    rule_policy_decide,
)
from regflow.corpus import Schedule, build_default_corpus, regulations_for
from regflow.dynamics import SystemState

from llm_stub import StubLLMServer

PROFILE = DEFAULT_PROFILES[0]
REGS = regulations_for(0, build_default_corpus(), Schedule())
STATE = SystemState(t=0.0, g=0.5, c=0.5, m=0.5)
ENV = PolicyEnv(threshold=4.0, last_approved=True, feedback=0.1)

GOOD_REPLY = json.dumps(
    {
        "comply": True,
        "adjustments": {"alpha2": 0.02},
        "safety": 8,
        "effectiveness": 7,
        "compliance": 9,
        "adverse": 4,
        "rationale": "strong compliance story",
    }
)


def client_for(server, timeout=5.0, retries=2):
    return ClientConfig(endpoint=server.url, model="stub", timeout=timeout, retries=retries)


class TestLlmPolicy:
    def test_well_formed_reply_verbatim(self):
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
        assert d.fallback is None
        assert d.comply is True
        assert d.submission.safety == 8
        assert d.submission.agent_id == PROFILE.id
        assert d.submission.regulation_ids == tuple(r.id for r in REGS)
        assert d.adjustments.deltas == {"alpha2": 0.02}
        assert d.rationale == "strong compliance story"
        assert server.hits == 1

    def test_request_carries_prompt_and_model(self):
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
            body = json.loads(server.request_bodies[0])
        assert body["model"] == "stub"
        assert body["messages"][0]["role"] == "user"
        assert REGS[0].id in body["messages"][0]["content"]

    def test_request_prompt_states_the_callers_max_step(self):
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server), max_step=0.02)
            body = json.loads(server.request_bodies[0])
        assert "within +/-0.02." in body["messages"][0]["content"]

    def test_out_of_range_scores_clipped(self):
        reply = json.dumps(
            {
                "comply": True,
                "adjustments": {},
                "safety": 22,
                "effectiveness": 0,
                "compliance": 9,
                "adverse": 4,
                "rationale": "x",
            }
        )
        with StubLLMServer(behavior="reply", reply_content=reply) as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
        assert d.fallback is None
        assert d.submission.safety == 10
        assert d.submission.effectiveness == 1
        assert d.warnings

    def test_garbage_reply_falls_back_to_rule_policy(self):
        with StubLLMServer(behavior="garbage") as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
        assert d.fallback == "parse"
        assert "fallback" in d.rationale
        expected = rule_policy_decide(PROFILE, REGS, STATE, ENV)
        assert d.submission == expected.submission
        assert d.adjustments == expected.adjustments
        # garbage is a terminal failure: no retries burned on it
        assert server.hits == 1

    def test_ungrammatical_content_falls_back(self):
        with StubLLMServer(behavior="reply", reply_content="I will comply, trust me") as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
        assert d.fallback == "parse"
        assert server.hits == 1

    def test_timeout_retries_exactly_then_falls_back(self):
        with StubLLMServer(behavior="sleep", sleep_s=2.0, reply_content=GOOD_REPLY) as server:
            d = llm_policy_decide(
                PROFILE, REGS, STATE, ENV, client_for(server, timeout=0.25, retries=2)
            )
            assert d.fallback == "timeout"
            assert "timeout" in d.rationale
            assert server.hits == 3

    def test_http_error_retries_then_falls_back(self):
        with StubLLMServer(behavior="http_error") as server:
            d = llm_policy_decide(
                PROFILE, REGS, STATE, ENV, client_for(server, retries=1)
            )
            assert d.fallback == "transport"
            assert server.hits == 2

    def test_unreachable_endpoint_falls_back(self):
        cfg = ClientConfig(endpoint="http://127.0.0.1:9/v1/chat/completions", timeout=0.5, retries=0)
        d = llm_policy_decide(PROFILE, REGS, STATE, ENV, cfg)
        assert d.fallback == "transport"
        assert d.comply is True  # the rule policy still produced a decision

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("REGFLOW_API_KEY", "sk-test-123")
        captured = {}

        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
            # re-read raw request: headers aren't stored, so assert via a
            # second round trip with a recording client below
        import requests

        class Recorder:
            def __init__(self, real_post):
                self.real_post = real_post

            def __call__(self, url, **kwargs):
                captured.update(kwargs.get("headers") or {})
                return self.real_post(url, **kwargs)

        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            monkeypatch.setattr(requests, "post", Recorder(requests.post))
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
        assert captured.get("Authorization") == "Bearer sk-test-123"
