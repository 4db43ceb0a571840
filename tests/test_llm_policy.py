"""The chat-completions-backed policy against a local stub server."""

import http.client
import json
import os
import socket
import subprocess
import sys
import urllib.error

import pytest

from regflow import agents
from regflow.agents import (
    ClientConfig,
    DEFAULT_PROFILES,
    PolicyEnv,
    llm_policy_decide,
    render_prompt,
    rule_policy_decide,
)
from regflow.corpus import Schedule, build_default_corpus, regulations_for
from regflow.dynamics import SystemState
from regflow.errors import ArgumentError

from llm_stub import StubLLMServer

PROFILE = DEFAULT_PROFILES[0]
REGS = regulations_for(0, build_default_corpus(), Schedule())
STATE = SystemState(t=0.0, g=0.5, c=0.5, m=0.5)
ENV = PolicyEnv(threshold=4.0, last_approved=True, feedback=0.1)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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

    @pytest.mark.parametrize(
        "body",
        [
            '{"choices": ' + "[" * 100_000 + "]" * 100_000 + "}",
            json.dumps({"choices": [{"message": {"content": 5}}]}),
        ],
        ids=["nested-too-deep", "content-not-a-string"],
    )
    def test_malformed_completion_envelope_falls_back(self, monkeypatch, body):
        calls = []

        def post(*args):
            calls.append(args)
            return body.encode("utf-8")

        monkeypatch.setattr(agents, "_post_json", post)
        cfg = ClientConfig(endpoint="http://127.0.0.1:9/v1/chat/completions", retries=2)
        d = llm_policy_decide(PROFILE, REGS, STATE, ENV, cfg)
        assert d.fallback == "parse"
        assert d.rationale.startswith("fallback (parse: malformed completion envelope: ")
        assert len(calls) == 1

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
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
            headers = server.request_headers[0]
        assert headers["Authorization"] == "Bearer sk-test-123"
        assert headers["Content-Type"] == "application/json"

    def test_no_authorization_header_without_api_key(self, monkeypatch):
        monkeypatch.delenv("REGFLOW_API_KEY", raising=False)
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
            headers = server.request_headers[0]
        assert "Authorization" not in headers

    def test_request_body_is_the_compact_json_of_the_payload(self):
        payload = {
            "model": "stub",
            "messages": [{"role": "user", "content": render_prompt(PROFILE, REGS, STATE, ENV)}],
            "temperature": 0.0,
        }
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server))
            assert server.request_bodies == [json.dumps(payload, allow_nan=False).encode("utf-8")]

    def test_zero_retries_sends_exactly_one_request(self):
        with StubLLMServer(behavior="http_error") as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server, retries=0))
            assert d.fallback == "transport"
            assert server.hits == 1

    def test_unsendable_header_falls_back_without_raising(self, monkeypatch):
        monkeypatch.setenv("REGFLOW_API_KEY", "sk-line\nbreak")
        with StubLLMServer(behavior="reply", reply_content=GOOD_REPLY) as server:
            d = llm_policy_decide(PROFILE, REGS, STATE, ENV, client_for(server, retries=1))
            assert d.fallback == "transport"
            assert server.hits == 0


class TestTransportErrors:
    """How each error the transport raises maps to a fallback category."""

    @pytest.mark.parametrize(
        "error, category",
        [
            (TimeoutError("timed out"), "timeout"),
            (socket.timeout("timed out"), "timeout"),
            (urllib.error.URLError(socket.timeout("timed out")), "timeout"),
            (urllib.error.URLError(ConnectionRefusedError(111, "refused")), "transport"),
            (http.client.RemoteDisconnected("closed"), "transport"),
            (http.client.IncompleteRead(b"{"), "transport"),
            (ConnectionResetError(104, "reset"), "transport"),
        ],
    )
    def test_category_and_retries(self, monkeypatch, error, category):
        calls = []

        def failing_post(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(agents, "_post_json", failing_post)
        cfg = ClientConfig(endpoint="http://127.0.0.1:9/v1/chat/completions", timeout=0.5, retries=2)
        d = llm_policy_decide(PROFILE, REGS, STATE, ENV, cfg)
        assert d.fallback == category
        assert d.rationale.startswith(f"fallback ({category}: ")
        assert len(calls) == 3


class TestEndpointScheme:
    @pytest.mark.parametrize(
        "endpoint",
        ["file:///etc/hostname", "ftp://127.0.0.1/x", "data:text/plain,hi", "/v1/chat/completions", " file:///x"],
    )
    def test_non_http_endpoint_rejected(self, endpoint):
        with pytest.raises(ArgumentError, match="llm.endpoint must be an http or https URL"):
            ClientConfig(endpoint=endpoint)

    def test_non_string_model_rejected(self):
        with pytest.raises(ArgumentError, match="llm.model must be a string, got 5"):
            ClientConfig(endpoint="http://h/v1", model=5)

    @pytest.mark.parametrize("endpoint", ["http://h/v1", "https://h/v1", "HTTP://h/v1"])
    def test_http_endpoint_accepted(self, endpoint):
        assert ClientConfig(endpoint=endpoint).endpoint == endpoint

    def test_transport_never_opens_other_schemes(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("do-not-read")
        for url in (secret.as_uri(), "ftp://127.0.0.1:9/x", "data:text/plain,do-not-read"):
            with pytest.raises(urllib.error.URLError, match="unknown url type"):
                agents._post_json(url, b"{}", {"Content-Type": "application/json"}, 1.0)

    def test_file_endpoint_past_the_config_check_is_not_read(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("do-not-read")
        cfg = ClientConfig(endpoint="http://127.0.0.1:9/", retries=0)
        object.__setattr__(cfg, "endpoint", secret.as_uri())
        d = llm_policy_decide(PROFILE, REGS, STATE, ENV, cfg)
        assert d.fallback == "transport"
        assert "do-not-read" not in d.rationale


def test_importing_the_cli_imports_only_the_standard_library_and_numpy():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import regflow.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "sys.exit(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'regflow'}) or None)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
