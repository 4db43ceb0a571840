"""Manufacturer decision policies and bounded parameter updates.

Three policies produce an AgentDecision from the same inputs (profile,
active regulations, own model state, shared environment):

  * rule_policy_decide - a fixed deterministic rule, so full simulations
    run and replay with no network;
  * parse_llm_reply / llm_policy_decide - a chat-completions-backed policy
    speaking a strict one-object JSON reply grammar, falling back to the
    rule policy on any transport or parse failure;
  * scripted replay, handled by the simulation module.

Parameter changes proposed by any policy are bounded per step (default
0.05 per coefficient) so a single decision cannot destabilize the ODE.
"""

from __future__ import annotations

import functools
import json
import math
import os
import urllib.parse
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .brr import SCORE_FIELDS, Submission
from .corpus import Regulation
from .dynamics import (
    DEFAULT_PARAM_BOUNDS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _count,
    _number,
    _real,
    _store_number,
)
from .errors import ArgumentError, ReplyParseError
from .schema import _load, from_json, parse_json

__all__ = [
    "ManufacturerProfile",
    "ParameterAdjustment",
    "AgentDecision",
    "PolicyEnv",
    "ClientConfig",
    "DEFAULT_MAX_STEP",
    "DEFAULT_PROFILES",
    "TIER_INDEX",
    "TIER_FACTOR",
    "rule_policy_decide",
    "apply_adjustments",
    "render_prompt",
    "parse_llm_reply",
    "llm_policy_decide",
]

DEFAULT_MAX_STEP = 0.05

RISK_PREFERENCES = ("low", "medium", "high")

TIER_INDEX = {"limited": 0, "medium": 1, "rich": 2}
TIER_FACTOR = {"limited": 0.5, "medium": 1.0, "rich": 1.5}


@dataclass(frozen=True)
class ManufacturerProfile:
    id: str
    name: str
    resource_tier: str
    risk_preference: str = "medium"
    ai_investment_fraction: float = 0.05
    focus: str = ""

    def __post_init__(self) -> None:
        if self.resource_tier not in TIER_INDEX:
            raise ArgumentError(f"unknown resource tier {self.resource_tier!r}")
        if self.risk_preference not in RISK_PREFERENCES:
            raise ArgumentError(f"unknown risk preference {self.risk_preference!r}")
        _number(self.ai_investment_fraction, "ai_investment_fraction", high=1.0)


def _profile_from_dict(data, where: str) -> ManufacturerProfile:
    """One profile from a JSON object, whose `name` defaults to its id;
    `where` names the entry."""
    name = {"name": data["id"]} if isinstance(data, dict) and "id" in data else None
    return from_json(ManufacturerProfile, data, where, name)


#: Ten stock manufacturers. A, B, J are resource-rich; E, F, G medium;
#: C, D, H, I limited. Risk appetite and AI spend vary inside each tier.
DEFAULT_PROFILES: tuple[ManufacturerProfile, ...] = (
    ManufacturerProfile("A", "Company A", "rich", "high", 0.15, "surgical robotics platforms"),
    ManufacturerProfile("B", "Company B", "rich", "medium", 0.12, "imaging diagnostics suites"),
    ManufacturerProfile("C", "Company C", "limited", "medium", 0.04, "wearable cardiac monitors"),
    ManufacturerProfile("D", "Company D", "limited", "high", 0.05, "point-of-care ultrasound"),
    ManufacturerProfile("E", "Company E", "medium", "medium", 0.08, "clinical decision support"),
    ManufacturerProfile("F", "Company F", "medium", "low", 0.07, "radiology triage software"),
    ManufacturerProfile("G", "Company G", "medium", "high", 0.09, "pathology slide analysis"),
    ManufacturerProfile("H", "Company H", "limited", "low", 0.06, "AI-integrated preventive care devices"),
    ManufacturerProfile("I", "Company I", "limited", "low", 0.03, "remote patient monitoring"),
    ManufacturerProfile("J", "Company J", "rich", "low", 0.10, "continuous glucose management"),
)


def _deltas(data, where: str) -> dict:
    """Adjustment deltas from a JSON object of numbers, kept as written, so a
    replayed decision records the numbers it was given."""
    if not isinstance(data, dict):
        raise ArgumentError(f"{where} must be a JSON object, got {data!r}")
    for name, value in data.items():
        _real(value, f"{where}.{name}")
    return data


@dataclass(frozen=True)
class ParameterAdjustment:
    """Per-step deltas by coefficient name, read-only (pickled as a dict); in JSON, the deltas object."""

    deltas: Mapping[str, float] = field(metadata={"inline": True, "load": _deltas})

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltas", MappingProxyType(dict(self.deltas)))
        for name, delta in self.deltas.items():
            if name not in PARAM_FIELDS:
                raise ArgumentError(f"unknown parameter name {name!r}")
            # a finite float passes; _number checks and names anything else
            if type(delta) is not float or not math.isfinite(delta):
                _number(delta, f"delta for {name}", -math.inf)

    def __reduce__(self):
        return (ParameterAdjustment, (dict(self.deltas),))


@dataclass(frozen=True)
class AgentDecision:
    comply: bool
    adjustments: ParameterAdjustment = field(default_factory=lambda: ParameterAdjustment({}))
    submission: Submission | None = None
    rationale: str = ""
    warnings: tuple[str, ...] = ()
    fallback: str | None = None

    def __post_init__(self) -> None:
        if self.comply and self.submission is None:
            raise ArgumentError("comply decision without a submission")


@dataclass(frozen=True)
class PolicyEnv:
    """Shared environment visible to a policy at decision time."""

    threshold: float
    last_approved: bool
    feedback: float = 0.0


def _check_regulations(regulations: list[Regulation]) -> str:
    if not regulations:
        raise ArgumentError("regulation list is empty")
    strictness = regulations[0].strictness
    if any(r.strictness != strictness for r in regulations):
        raise ArgumentError("regulation list mixes strict and lenient entries")
    return strictness


def _clip_score(v: int) -> int:
    return min(max(v, 1), 10)


def _clip_delta(v: float, max_step: float) -> float:
    return min(max(v, -max_step), max_step)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def rule_policy_decide(
    profile: ManufacturerProfile,
    regulations: list[Regulation],
    state: SystemState,
    env: PolicyEnv,
    max_step: float = DEFAULT_MAX_STEP,
) -> AgentDecision:
    """Deterministic compliance rule.

    Strict phases push compliance-side coefficients, lenient phases push
    adaptation-side ones, scaled by the resource tier; a rejected prior
    submission adds extra compliance drive. Scores follow the tier, the
    phase, AI investment, and risk appetite.

    The decision reads only the profile, the regulations,
    env.last_approved and max_step, never the state, env.threshold or
    env.feedback; simulation.run reuses it within a run on that premise.
    """
    strictness = _check_regulations(regulations)
    strict = strictness == "strict"
    r = TIER_FACTOR[profile.resource_tier]
    ti = TIER_INDEX[profile.resource_tier]

    if strict:
        deltas = {"alpha2": 0.02 * r, "phi2": 0.01 * r, "beta2": -0.01 * r}
    else:
        deltas = {"alpha3": 0.02 * r, "beta3": -0.01 * r}
    if not env.last_approved:
        deltas["alpha2"] = deltas.get("alpha2", 0.0) + 0.01 * r
    deltas = {k: _clip_delta(v, max_step) for k, v in deltas.items()}

    safety = _clip_score(5 + ti + (1 if strict else 0))
    effectiveness = _clip_score(
        4 + ti + int(_round_half_up(4.0 * profile.ai_investment_fraction * 10.0) / 10.0)
    )
    compliance = _clip_score(5 + ti + (2 if strict else 0))
    adverse = _clip_score(6 - ti - (1 if profile.risk_preference == "low" else 0))

    submission = Submission(
        agent_id=profile.id,
        safety=safety,
        effectiveness=effectiveness,
        compliance=compliance,
        adverse=adverse,
        regulation_ids=tuple(reg.id for reg in regulations),
        narrative=(
            f"{profile.name} submits against {len(regulations)} {strictness} "
            f"regulations with a {profile.resource_tier}-tier program."
        ),
    )
    rationale = (
        f"rule policy: {profile.resource_tier} tier, {strictness} phase, "
        f"prior submission {'approved' if env.last_approved else 'rejected'}"
    )
    return AgentDecision(
        comply=True,
        adjustments=ParameterAdjustment(deltas=deltas),
        submission=submission,
        rationale=rationale,
    )


def apply_adjustments(
    p: ModelParameters,
    adj: ParameterAdjustment,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> ModelParameters:
    """Apply deltas field by field, clipping each result into its bounds;
    p itself when there are no deltas."""
    if not adj.deltas:
        return p
    box = bounds if bounds is not None else DEFAULT_PARAM_BOUNDS
    changes = {}
    for name, delta in adj.deltas.items():
        lo, hi = box[name]
        changes[name] = min(max(getattr(p, name) + delta, lo), hi)
    return p.replace(**changes)


# ---------------------------------------------------------------------------
# prompt rendering and the structured reply grammar
# ---------------------------------------------------------------------------

REPLY_GRAMMAR = (
    '{"comply": bool, "adjustments": {"<param>": number, ...}, '
    '"safety": int, "effectiveness": int, "compliance": int, '
    '"adverse": int, "rationale": string}'
)

_REQUIRED_KEYS = ("comply", "adjustments", "rationale") + SCORE_FIELDS


def render_prompt(
    profile: ManufacturerProfile,
    regulations: list[Regulation],
    state: SystemState,
    env: PolicyEnv,
    max_step: float = DEFAULT_MAX_STEP,
) -> str:
    """Deterministic decision prompt for one agent and one step.

    The prompt states max_step as the bound on each adjustment value.
    """
    strictness = _check_regulations(regulations)
    lines = [
        "You are the decision model of a medical device manufacturer facing "
        "new regulatory guidance.",
        "",
        "## Manufacturer profile",
        f"id: {profile.id}",
        f"name: {profile.name}",
        f"resource tier: {profile.resource_tier}",
        f"risk preference: {profile.risk_preference}",
        f"AI investment fraction: {profile.ai_investment_fraction:.4f}",
        f"focus: {profile.focus}",
        "",
        f"## Active regulations ({strictness})",
    ]
    for reg in regulations:
        lines.append(f"[{reg.id}] {reg.title}")
        lines.append(reg.body)
        lines.append("")
    lines += [
        "## Current operating point",
        f"G={state.g:.4f} C={state.c:.4f} M={state.m:.4f} F={env.feedback:.4f}",
        f"Current approval threshold: {env.threshold:.4f}",
        f"Previous submission approved: {'yes' if env.last_approved else 'no'}",
        "",
        "## Instructions",
        "Decide whether to comply and submit, and propose bounded adjustments "
        "to your operational coefficients.",
        "Reply with a single JSON object, no surrounding text, exactly matching:",
        REPLY_GRAMMAR,
        f"Scores are integers from 1 to 10. Adjustment keys must be among: "
        f"{', '.join(PARAM_FIELDS)}.",
        f"Each adjustment value must lie within +/-{max_step}.",
    ]
    return "\n".join(lines)


def _extract_json_object(text: str) -> dict:
    stripped = text.strip()
    try:
        data = parse_json(stripped, "reply")
    except ArgumentError:
        start = stripped.find("{")
        end = stripped.rfind("}")
        if start == -1 or end <= start:
            raise ReplyParseError("reply contains no JSON object") from None
        data = parse_json(stripped[start : end + 1], "reply")
    if not isinstance(data, dict):
        raise ReplyParseError(f"reply must be a JSON object, got {type(data).__name__}")
    return data


def parse_llm_reply(
    text: str,
    max_step: float = DEFAULT_MAX_STEP,
    agent_id: str = "",
    regulation_ids: tuple[str, ...] = (),
) -> AgentDecision:
    """Parse a structured reply into a decision.

    Out-of-range or non-integral scores are clipped/rounded with a warning
    rather than rejected; unknown adjustment keys are dropped with a
    warning; adjustment values are clipped to +/-max_step. A missing
    required field, a value that is not a finite number where one is due
    or a malformed document raises ReplyParseError.
    """
    try:
        data = _extract_json_object(text)
        missing = [k for k in _REQUIRED_KEYS if k not in data]
        if missing:
            raise ReplyParseError(f"reply is missing required fields: {missing}")

        comply = _load(bool, data["comply"], "comply")
        rationale = _load(str, data["rationale"], "rationale")
        raw_adjustments = data["adjustments"]
        if not isinstance(raw_adjustments, dict):
            raise ReplyParseError("adjustments must be an object")

        warnings: list[str] = []
        scores: dict[str, int] = {}
        for key in SCORE_FIELDS:
            v = data[key]
            iv = _round_half_up(_number(v, f"score {key}", -math.inf))
            if iv != v:
                warnings.append(f"score {key}={v!r} rounded to {iv}")
            clipped = _clip_score(iv)
            if clipped != iv:
                warnings.append(f"score {key}={iv} clipped to {clipped}")
            scores[key] = clipped

        deltas: dict[str, float] = {}
        for key, v in raw_adjustments.items():
            if key not in PARAM_FIELDS:
                warnings.append(f"unknown adjustment key {key!r} dropped")
                continue
            clipped_v = _clip_delta(_number(v, f"adjustment {key}", -math.inf), max_step)
            if clipped_v != v:
                warnings.append(f"adjustment {key}={v!r} clipped to {clipped_v}")
            deltas[key] = clipped_v
    except ArgumentError as exc:
        raise ReplyParseError(str(exc)) from None

    submission = None
    if comply:
        submission = Submission(
            agent_id=agent_id,
            safety=scores["safety"],
            effectiveness=scores["effectiveness"],
            compliance=scores["compliance"],
            adverse=scores["adverse"],
            regulation_ids=tuple(regulation_ids),
            narrative="",
        )
    return AgentDecision(
        comply=comply,
        adjustments=ParameterAdjustment(deltas=deltas),
        submission=submission,
        rationale=rationale,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# chat-completions-backed policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClientConfig:
    """Connection settings for the chat-completions endpoint.

    endpoint is the full http or https URL (e.g.
    http://host:port/v1/chat/completions); any other scheme is rejected.
    The API key is read from the environment variable named by
    api_key_env; it is never passed as a flag or stored in files.
    """

    endpoint: str
    model: str = "default"
    timeout: float = 30.0
    retries: int = 2
    api_key_env: str = "REGFLOW_API_KEY"

    def __post_init__(self) -> None:
        for name in ("endpoint", "model", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ArgumentError(f"llm.{name} must be a string, got {getattr(self, name)!r}")
        try:
            scheme = urllib.parse.urlsplit(self.endpoint).scheme.lower()
        except ValueError:
            scheme = ""
        if scheme not in ("http", "https"):
            raise ArgumentError(f"llm.endpoint must be an http or https URL, got {self.endpoint!r}")
        _store_number(self, "timeout", "llm.timeout", positive=True)
        _count(self.retries, "llm.retries", 0)


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    """An opener that can open http and https URLs only; any other scheme,
    also one reached by a redirect, raises URLError. Proxies come from the
    environment, read when the first request is sent; HTTPS verifies
    against the system CA store."""
    import ssl
    import urllib.request

    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler(),
        urllib.request.UnknownHandler(),
        urllib.request.HTTPHandler(),
        urllib.request.HTTPSHandler(context=ssl.create_default_context()),
        urllib.request.HTTPDefaultErrorHandler(),
        urllib.request.HTTPRedirectHandler(),
        urllib.request.HTTPErrorProcessor(),
    ):
        opener.add_handler(handler)
    return opener


def _post_json(endpoint: str, body: bytes, headers: dict[str, str], timeout: float) -> bytes:
    """POST body to endpoint and return the response body.

    Raises TimeoutError (possibly as the reason of a URLError),
    urllib.error.URLError (HTTPError for a non-2xx status),
    http.client.HTTPException, another OSError, or ValueError for a URL or
    header value that cannot be sent.
    """
    import urllib.error
    import urllib.request

    request = urllib.request.Request(endpoint, data=body, headers=headers, method="POST")
    try:
        with _opener().open(request, timeout=timeout) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error carries the open response
        raise


def llm_policy_decide(
    profile: ManufacturerProfile,
    regulations: list[Regulation],
    state: SystemState,
    env: PolicyEnv,
    client_config: ClientConfig,
    max_step: float = DEFAULT_MAX_STEP,
) -> AgentDecision:
    """Ask the configured endpoint for a decision; never raises.

    Transport failures (connection errors, HTTP errors, timeouts) are
    retried up to client_config.retries times. A reply that arrives but
    cannot be parsed is not retried. Any terminal failure falls back to
    the rule policy, with the failure category recorded in the rationale
    and in the decision's fallback field.
    """
    import http.client

    prompt = render_prompt(profile, regulations, state, env, max_step)
    payload = {
        "model": client_config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0.0,
    }
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(client_config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    body = json.dumps(payload, allow_nan=False).encode("utf-8")

    failure = "transport"
    detail = ""
    for _attempt in range(client_config.retries + 1):
        try:
            raw = _post_json(client_config.endpoint, body, headers, client_config.timeout)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                failure, detail = "timeout", f"no response within {client_config.timeout}s"
            else:
                failure, detail = "transport", str(exc)
            continue
        try:
            content = parse_json(raw, "response body")["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError("message content is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failure, detail = "parse", f"malformed completion envelope: {exc}"
            break
        try:
            return parse_llm_reply(
                content,
                max_step=max_step,
                agent_id=profile.id,
                regulation_ids=tuple(reg.id for reg in regulations),
            )
        except ReplyParseError as exc:
            failure, detail = "parse", str(exc)
            break

    fallback = rule_policy_decide(profile, regulations, state, env, max_step)
    return replace(
        fallback,
        rationale=f"fallback ({failure}: {detail}); {fallback.rationale}",
        fallback=failure,
    )
