"""Multi-agent simulation loop.

Each step: the active regulation set is issued, every manufacturer's
policy decides (comply, bounded parameter adjustments, optional
submission), adjustments are applied, each agent's ODE state advances by
one decision interval of RK4 substeps under its own parameters,
submissions are scored as benefit-risk ratios and decided against the
current threshold, and the threshold is then updated once from the step's
decided ratios. Every step is recorded in full, decisions included, so
the decisions that extract_script pulls from a run's records replay it
exactly through run_scripted, given the same config, profiles, starts and
corpus; result.json holds none of the starts or the corpus.

Manufacturers own independent copies of the model state and coefficients;
they interact only through the shared approval threshold (and the recorded
mean feedback, kept for analysis). Within a run, agents whose coefficients
went through the same adjustments hold one shared, immutable
ModelParameters, built once, and each distinct ratio is decided once per
step; the records are those of adjusting and deciding every agent afresh.
What the engine derives from a decision, the key of its deltas and its
ratio, it derives once per run, however many agent-steps share the decision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from typing import Callable, Mapping

from .agents import (
    DEFAULT_MAX_STEP,
    AgentDecision,
    ClientConfig,
    ManufacturerProfile,
    PolicyEnv,
    _profile_from_dict,
    apply_adjustments,
    llm_policy_decide,
    rule_policy_decide,
)
from .brr import ThresholdConfig, compute_brr, decide, update_threshold
from .corpus import Regulation, Schedule, active_phase, regulations_for
from .dynamics import (
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    MAX_STEPS,
    ModelParameters,
    SystemState,
    _bounds_from_json,
    _check_box,
    _count,
    _number,
    _real,
    _total,
    _write_text,
    advance,
    eval_feedback,
)
from .errors import ArgumentError, NumericalError
from .schema import from_json, json_default, parse_json

__all__ = [
    "SimulationConfig",
    "AgentStepRecord",
    "StepRecord",
    "SimulationResult",
    "run",
    "run_scripted",
    "default_initial",
    "extract_script",
    "result_to_json_dict",
    "result_from_json_dict",
    "result_columns",
    "write_result_json",
    "write_result_csv",
]

POLICY_KINDS = ("rule", "scripted", "llm")


@dataclass(frozen=True)
class SimulationConfig:
    """The settings of a run; change one with dataclasses.replace."""

    total_steps: int = 73
    dt_per_step: float = 0.05
    inner_substeps: int = 20
    schedule: Schedule = field(default_factory=Schedule)
    threshold_cfg: ThresholdConfig = field(default_factory=ThresholdConfig, metadata={"json": "threshold"})
    param_bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_PARAM_BOUNDS), metadata={"load": _bounds_from_json}
    )
    max_step: float = DEFAULT_MAX_STEP
    seed: int = 0
    policy_kind: str = "rule"
    llm: ClientConfig | None = None
    llm_concurrency: int = 4

    def __post_init__(self) -> None:
        _count(self.total_steps, "total_steps")
        _count(self.inner_substeps, "inner_substeps")
        rk4_steps = self.total_steps * self.inner_substeps
        if rk4_steps > MAX_STEPS:
            raise ArgumentError(
                f"total_steps * inner_substeps requires {rk4_steps} RK4 steps; limit is {MAX_STEPS}"
            )
        _number(self.dt_per_step, "dt_per_step", positive=True)
        _check_box(self.param_bounds, "param_bounds")
        if self.policy_kind not in POLICY_KINDS:
            raise ArgumentError(f"policy_kind must be one of {POLICY_KINDS}, got {self.policy_kind!r}")
        _number(self.max_step, "max_step", positive=True)
        _count(self.seed, "seed", -math.inf)
        if self.llm is not None and not isinstance(self.llm, ClientConfig):
            raise ArgumentError(f"llm must be a ClientConfig or None, got {self.llm!r}")
        _count(self.llm_concurrency, "llm_concurrency")


@dataclass
class AgentStepRecord:
    """One agent's slice of a step: post-adjustment parameters, post-update
    state, feedback, the decision taken, and the step's approval outcome."""

    params: ModelParameters
    state: SystemState
    f: float
    decision: AgentDecision
    brr: float | None
    approved: bool | None
    compliance_cost: float
    market_adaptation: float


@dataclass
class StepRecord:
    step: int
    phase: str
    agents: dict[str, AgentStepRecord]
    threshold: float
    mean_feedback: float


@dataclass
class SimulationResult:
    records: list[StepRecord]
    config: SimulationConfig
    profiles: list[ManufacturerProfile]
    clamp_events: int = 0
    llm_fallbacks: int = 0


AgentInit = tuple[ModelParameters, SystemState]
#: What a policy sees of one agent at a step besides the step's regulations
#: and threshold: its profile, state, last approval and feedback.
AgentView = tuple[ManufacturerProfile, SystemState, bool, float]


def default_initial(
    profiles: list[ManufacturerProfile] | tuple[ManufacturerProfile, ...],
    params: ModelParameters = DEFAULT_PARAMETERS,
) -> dict[str, AgentInit]:
    """Stock starting conditions: shared coefficients, slightly staggered
    states so agents are distinguishable from step one."""
    out: dict[str, AgentInit] = {}
    for i, prof in enumerate(sorted(profiles, key=lambda p: p.id)):
        state = SystemState(t=0.0, g=0.5, c=0.4 + 0.01 * i, m=0.3 + 0.02 * i)
        out[prof.id] = (params, state)
    return out


def _run_engine(
    config: SimulationConfig,
    profiles: list[ManufacturerProfile],
    initial: Mapping[str, AgentInit],
    corpus: list[Regulation],
    decide_step: Callable[[int, list[Regulation], float, list[AgentView]], dict[str, AgentDecision]],
) -> SimulationResult:
    if not profiles:
        raise ArgumentError("at least one manufacturer profile is required")
    ids = sorted(p.id for p in profiles)
    if len(set(ids)) != len(ids):
        raise ArgumentError("manufacturer profile ids must be unique")
    if set(initial.keys()) != set(ids):
        raise ArgumentError(
            f"initial data ids {sorted(initial.keys())} do not match profile ids {ids}"
        )
    by_id = {p.id: p for p in profiles}
    roster = [by_id[aid] for aid in ids]

    # each dict holds its agents in ids order, so the step's views zip them
    params: dict[str, ModelParameters] = {}
    states: dict[str, SystemState] = {}
    feedbacks: dict[str, float] = {}
    last_approved: dict[str, bool] = {}
    for aid in ids:
        p0, s0 = initial[aid]
        params[aid] = p0
        states[aid] = s0
        feedbacks[aid] = eval_feedback(s0, p0)
        last_approved[aid] = True

    window: list[float] = []
    threshold = update_threshold(config.threshold_cfg, window)
    records: list[StepRecord] = []
    clamp_events = 0
    llm_fallbacks = 0
    # id(decision) -> (decision, adjusted, ratio): what the engine derives
    # from a decision, derived once however many agent-steps it serves.
    # adjusted maps id(coefficients) -> (coefficients, adjusted coefficients)
    # and is shared by every decision with the same deltas; it is None when
    # a delta is zero, as 0.0 == -0.0 but the two add to different bits.
    # Each entry holds its input, so no id is reused while the run lasts.
    derived: dict[int, tuple[AgentDecision, dict | None, float | None]] = {}
    by_deltas: dict[tuple, dict[int, tuple[ModelParameters, ModelParameters]]] = {}

    for t in range(config.total_steps):
        phase = active_phase(t, config.schedule)
        regs = regulations_for(t, corpus, config.schedule)
        views = list(zip(roster, states.values(), last_approved.values(), feedbacks.values()))
        decisions = decide_step(t, regs, threshold, views)

        step_brrs: list[float] = []
        approvals: dict[float, bool] = {}
        agent_records: dict[str, AgentStepRecord] = {}
        for aid in ids:
            decision = decisions[aid]
            entry = derived.get(id(decision))
            if entry is None:
                deltas = decision.adjustments.deltas
                entry = derived[id(decision)] = (
                    decision,
                    None if 0.0 in deltas.values() else by_deltas.setdefault(tuple(deltas.items()), {}),
                    compute_brr(decision.submission) if decision.comply else None,
                )
            _, adjusted, brr_value = entry
            if decision.fallback is not None:
                llm_fallbacks += 1
            p = params[aid]
            if adjusted is None:
                p = apply_adjustments(p, decision.adjustments, config.param_bounds)
            else:
                hit = adjusted.get(id(p))
                if hit is None:
                    hit = adjusted[id(p)] = (p, apply_adjustments(p, decision.adjustments, config.param_bounds))
                p = hit[1]
            params[aid] = p
            try:
                new_state, f, cost, clamps = advance(states[aid], p, config.dt_per_step, config.inner_substeps)
            except NumericalError as exc:
                raise NumericalError(
                    f"agent {aid} diverged at simulation step {t}: {exc}", step_index=t
                ) from exc
            states[aid] = new_state
            feedbacks[aid] = f
            clamp_events += clamps

            approved: bool | None = None
            if brr_value is not None:
                approved = approvals.get(brr_value)
                if approved is None:
                    approved = approvals[brr_value] = decide(brr_value, threshold).approved
                last_approved[aid] = approved
                step_brrs.append(brr_value)

            # positional arguments, in field order: params, state, f,
            # decision, brr, approved, compliance_cost, market_adaptation
            agent_records[aid] = AgentStepRecord(
                p, new_state, f, decision, brr_value, approved, cost, new_state.m
            )

        mean_feedback = _total(feedbacks.values()) / len(ids)
        records.append(
            StepRecord(
                step=t,
                phase=phase,
                agents=agent_records,
                threshold=threshold,
                mean_feedback=mean_feedback,
            )
        )
        window.extend(step_brrs)
        window = window[-config.threshold_cfg.window :]
        threshold = update_threshold(config.threshold_cfg, window)

    return SimulationResult(
        records=records,
        config=config,
        profiles=roster,
        clamp_events=clamp_events,
        llm_fallbacks=llm_fallbacks,
    )


def run(
    config: SimulationConfig,
    profiles: list[ManufacturerProfile],
    initial: Mapping[str, AgentInit],
    corpus: list[Regulation],
) -> SimulationResult:
    """Run the configured policy for total_steps steps.

    A rule decision depends only on the agent, the step's regulations and
    the agent's previous approval (see rule_policy_decide), so the rule
    policy decides each such triple once per run and reuses the decision.
    """
    if config.policy_kind == "rule":
        # regulations -> (agent id, last approved) -> decision; the outer key
        # is hashed once per step, not once per agent
        memo: dict[tuple[Regulation, ...], dict[tuple[str, bool], AgentDecision]] = {}

        def decide_step(
            t: int, regs: list[Regulation], threshold: float, views: list[AgentView]
        ) -> dict[str, AgentDecision]:
            decided = memo.setdefault(tuple(regs), {})
            out = {}
            for prof, state, ok, f in views:
                key = (prof.id, ok)
                decision = decided.get(key)
                if decision is None:
                    env = PolicyEnv(threshold, ok, f)
                    decision = decided[key] = rule_policy_decide(prof, regs, state, env, config.max_step)
                out[prof.id] = decision
            return out

        return _run_engine(config, profiles, initial, corpus, decide_step)
    if config.policy_kind == "scripted":
        raise ArgumentError("policy_kind 'scripted' requires run_scripted with a script")
    if config.llm is None:
        raise ArgumentError("policy_kind 'llm' requires config.llm client settings")
    client = config.llm
    # imported here: the rule and scripted policies need no thread pool
    from concurrent.futures import ThreadPoolExecutor

    # one pool for the whole run, shut down however the run ends
    with ThreadPoolExecutor(max_workers=max(1, min(config.llm_concurrency, len(profiles)))) as pool:

        def decide_step(
            t: int, regs: list[Regulation], threshold: float, views: list[AgentView]
        ) -> dict[str, AgentDecision]:
            futures = {
                prof.id: pool.submit(
                    llm_policy_decide, prof, regs, state, PolicyEnv(threshold, ok, f), client, config.max_step
                )
                for prof, state, ok, f in views
            }
            return {aid: fut.result() for aid, fut in futures.items()}

        return _run_engine(config, profiles, initial, corpus, decide_step)


def run_scripted(
    config: SimulationConfig,
    profiles: list[ManufacturerProfile],
    initial: Mapping[str, AgentInit],
    corpus: list[Regulation],
    script: Mapping[tuple[int, str], AgentDecision],
) -> SimulationResult:
    """Replay decisions from a script keyed by (step, agent_id). Every key
    must name a step of the run and an agent of the roster; every decision
    must keep its deltas within max_step and submit under its agent's id,
    as rule and LLM decisions do by construction."""
    ids = {p.id for p in profiles}
    for (step, aid), decision in sorted(script.items()):
        if aid not in ids:
            raise ArgumentError(
                f"script entry for step {step} names agent {aid!r}, which is not in the roster"
            )
        if not 0 <= step < config.total_steps:
            raise ArgumentError(
                f"script entry for agent {aid!r} has step {step}, outside 0-{config.total_steps - 1}"
            )
        where = f"script entry for step {step}, agent {aid!r}"
        if decision.comply and decision.submission.agent_id != aid:
            raise ArgumentError(f"{where}: submission carries id {decision.submission.agent_id!r}")
        for name, delta in decision.adjustments.deltas.items():
            if abs(delta) > config.max_step + 1e-15:
                raise ArgumentError(f"{where}: adjustment {name}={delta} exceeds max_step {config.max_step}")

    def decide_step(
        t: int, regs: list[Regulation], threshold: float, views: list[AgentView]
    ) -> dict[str, AgentDecision]:
        out = {}
        for prof, *_ in views:
            key = (t, prof.id)
            if key not in script:
                raise ArgumentError(f"script has no decision for step {t}, agent {prof.id}")
            out[prof.id] = script[key]
        return out

    return _run_engine(config, profiles, initial, corpus, decide_step)


def extract_script(result: SimulationResult) -> dict[tuple[int, str], AgentDecision]:
    """Pull the decisions out of a result for exact replay."""
    return {
        (record.step, aid): agent_record.decision
        for record in result.records
        for aid, agent_record in record.agents.items()
    }


@dataclass(frozen=True)
class ScriptEntry:
    """One entry of a script file: the decision of an agent at a step."""

    step: int
    agent: str
    decision: AgentDecision


def script_entries(script: Mapping[tuple[int, str], AgentDecision]) -> list[ScriptEntry]:
    """A script as the entries of a script file, in (step, agent) order; dump
    them with json.dumps(..., default=json_default)."""
    return [ScriptEntry(step, aid, decision) for (step, aid), decision in sorted(script.items())]


def script_from_json_list(data: list) -> dict[tuple[int, str], AgentDecision]:
    """A script from its JSON entries; ArgumentError for a malformed entry or
    a second entry for the same (step, agent)."""
    script: dict[tuple[int, str], AgentDecision] = {}
    first: dict[tuple[int, str], int] = {}
    for i, raw in enumerate(data):
        entry = from_json(ScriptEntry, raw, f"script entry {i}")
        key = (entry.step, entry.agent)
        if key in first:
            raise ArgumentError(
                f"script entries {first[key]} and {i} both give step {key[0]}, agent {entry.agent!r}"
            )
        first[key] = i
        script[key] = entry.decision
    return script


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _config_from_dict(data) -> SimulationConfig:
    return from_json(SimulationConfig, data, "config")


#: The text of json.dumps(obj, default=json_default, sort_keys=True,
#: separators=(",", ":")); json.dumps with arguments builds a new encoder
#: on every call, this one is built once.
_encode = json.JSONEncoder(default=json_default, sort_keys=True, separators=(",", ":")).encode


def result_to_json_dict(result: SimulationResult) -> dict:
    """The content of result.json as plain dicts and lists, keys sorted."""
    return json.loads(_encode(result))


_CHECKED_NUMBERS = ("state.g", "state.c", "state.m", "market_adaptation")
#: the members of an agent entry of result.json
_AGENT_KEYS = frozenset(f.name for f in fields(AgentStepRecord))
_AGENT_SIZE = len(_AGENT_KEYS)


def _agent_values(obj: dict):
    """The object_hook with which `metrics` parses result.json: an agent
    entry, an object with exactly an AgentStepRecord's members whose
    market_adaptation is a number and whose state is an object holding g, c
    and m, as the tuple (g, c, m, market_adaptation); any other object as it
    is. So each entry's other members are dropped as soon as it is parsed.
    Never raises, so that a syntax error later in the text still wins."""
    if len(obj) != _AGENT_SIZE or obj.keys() != _AGENT_KEYS:
        return obj
    adaptation, state = obj["market_adaptation"], obj["state"]
    number = type(adaptation) is float or type(adaptation) is int
    if number and type(state) is dict and "g" in state and "c" in state and "m" in state:
        return state["g"], state["c"], state["m"], adaptation
    return obj


def _record_columns(i: int, rec, g_cols: dict, c_cols: dict, final_m: dict) -> None:
    """Check record i of a parsed result.json and add it to the columns:
    each agent's g and c appended to its series in g_cols and c_cols, its
    market_adaptation kept in final_m. An agent entry may be an object or
    _agent_values's tuple, which json.loads never makes. ArgumentError when
    the record is not a JSON object, its agents are not a JSON object
    holding record 0's agents, or a state.g, state.c, state.m or
    market_adaptation value is not a number; KeyError or TypeError for a
    missing or mistyped record field, agent entry or state."""
    if not isinstance(rec, dict):
        raise ArgumentError(f"record {i} must be a JSON object, got {rec!r}")
    raw_agents = rec["agents"]
    if not isinstance(raw_agents, dict):
        raise ArgumentError(f"record {i}: agents must be a JSON object, got {raw_agents!r}")
    if i == 0:
        for aid in raw_agents:
            g_cols[aid], c_cols[aid] = [], []
    elif raw_agents.keys() != g_cols.keys():
        raise ArgumentError(
            f"record {i}: agents {sorted(raw_agents)} differ from record 0's {sorted(g_cols)}"
        )
    for aid, ar in raw_agents.items():
        if type(ar) is tuple:
            values = ar
        else:
            state = ar["state"]
            values = (state["g"], state["c"], state["m"], ar["market_adaptation"])
        for name, value in zip(_CHECKED_NUMBERS, values):
            # a float always passes _real; only other values need its check
            if type(value) is not float:
                _real(value, f"record {i}, agent {aid}: {name}")
        g_cols[aid].append(values[0])
        c_cols[aid].append(values[1])
        final_m[aid] = values[3]


@dataclass
class ResultColumns:
    """The part of a result.json that `metrics` reads: per agent, the g and
    c series over the steps and the last step's market adaptation."""

    steps: int
    g: dict[str, list[float]]
    c: dict[str, list[float]]
    final_m: dict[str, float]
    config: SimulationConfig
    profiles: list[ManufacturerProfile]


def result_columns(text: str, where: str) -> ResultColumns:
    """What `metrics` reads of the text of a result.json. The text is parsed
    by parse_json with _agent_values as its object_hook, so four values of
    each agent entry are held beside the text, not the entry. ArgumentError
    naming `where`: parse_json's for text that is not JSON, "must hold a
    JSON object" for any other JSON value, and "malformed result file" for
    content that result_from_json_dict's checks on records, profiles and
    config refuse. Builds no parameters, decisions or other field of a
    record."""
    data = parse_json(text, where, _agent_values)
    if not isinstance(data, dict):
        raise ArgumentError(f"result file {where} must hold a JSON object")
    g_cols, c_cols, final_m = {}, {}, {}
    try:
        records = data["records"]
        if not isinstance(records, list):
            raise ArgumentError("records must be a JSON array")
        for i, rec in enumerate(records):
            _record_columns(i, rec, g_cols, c_cols, final_m)
        profiles = [_profile_from_dict(p, f"profile {i}") for i, p in enumerate(data.get("profiles", []))]
        config = _config_from_dict(data.get("config", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed result file {where}: {exc}") from None
    return ResultColumns(len(records), g_cols, c_cols, final_m, config, profiles)


def result_from_json_dict(data: dict) -> SimulationResult:
    """The inverse of result_to_json_dict. ArgumentError for a value that
    from_json rejects or a record that _record_columns rejects."""
    result = from_json(SimulationResult, data, "result")
    g_cols, c_cols, final_m = {}, {}, {}
    for i, rec in enumerate(data["records"]):
        _record_columns(i, rec, g_cols, c_cols, final_m)
    return result


def _step_text(x: float, texts: dict) -> str:
    """float.__repr__(x), the encoder's text of a finite float x, kept in
    texts for the rest of the step unless x is zero: 0.0 == -0.0, but the
    two have different texts."""
    text = texts.get(x)
    if text is None:
        text = float.__repr__(x)
        if x:
            texts[x] = text
    return text


def _shared_text(o, texts: dict) -> str:
    """The encoder's text of o, kept in texts by id(o): a run shares its
    decisions and coefficient sets across agents and steps, and the result
    holds each, so no id is reused while a writer runs."""
    text = texts.get(id(o))
    if text is None:
        text = texts[id(o)] = _encode(o)
    return text


_RESULT_HEAD = '{"clamp_events":%s,"config":%s,"llm_fallbacks":%s,"profiles":%s,"records":['
_STEP_TAIL = '},"mean_feedback":%s,"phase":%s,"step":%s,"threshold":%s}'
#: an agent entry whose g, c, m, f, compliance cost and time are finite
#: floats, whose market adaptation is its m, and whose approval and ratio
#: are true or false and a finite float, or both null: %r writes a float as
#: float.__repr__ does
_AGENT_FLOATS = (
    '%s:{"approved":%s,"brr":%s,"compliance_cost":%r,"decision":%s,"f":%r,"market_adaptation":%s,'
    '"params":%s,"state":{"c":%r,"g":%r,"m":%s,"t":%s}}'
)


def write_result_json(result: SimulationResult, path) -> None:
    """Compact sorted JSON plus a newline: the text of json.dumps(result,
    default=json_default, sort_keys=True, separators=(",", ":")), written
    one step record at a time. An agent entry that the engine writes (its
    g, c, m, f, compliance cost and time finite floats, exactly float; its
    market adaptation its m; its approval true or false with a finite float
    ratio, or both null) is one format of the _AGENT_FLOATS template, in which
    each agent id, decision and coefficient set is encoded once per file.
    Any other entry is the encoder's text of the record."""

    def steps():
        yield _RESULT_HEAD % tuple(
            _encode(v) for v in (result.clamp_events, result.config, result.llm_fallbacks, result.profiles)
        )
        shared: dict[int, str] = {}
        keys: dict[str, str] = {}
        sep = ""
        for rec in result.records:
            texts: dict[float, str] = {}
            # joined once: a step of many agents is a long text
            pieces = [sep, '{"agents":{']
            comma = ""
            for aid, ar in sorted(rec.agents.items()):
                key = keys.get(aid)
                if key is None:
                    key = keys[aid] = encode_basestring_ascii(aid)
                state, approved, brr = ar.state, ar.approved, ar.brr
                g, c, m, t, f, cost = state.g, state.c, state.m, state.t, ar.f, ar.compliance_cost
                if approved is True or approved is False:
                    verdict, ratio = "true" if approved else "false", brr
                elif approved is None and brr is None:
                    # a decision that does not comply: 0.0 stands in for the ratio
                    verdict, ratio = "null", 0.0
                else:
                    verdict = ratio = None
                if (
                    type(g) is type(c) is type(m) is type(t) is type(f) is type(cost) is type(ratio) is float
                    # all finite: an inf or a nan makes the product nan, as
                    # does a sum past the float range (that entry is encoded)
                    and 0.0 * (g + c + m + t + f + cost + ratio) == 0.0
                    and ar.market_adaptation is m
                ):
                    m = repr(m)
                    # a kept text is never empty: "or" looks it up inline
                    pieces += comma, _AGENT_FLOATS % (
                        key, verdict, "null" if brr is None else texts.get(brr) or _step_text(brr, texts), cost,
                        shared.get(id(ar.decision)) or _shared_text(ar.decision, shared), f, m,
                        shared.get(id(ar.params)) or _shared_text(ar.params, shared),
                        c, g, m, texts.get(t) or _step_text(t, texts),
                    )
                else:
                    pieces += comma, key, ":", _encode(ar)
                comma = ","
            pieces.append(_STEP_TAIL % (
                _encode(rec.mean_feedback), _encode(rec.phase), _encode(rec.step), _encode(rec.threshold),
            ))
            yield "".join(pieces)
            sep = ","
        yield "]}\n"

    _write_text(path, steps())


def _csv_field(text: str) -> str:
    """text as one field of a CSV row, quoted where csv.writer's default
    QUOTE_MINIMAL quotes it: when it holds a comma, a double quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_result_csv(result: SimulationResult, path) -> None:
    """Per-agent trajectory rows: step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation,
    one step at a time. Each number is written as "%.17g", the text of format(x, ".17g");
    each agent id as _csv_field writes it, so csv.reader reads it back whole."""

    def steps():
        yield "step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation\n"
        agent_fields: dict[str, str] = {}
        for rec in result.records:
            threshold = "%.17g" % rec.threshold
            # a step's ratios repeat across agents; -0.0 == 0.0, so zeros are not kept
            brrs: dict[float, str] = {}
            rows = []
            for aid, ar in sorted(rec.agents.items()):
                state, brr = ar.state, ar.brr
                agent = agent_fields.get(aid)
                if agent is None:
                    agent = agent_fields[aid] = _csv_field(aid)
                m = "%.17g" % state.m
                if brr is None:
                    brr_text = ""
                else:
                    brr_text = brrs.get(brr)
                    if brr_text is None:
                        brr_text = "%.17g" % brr
                        if brr:
                            brrs[brr] = brr_text
                rows.append("%d,%s,%.17g,%.17g,%s,%.17g,%s,%s,%s,%.17g,%s\n" % (
                    rec.step, agent, state.g, state.c, m, ar.f, brr_text,
                    "" if ar.approved is None else "true" if ar.approved else "false",
                    threshold, ar.compliance_cost,
                    m if ar.market_adaptation is state.m else "%.17g" % ar.market_adaptation,
                ))
            yield "".join(rows)

    _write_text(path, steps())
