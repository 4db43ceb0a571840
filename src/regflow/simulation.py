"""Multi-agent simulation loop.

Each step: the active regulation set is issued, every manufacturer's
policy decides (comply, bounded parameter adjustments, optional
submission), adjustments are applied, each agent's ODE state advances by
one decision interval of RK4 substeps under its own parameters,
submissions are scored as benefit-risk ratios and decided against the
current threshold, and the threshold is then updated once from the step's
decided ratios. Every step is recorded in full so any run can be replayed
exactly from its own records.

Manufacturers own independent copies of the model state and coefficients;
they interact only through the shared approval threshold (and the recorded
mean feedback, kept for analysis). Within a run, agents whose coefficients
went through the same adjustments hold one shared, immutable
ModelParameters, built once, and each distinct ratio is decided once per
step; the records are those of adjusting and deciding every agent afresh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    _fmt,
    _number,
    _real,
    _write_text,
    advance,
    eval_feedback,
)
from .errors import ArgumentError, NumericalError
from .schema import compact_json, from_json

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
#: What a policy sees of one agent at a step, besides the step's regulations.
AgentView = tuple[ManufacturerProfile, SystemState, PolicyEnv]


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
    decide_step: Callable[[int, list[Regulation], list[AgentView]], dict[str, AgentDecision]],
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
    # (id(coefficients), deltas) -> (coefficients, adjusted): each entry holds
    # its input, so no id is reused while the run lasts
    adjusted: dict[tuple, tuple[ModelParameters, ModelParameters]] = {}

    for t in range(config.total_steps):
        phase = active_phase(t, config.schedule)
        regs = regulations_for(t, corpus, config.schedule)
        views = [
            (
                by_id[aid],
                states[aid],
                PolicyEnv(threshold=threshold, last_approved=last_approved[aid], feedback=feedbacks[aid]),
            )
            for aid in ids
        ]
        decisions = decide_step(t, regs, views)

        step_brrs: list[float] = []
        approvals: dict[float, bool] = {}
        agent_records: dict[str, AgentStepRecord] = {}
        for aid in ids:
            decision = decisions[aid]
            if decision.fallback is not None:
                llm_fallbacks += 1
            p = params[aid]
            deltas = decision.adjustments.deltas
            # 0.0 == -0.0 but the two add to different bits, so a zero delta
            # is never looked up
            if 0.0 in deltas.values():
                p = apply_adjustments(p, decision.adjustments, config.param_bounds)
            else:
                key = (id(p), tuple(deltas.items()))
                hit = adjusted.get(key)
                if hit is None:
                    hit = adjusted[key] = (p, apply_adjustments(p, decision.adjustments, config.param_bounds))
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

            brr_value: float | None = None
            approved: bool | None = None
            if decision.comply:
                brr_value = compute_brr(decision.submission)
                approved = approvals.get(brr_value)
                if approved is None:
                    approved = approvals[brr_value] = decide(brr_value, threshold).approved
                last_approved[aid] = approved
                step_brrs.append(brr_value)

            agent_records[aid] = AgentStepRecord(
                params=p,
                state=new_state,
                f=f,
                decision=decision,
                brr=brr_value,
                approved=approved,
                compliance_cost=cost,
                market_adaptation=new_state.m,
            )

        mean_feedback = sum(feedbacks[aid] for aid in ids) / len(ids)
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
        profiles=[by_id[aid] for aid in ids],
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

        def decide_step(t: int, regs: list[Regulation], views: list[AgentView]) -> dict[str, AgentDecision]:
            decided = memo.setdefault(tuple(regs), {})
            out = {}
            for prof, state, env in views:
                key = (prof.id, env.last_approved)
                decision = decided.get(key)
                if decision is None:
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

        def decide_step(t: int, regs: list[Regulation], views: list[AgentView]) -> dict[str, AgentDecision]:
            futures = {
                prof.id: pool.submit(llm_policy_decide, prof, regs, state, env, client, config.max_step)
                for prof, state, env in views
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

    def decide_step(t: int, regs: list[Regulation], views: list[AgentView]) -> dict[str, AgentDecision]:
        out = {}
        for prof, _state, _env in views:
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


def result_to_json_dict(result: SimulationResult) -> dict:
    """The content of result.json as plain dicts and lists, keys sorted."""
    parts: list[str] = []
    compact_json(result, parts.append)
    return json.loads("".join(parts))


_CHECKED_NUMBERS = ("state.g", "state.c", "state.m", "market_adaptation")


def _record_columns(records) -> tuple[dict[str, list], dict[str, list], dict[str, float]]:
    """One pass over the records of a parsed result.json, checking each:
    ArgumentError when the records are not a JSON array of objects, a
    record's agents are not a JSON object holding record 0's agents, or a
    state.g, state.c, state.m or market_adaptation value is not a number;
    KeyError or TypeError for a missing or mistyped record field, agent
    entry or state. Returns each agent's g series, its c series and its
    last market_adaptation."""
    if not isinstance(records, list):
        raise ArgumentError("records must be a JSON array")
    g_cols: dict[str, list] = {}
    c_cols: dict[str, list] = {}
    raw_agents: dict = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ArgumentError(f"record {i} must be a JSON object, got {rec!r}")
        raw_agents = rec["agents"]
        if not isinstance(raw_agents, dict):
            raise ArgumentError(f"record {i}: agents must be a JSON object, got {raw_agents!r}")
        if i == 0:
            g_cols = {aid: [] for aid in raw_agents}
            c_cols = {aid: [] for aid in raw_agents}
        elif raw_agents.keys() != g_cols.keys():
            raise ArgumentError(
                f"record {i}: agents {sorted(raw_agents)} differ from record 0's {sorted(g_cols)}"
            )
        for aid, ar in raw_agents.items():
            state = ar["state"]
            values = (state["g"], state["c"], state["m"], ar["market_adaptation"])
            for name, value in zip(_CHECKED_NUMBERS, values):
                # a float always passes _real; only other values need its check
                if type(value) is not float:
                    _real(value, f"record {i}, agent {aid}: {name}")
            g_cols[aid].append(values[0])
            c_cols[aid].append(values[1])
    final_m = {aid: ar["market_adaptation"] for aid, ar in raw_agents.items()}
    return g_cols, c_cols, final_m


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


def result_columns(data: dict) -> ResultColumns:
    """Read a parsed result.json for `metrics`, with the checks of
    result_from_json_dict on records, profiles and config, without building
    parameters, decisions or any other field of a record."""
    g, c, final_m = _record_columns(data["records"])
    profiles = [_profile_from_dict(p, f"profile {i}") for i, p in enumerate(data.get("profiles", []))]
    config = _config_from_dict(data.get("config", {}))
    return ResultColumns(
        steps=len(data["records"]), g=g, c=c, final_m=final_m, config=config, profiles=profiles
    )


def result_from_json_dict(data: dict) -> SimulationResult:
    """The inverse of result_to_json_dict. ArgumentError for a value that
    from_json rejects or a record that _record_columns rejects."""
    result = from_json(SimulationResult, data, "result")
    _record_columns(data["records"])
    return result


def write_result_json(result: SimulationResult, path) -> None:
    """Compact sorted JSON plus a newline, the text of schema.compact_json,
    written in chunks as it is encoded."""

    def fill(write):
        compact_json(result, write)
        write("\n")

    _write_text(path, fill)


def write_result_csv(result: SimulationResult, path) -> None:
    """Per-agent trajectory rows: step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation."""
    # M and adaptation are one value and a step's ratios repeat across agents:
    # each nonzero one is formatted once. -0.0 == 0.0, so zeros are not kept.
    texts: dict[float, str] = {}

    def fmt(x: float) -> str:
        text = texts.get(x)
        if text is None:
            text = _fmt(x)
            if x:
                texts[x] = text
        return text

    def rows():
        yield "step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation\n"
        for rec in result.records:
            threshold = _fmt(rec.threshold)
            for aid in sorted(rec.agents):
                ar = rec.agents[aid]
                brr = "" if ar.brr is None else fmt(ar.brr)
                approved = "" if ar.approved is None else ("true" if ar.approved else "false")
                yield (
                    f"{rec.step},{aid},{_fmt(ar.state.g)},{_fmt(ar.state.c)},"
                    f"{fmt(ar.state.m)},{_fmt(ar.f)},{brr},{approved},"
                    f"{threshold},{_fmt(ar.compliance_cost)},{fmt(ar.market_adaptation)}\n"
                )

    _write_text(path, rows())
