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
mean feedback, kept for analysis).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

from .agents import (
    DEFAULT_MAX_STEP,
    AgentDecision,
    ClientConfig,
    ManufacturerProfile,
    ParameterAdjustment,
    PolicyEnv,
    _profile_from_dict,
    apply_adjustments,
    llm_policy_decide,
    rule_policy_decide,
)
from .brr import Submission, ThresholdConfig, compute_brr, decide, update_threshold
from .corpus import Regulation, Schedule, active_phase, regulations_for
from .dynamics import (
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    _bounds_from_json,
    _fmt,
    _integer,
    _real,
    advance,
    eval_feedback,
)
from .errors import ArgumentError, NumericalError

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


@dataclass
class SimulationConfig:
    total_steps: int = 73
    dt_per_step: float = 0.05
    inner_substeps: int = 20
    schedule: Schedule = field(default_factory=Schedule)
    threshold_cfg: ThresholdConfig = field(default_factory=ThresholdConfig)
    param_bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_PARAM_BOUNDS)
    )
    max_step: float = DEFAULT_MAX_STEP
    seed: int = 0
    policy_kind: str = "rule"
    llm: ClientConfig | None = None
    llm_concurrency: int = 4


def _check_config(config: SimulationConfig) -> None:
    if not (isinstance(config.total_steps, int) and config.total_steps >= 1):
        raise ArgumentError(f"total_steps must be >= 1, got {config.total_steps!r}")
    if not (isinstance(config.inner_substeps, int) and config.inner_substeps >= 1):
        raise ArgumentError(f"inner_substeps must be >= 1, got {config.inner_substeps!r}")
    if not (math.isfinite(config.dt_per_step) and config.dt_per_step > 0.0):
        raise ArgumentError(f"dt_per_step must be positive, got {config.dt_per_step!r}")
    if config.policy_kind not in POLICY_KINDS:
        raise ArgumentError(f"policy_kind must be one of {POLICY_KINDS}, got {config.policy_kind!r}")
    if not (math.isfinite(config.max_step) and config.max_step > 0.0):
        raise ArgumentError(f"max_step must be positive, got {config.max_step!r}")
    if not (isinstance(config.llm_concurrency, int) and config.llm_concurrency >= 1):
        raise ArgumentError(f"llm_concurrency must be >= 1, got {config.llm_concurrency!r}")


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
DecideFn = Callable[[int, ManufacturerProfile, list[Regulation], SystemState, PolicyEnv], AgentDecision]


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


def _check_decision(decision: AgentDecision, agent_id: str, max_step: float) -> None:
    if decision.comply:
        if decision.submission is None:
            raise ArgumentError(f"agent {agent_id}: comply decision without a submission")
        if decision.submission.agent_id != agent_id:
            raise ArgumentError(
                f"agent {agent_id}: submission carries id {decision.submission.agent_id!r}"
            )
    for name, delta in decision.adjustments.deltas.items():
        if abs(delta) > max_step + 1e-15:
            raise ArgumentError(
                f"agent {agent_id}: adjustment {name}={delta} exceeds max_step {max_step}"
            )


def _run_engine(
    config: SimulationConfig,
    profiles: list[ManufacturerProfile],
    initial: Mapping[str, AgentInit],
    corpus: list[Regulation],
    decide_step: Callable[[int, list], dict[str, AgentDecision]],
) -> SimulationResult:
    _check_config(config)
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

    for t in range(config.total_steps):
        phase = active_phase(t, config.schedule)
        regs = regulations_for(t, corpus, config.schedule)
        items = [
            (
                by_id[aid],
                regs,
                states[aid],
                PolicyEnv(threshold=threshold, last_approved=last_approved[aid], feedback=feedbacks[aid]),
            )
            for aid in ids
        ]
        decisions = decide_step(t, items)

        step_brrs: list[float] = []
        agent_records: dict[str, AgentStepRecord] = {}
        for aid in ids:
            decision = decisions[aid]
            _check_decision(decision, aid, config.max_step)
            if decision.fallback is not None:
                llm_fallbacks += 1
            params[aid] = apply_adjustments(params[aid], decision.adjustments, config.param_bounds)
            try:
                new_state, f, cost, clamps = advance(
                    states[aid], params[aid], config.dt_per_step, config.inner_substeps
                )
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
                approved = decide(brr_value, threshold).approved
                last_approved[aid] = approved
                step_brrs.append(brr_value)

            agent_records[aid] = AgentStepRecord(
                params=params[aid],
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
    """Run the configured policy for total_steps steps."""
    _check_config(config)
    pool: ThreadPoolExecutor | None = None
    if config.policy_kind == "rule":

        def decide_step(t: int, items: list) -> dict[str, AgentDecision]:
            return {
                prof.id: rule_policy_decide(prof, regs, state, env, config.max_step)
                for prof, regs, state, env in items
            }

    elif config.policy_kind == "llm":
        if config.llm is None:
            raise ArgumentError("policy_kind 'llm' requires config.llm client settings")
        client = config.llm
        workers = min(config.llm_concurrency, len(profiles))
        if workers > 1:
            # one pool for the whole run, shut down in the finally below
            pool = ThreadPoolExecutor(max_workers=workers)

        def decide_step(t: int, items: list) -> dict[str, AgentDecision]:
            if pool is None:
                return {
                    prof.id: llm_policy_decide(prof, regs, state, env, client, config.max_step)
                    for prof, regs, state, env in items
                }
            futures = {
                prof.id: pool.submit(llm_policy_decide, prof, regs, state, env, client, config.max_step)
                for prof, regs, state, env in items
            }
            return {aid: fut.result() for aid, fut in futures.items()}

    elif config.policy_kind == "scripted":
        raise ArgumentError("policy_kind 'scripted' requires run_scripted with a script")
    else:  # pragma: no cover - guarded by _check_config
        raise ArgumentError(f"unknown policy_kind {config.policy_kind!r}")

    try:
        return _run_engine(config, profiles, initial, corpus, decide_step)
    finally:
        if pool is not None:
            pool.shutdown()


def run_scripted(
    config: SimulationConfig,
    profiles: list[ManufacturerProfile],
    initial: Mapping[str, AgentInit],
    corpus: list[Regulation],
    script: Mapping[tuple[int, str], AgentDecision],
) -> SimulationResult:
    """Replay decisions from a script keyed by (step, agent_id). Every key
    must name a step of the run and an agent of the roster."""
    _check_config(config)
    ids = {p.id for p in profiles}
    for step, aid in sorted(script):
        if aid not in ids:
            raise ArgumentError(
                f"script entry for step {step} names agent {aid!r}, which is not in the roster"
            )
        if not 0 <= step < config.total_steps:
            raise ArgumentError(
                f"script entry for agent {aid!r} has step {step}, outside 0-{config.total_steps - 1}"
            )

    def decide_step(t: int, items: list) -> dict[str, AgentDecision]:
        out = {}
        for prof, _regs, _state, _env in items:
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


def script_to_json_list(script: Mapping[tuple[int, str], AgentDecision]) -> list[dict]:
    return [
        {"step": step, "agent": aid, "decision": _decision_to_dict(decision)}
        for (step, aid), decision in sorted(script.items())
    ]


def script_from_json_list(data: list[dict]) -> dict[tuple[int, str], AgentDecision]:
    """A script from its JSON entries; ArgumentError for a malformed entry or
    a second entry for the same (step, agent)."""
    script: dict[tuple[int, str], AgentDecision] = {}
    first: dict[tuple[int, str], int] = {}
    for i, entry in enumerate(data):
        try:
            agent = entry["agent"]
            if not isinstance(agent, str):
                raise ArgumentError(f"agent must be a string, got {agent!r}")
            key = (_integer(entry["step"], "step"), agent)
            script[key] = _decision_from_dict(entry["decision"])
        except (ArgumentError, KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"script entry {i} is invalid: {exc}") from None
        if key in first:
            raise ArgumentError(
                f"script entries {first[key]} and {i} both give step {key[0]}, agent {agent!r}"
            )
        first[key] = i
    return script


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _params_to_dict(p: ModelParameters) -> dict:
    return {name: getattr(p, name) for name in PARAM_FIELDS}


def _state_to_dict(s: SystemState) -> dict:
    return {"t": s.t, "g": s.g, "c": s.c, "m": s.m}


def _submission_to_dict(s: Submission | None) -> dict | None:
    if s is None:
        return None
    return {
        "agent_id": s.agent_id,
        "safety": s.safety,
        "effectiveness": s.effectiveness,
        "compliance": s.compliance,
        "adverse": s.adverse,
        "regulation_ids": list(s.regulation_ids),
        "narrative": s.narrative,
    }


def _decision_to_dict(d: AgentDecision) -> dict:
    return {
        "comply": d.comply,
        "adjustments": dict(d.adjustments.deltas),
        "submission": _submission_to_dict(d.submission),
        "rationale": d.rationale,
        "warnings": list(d.warnings),
        "fallback": d.fallback,
    }


def _decision_from_dict(data: dict) -> AgentDecision:
    if not isinstance(data, dict):
        raise ArgumentError(f"decision must be a JSON object, got {data!r}")
    sub = data.get("submission")
    if not (sub is None or isinstance(sub, dict)):
        raise ArgumentError(f"decision.submission must be a JSON object or null, got {sub!r}")
    submission = None
    if sub is not None:
        submission = Submission(
            agent_id=sub["agent_id"],
            safety=sub["safety"],
            effectiveness=sub["effectiveness"],
            compliance=sub["compliance"],
            adverse=sub["adverse"],
            regulation_ids=tuple(sub.get("regulation_ids", ())),
            narrative=sub.get("narrative", ""),
        )
    return AgentDecision(
        comply=data["comply"],
        adjustments=ParameterAdjustment(deltas=dict(data.get("adjustments", {}))),
        submission=submission,
        rationale=data.get("rationale", ""),
        warnings=tuple(data.get("warnings", ())),
        fallback=data.get("fallback"),
    )


def _config_to_dict(config: SimulationConfig) -> dict:
    return {
        "total_steps": config.total_steps,
        "dt_per_step": config.dt_per_step,
        "inner_substeps": config.inner_substeps,
        "schedule": {
            "strict_steps": config.schedule.strict_steps,
            "lenient_steps": config.schedule.lenient_steps,
            "cycle": config.schedule.cycle,
        },
        "threshold": {
            "base": config.threshold_cfg.base,
            "kappa": config.threshold_cfg.kappa,
            "window": config.threshold_cfg.window,
            "floor": config.threshold_cfg.floor,
            "ceiling": config.threshold_cfg.ceiling,
        },
        "param_bounds": {k: list(v) for k, v in config.param_bounds.items()},
        "max_step": config.max_step,
        "seed": config.seed,
        "policy_kind": config.policy_kind,
        "llm": None if config.llm is None else asdict(config.llm),
        "llm_concurrency": config.llm_concurrency,
    }


def _object(data: dict, key: str) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ArgumentError(f"{key} must be a JSON object, got {value!r}")
    return value


#: The keys a config object may hold, by the path of the object that holds
#: them: a `--config` file and the `config` of a result.json. The llm block,
#: param_bounds and initial.params check their own keys.
CONFIG_KEYS = {
    (): (
        "total_steps", "dt_per_step", "inner_substeps", "schedule", "threshold",
        "param_bounds", "max_step", "seed", "policy_kind", "llm", "llm_concurrency",
        "initial", "profiles_file", "corpus_file", "script_file",
    ),
    ("schedule",): ("strict_steps", "lenient_steps", "cycle"),
    ("threshold",): ("base", "kappa", "window", "floor", "ceiling"),
    ("initial",): ("params", "state"),
    ("initial", "state"): ("g", "c", "m"),
}


def _check_config_keys(raw: dict) -> None:
    """ArgumentError for a key CONFIG_KEYS does not list. An object of the
    wrong type is left to the code that reads it."""
    for path, allowed in CONFIG_KEYS.items():
        obj = raw
        for part in path:
            obj = obj.get(part) if isinstance(obj, dict) else None
        if isinstance(obj, dict):
            unknown = sorted(set(obj) - set(allowed))
            if unknown:
                raise ArgumentError(f"{'.'.join(('config',) + path)} has unknown keys: {unknown}")


def _config_from_dict(data: dict) -> SimulationConfig:
    _check_config_keys(data)
    sched = _object(data, "schedule")
    thr = _object(data, "threshold")
    cycle = sched.get("cycle", True)
    if not isinstance(cycle, bool):
        raise ArgumentError(f"schedule.cycle must be true or false, got {cycle!r}")
    bounds_raw = data.get("param_bounds")
    bounds = _bounds_from_json({} if bounds_raw is None else bounds_raw, "param_bounds")
    llm_raw = data.get("llm")
    return SimulationConfig(
        total_steps=_integer(data.get("total_steps", 73), "total_steps"),
        dt_per_step=_real(data.get("dt_per_step", 0.05), "dt_per_step"),
        inner_substeps=_integer(data.get("inner_substeps", 20), "inner_substeps"),
        schedule=Schedule(
            strict_steps=_integer(sched.get("strict_steps", 10), "schedule.strict_steps"),
            lenient_steps=_integer(sched.get("lenient_steps", 5), "schedule.lenient_steps"),
            cycle=cycle,
        ),
        threshold_cfg=ThresholdConfig(
            base=_real(thr.get("base", 4.0), "threshold.base"),
            kappa=_real(thr.get("kappa", 0.3), "threshold.kappa"),
            window=_integer(thr.get("window", 10), "threshold.window"),
            floor=_real(thr.get("floor", 2.0), "threshold.floor"),
            ceiling=_real(thr.get("ceiling", 8.0), "threshold.ceiling"),
        ),
        param_bounds=bounds,
        max_step=_real(data.get("max_step", DEFAULT_MAX_STEP), "max_step"),
        seed=_integer(data.get("seed", 0), "seed"),
        policy_kind=str(data.get("policy_kind", "rule")),
        llm=None if llm_raw is None else ClientConfig.from_dict(llm_raw),
        llm_concurrency=_integer(data.get("llm_concurrency", 4), "llm_concurrency"),
    )


def result_to_json_dict(result: SimulationResult) -> dict:
    return {
        "config": _config_to_dict(result.config),
        "profiles": [asdict(p) for p in result.profiles],
        "clamp_events": result.clamp_events,
        "llm_fallbacks": result.llm_fallbacks,
        "records": [
            {
                "step": rec.step,
                "phase": rec.phase,
                "threshold": rec.threshold,
                "mean_feedback": rec.mean_feedback,
                "agents": {
                    aid: {
                        "params": _params_to_dict(ar.params),
                        "state": _state_to_dict(ar.state),
                        "f": ar.f,
                        "decision": _decision_to_dict(ar.decision),
                        "brr": ar.brr,
                        "approved": ar.approved,
                        "compliance_cost": ar.compliance_cost,
                        "market_adaptation": ar.market_adaptation,
                    }
                    for aid, ar in sorted(rec.agents.items())
                },
            }
            for rec in result.records
        ],
    }


_CHECKED_NUMBERS = ("state.g", "state.c", "state.m", "market_adaptation")


def _record_columns(records) -> tuple[dict[str, list], dict[str, list], dict[str, float]]:
    """One pass over the records of a parsed result.json, checking each:
    ArgumentError when a record's agents are not a JSON object holding
    record 0's agents, or a state.g, state.c, state.m or market_adaptation
    value is not a number; KeyError or TypeError for a missing or mistyped
    record, agent entry or state. Returns each agent's g series, its c
    series and its last market_adaptation."""
    g_cols: dict[str, list] = {}
    c_cols: dict[str, list] = {}
    raw_agents: dict = {}
    for i, rec in enumerate(records):
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


def _result_header(data: dict) -> tuple[SimulationConfig, list[ManufacturerProfile]]:
    """The checked config and profiles of a parsed result.json."""
    profiles = [
        _profile_from_dict(p, f"profile {i}") for i, p in enumerate(data.get("profiles", []))
    ]
    return _config_from_dict(_object(data, "config")), profiles


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
    config, profiles = _result_header(data)
    return ResultColumns(
        steps=len(data["records"]), g=g, c=c, final_m=final_m, config=config, profiles=profiles
    )


def result_from_json_dict(data: dict) -> SimulationResult:
    """The inverse of result_to_json_dict, with the checks of _record_columns
    and _result_header; other malformed input raises KeyError, TypeError or
    ValueError."""
    _record_columns(data["records"])
    records = [
        StepRecord(
            step=rec["step"],
            phase=rec["phase"],
            agents={
                aid: AgentStepRecord(
                    params=ModelParameters(**ar["params"]),
                    state=SystemState(**ar["state"]),
                    f=ar["f"],
                    decision=_decision_from_dict(ar["decision"]),
                    brr=ar["brr"],
                    approved=ar["approved"],
                    compliance_cost=ar["compliance_cost"],
                    market_adaptation=ar["market_adaptation"],
                )
                for aid, ar in rec["agents"].items()
            },
            threshold=rec["threshold"],
            mean_feedback=rec["mean_feedback"],
        )
        for rec in data["records"]
    ]
    config, profiles = _result_header(data)
    return SimulationResult(
        records=records,
        config=config,
        profiles=profiles,
        clamp_events=int(data.get("clamp_events", 0)),
        llm_fallbacks=int(data.get("llm_fallbacks", 0)),
    )


def write_result_json(result: SimulationResult, path) -> None:
    """Compact sorted JSON plus a newline. The newline is a second write:
    appending it to the text would copy the whole document once more."""
    text = json.dumps(result_to_json_dict(result), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def write_result_csv(result: SimulationResult, path) -> None:
    """Per-agent trajectory rows: step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation\n")
        for rec in result.records:
            for aid in sorted(rec.agents):
                ar = rec.agents[aid]
                brr = "" if ar.brr is None else _fmt(ar.brr)
                approved = "" if ar.approved is None else ("true" if ar.approved else "false")
                fh.write(
                    f"{rec.step},{aid},{_fmt(ar.state.g)},{_fmt(ar.state.c)},"
                    f"{_fmt(ar.state.m)},{_fmt(ar.f)},{brr},{approved},"
                    f"{_fmt(rec.threshold)},{_fmt(ar.compliance_cost)},"
                    f"{_fmt(ar.market_adaptation)}\n"
                )
