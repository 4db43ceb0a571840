"""Command-line front end.

Subcommands:

    simulate      run the multi-agent loop, write result.json / trajectories.csv
    calibrate     fit the 13 coefficients to an observed series (CSV in, JSON out)
    sweep         single-parameter sensitivity sweep, CSV out
    metrics       adherence/stability per agent plus tier group statistics
    corpus print  dump the regulation corpus as JSON

Exit codes: 0 success, 2 input or configuration error, 3 numerical error.
The only randomness is in calibrate, whose --seed draws the restart
points; simulate records its --seed in result.json and draws nothing from
it. The API key for the llm policy is read from the environment variable
named by llm.api_key_env (default REGFLOW_API_KEY), never from a flag or
a file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

from .agents import ClientConfig, DEFAULT_PROFILES, ManufacturerProfile, _profile_from_dict
from .analysis import (
    DEFAULT_EPSILON,
    OUTPUT_NAMES,
    bonferroni_pairwise,
    metrics_report,
    sweep,
    welch_anova,
    write_sweep_csv,
)
from .calibration import (
    FitOptions,
    fit,
    read_series_csv,
)
from .corpus import build_default_corpus, load_corpus
from .dynamics import (
    DEFAULT_INITIAL_STATE,
    DEFAULT_PARAMETERS,
    ModelParameters,
    SystemState,
    _bounds_from_json,
    _number,
    _write_text,
)
from .errors import ArgumentError, NumericalError
from .schema import from_json, json_default, read_text
from .schema import read_json as _load_json  # bench/tracing.py wraps it by this module's name
from .simulation import (
    POLICY_KINDS,
    SimulationConfig,
    default_initial,
    result_columns,
    result_from_json_dict,  # unused here; bench/tracing.py wraps it by this module's name
    run,
    run_scripted,
    script_from_json_list,
    write_result_csv,
    write_result_json,
)

FORMATS = ("csv", "json")


def _coefficients(data, where: str) -> ModelParameters:
    """DEFAULT_PARAMETERS overlaid with a JSON object {name: number}."""
    return from_json(ModelParameters, data, where, vars(DEFAULT_PARAMETERS))


@dataclass(frozen=True)
class InitialState:
    """`initial.state` of a config file: one start, at t = 0, for every agent."""

    g: float = DEFAULT_INITIAL_STATE.g
    c: float = DEFAULT_INITIAL_STATE.c
    m: float = DEFAULT_INITIAL_STATE.m
    system_state: SystemState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "system_state", SystemState(0.0, self.g, self.c, self.m))


@dataclass(frozen=True)
class Initial:
    """`initial` of a config file. Without a state each agent starts where
    default_initial puts it."""

    params: ModelParameters = field(default=DEFAULT_PARAMETERS, metadata={"load": _coefficients})
    state: InitialState = None


@dataclass(frozen=True)
class ConfigFile(SimulationConfig):
    """A --config file: the keys of a SimulationConfig, the start, and input
    paths that the matching command-line options override."""

    initial: Initial | None = None
    profiles_file: str = None
    corpus_file: str = None
    script_file: str = None


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _write_json(obj, path: str) -> None:
    """fit.json and metrics.json: sorted keys, indent 2, a final newline. The
    text is built before the file is opened, so a value JSON cannot hold
    raises TypeError and leaves an earlier file whole."""
    _write_text(path, (json.dumps(obj, default=json_default, sort_keys=True, indent=2), "\n"))


def _load_profiles(path: str | None) -> list[ManufacturerProfile]:
    if path is None:
        return list(DEFAULT_PROFILES)
    data = _load_json(path)
    if not isinstance(data, list):
        raise ArgumentError(f"profile file {path} must hold a JSON array")
    return [_profile_from_dict(entry, f"profile entry {i}") for i, entry in enumerate(data)]


def _parse_formats(spec: str) -> set[str]:
    formats = {part.strip() for part in spec.split(",") if part.strip()}
    if not formats:
        raise ArgumentError("--format must name at least one of csv, json")
    unknown = formats - set(FORMATS)
    if unknown:
        raise ArgumentError(f"unknown output formats: {sorted(unknown)}")
    return formats


def _ensure_outdir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ArgumentError(f"cannot create output directory {path}: {exc}") from None
    if not os.access(path, os.W_OK):
        raise ArgumentError(f"output directory {path} is not writable")
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    manifest = from_json(ConfigFile, {} if args.config is None else _load_json(args.config), "config")
    settings = {f.name: getattr(manifest, f.name) for f in fields(SimulationConfig)}
    for name, flag in (("seed", args.seed), ("total_steps", args.steps), ("policy_kind", args.policy)):
        if flag is not None:
            settings[name] = flag
    if args.llm_endpoint is not None:
        settings["llm"] = (
            ClientConfig(endpoint=args.llm_endpoint)
            if manifest.llm is None
            else replace(manifest.llm, endpoint=args.llm_endpoint)
        )
    config = SimulationConfig(**settings)
    formats = _parse_formats(args.format)

    profiles = _load_profiles(args.profiles or manifest.profiles_file)
    corpus_file = args.corpus or manifest.corpus_file
    corpus = load_corpus(corpus_file) if corpus_file else build_default_corpus()

    start = manifest.initial or Initial()
    if start.state is None:
        initial = default_initial(profiles, start.params)
    else:
        initial = {p.id: (start.params, start.state.system_state) for p in profiles}

    if config.policy_kind == "scripted":
        script_file = args.script or manifest.script_file
        if script_file is None:
            raise ArgumentError("policy 'scripted' requires --script or config script_file")
        script_data = _load_json(script_file)
        if not isinstance(script_data, list):
            raise ArgumentError(f"script file {script_file} must hold a JSON array")
        script = script_from_json_list(script_data)
        result = run_scripted(config, profiles, initial, corpus, script)
    else:
        result = run(config, profiles, initial, corpus)

    outdir = _ensure_outdir(args.out)
    if "json" in formats:
        write_result_json(result, os.path.join(outdir, "result.json"))
    if "csv" in formats:
        write_result_csv(result, os.path.join(outdir, "trajectories.csv"))

    approvals = sum(
        1 for rec in result.records for ar in rec.agents.values() if ar.approved
    )
    final_threshold = result.records[-1].threshold
    print(
        f"steps={len(result.records)} approvals={approvals} "
        f"final_threshold={final_threshold:.4f}"
    )
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args: argparse.Namespace) -> int:
    obs = read_series_csv(args.obs)
    guess = DEFAULT_PARAMETERS
    if args.guess is not None:
        guess = _coefficients(_load_json(args.guess), f"guess file {args.guess}")
    bounds = None
    if args.bounds is not None:
        bounds = _bounds_from_json(_load_json(args.bounds), f"bounds file {args.bounds}")
    options = FitOptions(
        max_iter=args.max_iter, tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    result = fit(obs, guess, bounds=bounds, options=options, dt=args.dt)
    outdir = _ensure_outdir(args.out)
    _write_json(result.to_json_dict(), os.path.join(outdir, "fit.json"))
    print(
        f"objective={result.objective_value:.12g} converged={result.converged} "
        f"iterations={result.iterations} restarts_used={result.restarts_used}"
    )
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_values(spec: str) -> list[float]:
    try:
        values = [float(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise ArgumentError(f"cannot parse --values: {exc}") from None
    if not values:
        raise ArgumentError("--values must name at least one number")
    return values


def _parse_state(spec: str) -> SystemState:
    parts = spec.split(",")
    if len(parts) != 3:
        raise ArgumentError("--initial must be three comma-separated numbers g,c,m")
    try:
        g, c, m = (float(p) for p in parts)
    except ValueError as exc:
        raise ArgumentError(f"cannot parse --initial: {exc}") from None
    return SystemState(t=0.0, g=g, c=c, m=m)


def cmd_sweep(args: argparse.Namespace) -> int:
    params = DEFAULT_PARAMETERS
    if args.params is not None:
        params = _coefficients(_load_json(args.params), f"params file {args.params}")
    initial = _parse_state(args.initial) if args.initial else DEFAULT_INITIAL_STATE
    values = _parse_values(args.values)
    result = sweep(params, initial, args.horizon, args.dt, args.parameter, values)
    outdir = _ensure_outdir(args.out)
    write_sweep_csv(result, os.path.join(outdir, "sweep.csv"))

    def fmt_rate(r: float) -> str:
        return "undef" if math.isnan(r) else f"{r:+.3f}"

    for i, v in enumerate(result.values):
        rates = " ".join(
            f"rate_{name}={fmt_rate(result.change_rates[name][i])}"
            for name in OUTPUT_NAMES
        )
        print(f"{result.parameter}={v:g}: {rates}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _parse_groups_spec(spec: str, profiles: list[ManufacturerProfile]) -> dict[str, list[str]]:
    if spec == "auto":
        groups: dict[str, list[str]] = {}
        if not profiles:
            raise ArgumentError("result carries no profiles; pass an explicit --groups spec")
        for profile in profiles:
            groups.setdefault(profile.resource_tier, []).append(profile.id)
        return {name: sorted(ids) for name, ids in sorted(groups.items())}
    groups = {}
    seen: set[str] = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ArgumentError(f"bad --groups entry {part!r}; expected name:id,id,...")
        name, ids = part.split(":", 1)
        name = name.strip()
        if name in groups:
            raise ArgumentError(f"group {name!r} appears twice in --groups")
        members = [a.strip() for a in ids.split(",") if a.strip()]
        if not members:
            raise ArgumentError(f"group {name!r} has no members")
        for aid in members:
            if aid in seen:
                raise ArgumentError(f"agent {aid!r} appears twice in --groups")
            seen.add(aid)
        groups[name] = members
    if not groups:
        raise ArgumentError("--groups spec is empty")
    return groups


def cmd_metrics(args: argparse.Namespace) -> int:
    text = read_text(args.result)
    columns = result_columns(text, args.result)
    del text
    if not columns.steps:
        raise ArgumentError("result contains no step records")
    # checked here, not only in adherence_accuracy: a result without agents never calls it
    _number(args.epsilon, "epsilon", positive=True)

    agent_ids = sorted(columns.final_m)
    report: dict = {"epsilon": args.epsilon, "per_agent": {}}
    for aid in agent_ids:
        try:
            rep = metrics_report(columns.c[aid], columns.g[aid], args.epsilon)
        except NumericalError as exc:
            raise NumericalError(f"agent {aid}: {exc}") from None
        report["per_agent"][aid] = rep
        print(
            f"{aid}: adherence={rep.adherence_accuracy:.4f} "
            f"stability={rep.compliance_stability:.6g} "
            f"mean_C={rep.mean_compliance:.4f}"
        )

    if args.groups is not None:
        groups = _parse_groups_spec(args.groups, columns.profiles)
        missing = [a for ids in groups.values() for a in ids if a not in columns.final_m]
        if missing:
            raise ArgumentError(f"group members not present in result: {missing}")
        labels = list(groups.keys())
        samples = [[columns.final_m[a] for a in groups[name]] for name in labels]
        anova = welch_anova(samples)
        pairwise = bonferroni_pairwise(samples, labels=labels)
        report["groups"] = {
            "members": groups,
            "welch_anova": anova,
            "pairwise": pairwise,
        }
        print(
            f"welch: F({anova.df1}, {anova.df2:.2f})={anova.f_stat:.4g} "
            f"p={anova.p_value:.4g} variance_explained={anova.variance_explained:.4f}"
        )
        for p in pairwise:
            print(f"pairwise {p.pair[0]} vs {p.pair[1]}: p_raw={p.p_raw:.4g} p_adj={p.p_adjusted:.4g}")

    outdir = _ensure_outdir(args.out)
    _write_json(report, os.path.join(outdir, "metrics.json"))
    return 0


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def cmd_corpus_print(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else build_default_corpus()
    print(json.dumps(corpus, default=json_default, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves
    it as it was."""
    parser = argparse.ArgumentParser(
        prog="regflow",
        description="Regulator/manufacturer feedback simulation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the multi-agent simulation")
    sim.add_argument("--config", help="JSON config file (all fields optional)")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--steps", type=int, default=None, help="override total steps")
    sim.add_argument("--policy", choices=POLICY_KINDS, default=None)
    sim.add_argument("--llm-endpoint", default=None, help="chat-completions URL")
    sim.add_argument("--profiles", default=None, help="manufacturer profiles JSON")
    sim.add_argument("--corpus", default=None, help="regulation corpus JSON")
    sim.add_argument("--script", default=None, help="scripted decisions JSON")
    sim.add_argument("--format", default="csv,json", help="outputs to write: csv,json")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="fit coefficients to an observed series")
    cal.add_argument("--obs", required=True, help="observed series CSV (t,G,C,M,F)")
    cal.add_argument("--guess", default=None, help="initial-guess JSON")
    cal.add_argument("--bounds", default=None, help="per-field bounds JSON")
    cal.add_argument("--out", default=".", help="output directory")
    cal.add_argument(
        "--max-iter",
        type=int,
        default=2000,
        help="Levenberg-Marquardt iterations per start; each builds one 13-column Jacobian",
    )
    cal.add_argument("--tol", type=float, default=1e-10)
    cal.add_argument("--restarts", type=int, default=0)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--dt", type=float, default=0.05)
    cal.set_defaults(func=cmd_calibrate)

    sw = sub.add_parser("sweep", help="single-parameter sensitivity sweep")
    sw.add_argument("--parameter", required=True, help="coefficient to vary")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--params", default=None, help="baseline coefficients JSON")
    sw.add_argument("--initial", default=None, help="initial state g,c,m")
    sw.add_argument("--horizon", type=float, default=10.0)
    sw.add_argument("--dt", type=float, default=0.05)
    sw.add_argument("--out", default=".", help="output directory")
    sw.set_defaults(func=cmd_sweep)

    met = sub.add_parser("metrics", help="evaluation metrics over a result file")
    met.add_argument("--result", required=True, help="result.json from simulate")
    met.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    met.add_argument(
        "--groups",
        default=None,
        help="'auto' for resource tiers, or name:id,id;name2:id,...",
    )
    met.add_argument("--out", default=".", help="output directory")
    met.set_defaults(func=cmd_metrics)

    cor = sub.add_parser("corpus", help="corpus utilities")
    cor_sub = cor.add_subparsers(dest="corpus_command", required=True)
    cor_print = cor_sub.add_parser("print", help="dump the corpus as JSON")
    cor_print.add_argument("--corpus", default=None, help="corpus JSON file")
    cor_print.set_defaults(func=cmd_corpus_print)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        step = "" if exc.step_index is None else f" (step {exc.step_index})"
        print(f"numerical error{step}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
