"""The JSON boundary (regflow.schema): the dataclass loader, the json.dumps
hook and round trips through them, and the CLI's exit codes on arbitrary
and mutated JSON inputs."""

import contextlib
import copy
import io
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regflow.agents import DEFAULT_PROFILES, AgentDecision, ParameterAdjustment
from regflow.brr import Submission
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.cli import main
from regflow.corpus import Schedule, build_default_corpus
from regflow.dynamics import DEFAULT_PARAMETERS, PARAM_FIELDS, SystemState
from regflow.errors import ArgumentError
from regflow.schema import from_json, json_default
from regflow.simulation import (
    SimulationConfig,
    result_from_json_dict,
    run,
    run_scripted,
    script_entries,
    script_from_json_list,
    write_result_json,
)

CORPUS = build_default_corpus()


# ---------------------------------------------------------------------------
# loader and hook
# ---------------------------------------------------------------------------

@dataclass
class Inner:
    x: float
    tags: tuple[str, ...] = ()


@dataclass
class Outer:
    n: int
    inner: Inner
    items: list[Inner] = field(default_factory=list)
    table: dict[str, int] = field(default_factory=dict)
    flag: bool = False
    note: str | None = None
    label: str = field(default="", metadata={"json": "name"})


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "outer must be a JSON object, got []"),
        ({"inner": {"x": 1.0}}, "outer is missing 'n'"),
        ({"n": 1, "inner": {"x": 1.0}, "z": 0, "a": 0}, "outer has unknown keys: ['a', 'z']"),
        ({"n": 1, "inner": {"x": 1.0}, "label": "y"}, "outer has unknown keys: ['label']"),
        ({"n": 1.5, "inner": {"x": 1.0}}, "outer.n must be an integer, got 1.5"),
        ({"n": True, "inner": {"x": 1.0}}, "outer.n must be an integer, got True"),
        ({"n": 1, "inner": {"x": "1"}}, "outer.inner.x must be a number, got '1'"),
        ({"n": 1, "inner": {"x": 1.0, "tags": "ab"}}, "outer.inner.tags must be a JSON array, got 'ab'"),
        ({"n": 1, "inner": {"x": 1.0}, "items": [{"x": 1}, {"x": None}]}, "outer.items[1].x must be a number, got None"),
        ({"n": 1, "inner": {"x": 1.0}, "table": {"k": 2.5}}, "outer.table.k must be an integer, got 2.5"),
        ({"n": 1, "inner": {"x": 1.0}, "flag": 1}, "outer.flag must be true or false, got 1"),
        ({"n": 1, "inner": {"x": 1.0}, "note": 5}, "outer.note must be a string, got 5"),
        ({"n": 1, "inner": None}, "outer.inner must be a JSON object, got None"),
    ],
)
def test_loader_rejects_with_dotted_path(data, message):
    with pytest.raises(ArgumentError) as info:
        from_json(Outer, data, "outer")
    assert str(info.value) == message


def test_loader_reads_every_supported_annotation_without_coercion():
    data = {
        "n": 3.0,
        "inner": {"x": 2, "tags": ["a", "b"]},
        "items": [{"x": 0.5}],
        "table": {"k": 4},
        "flag": True,
        "note": None,
        "name": "renamed",
    }
    out = from_json(Outer, data, "outer")
    assert out == Outer(3, Inner(2.0, ("a", "b")), [Inner(0.5)], {"k": 4}, True, None, "renamed")
    assert type(out.n) is int and type(out.inner.x) is float
    dumped = json.loads(json.dumps(out, default=json_default))
    assert dumped == {**data, "inner": {"x": 2.0, "tags": ["a", "b"]}, "items": [{"x": 0.5, "tags": []}]}


def test_defaults_argument_fills_missing_keys_only():
    params = from_json(type(DEFAULT_PARAMETERS), {"alpha1": 2}, "p", vars(DEFAULT_PARAMETERS))
    assert params == DEFAULT_PARAMETERS.replace(alpha1=2.0)


@pytest.mark.parametrize("value", [{1, 2}, object(), Inner, b"x"])
def test_hook_rejects_what_json_cannot_hold(value):
    with pytest.raises(TypeError):
        json.dumps([value], default=json_default)


def test_hook_exceptions():
    assert json.dumps(ParameterAdjustment({"alpha1": 0.01}), default=json_default) == '{"alpha1": 0.01}'
    config = json.loads(json.dumps(SimulationConfig(), default=json_default))
    assert "threshold" in config and "threshold_cfg" not in config
    assert config["param_bounds"]["phi1"] == [0.0, 5.0]


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

texts = st.text(max_size=8)
deltas = st.dictionaries(
    st.sampled_from(PARAM_FIELDS), st.floats(min_value=-0.05, max_value=0.05), max_size=3
)


@st.composite
def decisions(draw, agent_id):
    comply = draw(st.booleans())
    submission = None
    if comply or draw(st.booleans()):
        scores = draw(st.lists(st.integers(1, 10), min_size=4, max_size=4))
        submission = Submission(
            agent_id, *scores,
            regulation_ids=tuple(draw(st.lists(texts, max_size=2))),
            narrative=draw(texts),
        )
    return AgentDecision(
        comply=comply,
        adjustments=ParameterAdjustment(draw(deltas)),
        submission=submission,
        rationale=draw(texts),
        warnings=tuple(draw(st.lists(texts, max_size=2))),
        fallback=draw(st.none() | texts),
    )


@st.composite
def runs(draw):
    """A small rule or scripted run: its config, profiles, starts and script."""
    profiles = draw(st.lists(st.sampled_from(DEFAULT_PROFILES), min_size=1, max_size=3, unique=True))
    steps = draw(st.integers(1, 4))
    config = SimulationConfig(
        total_steps=steps,
        inner_substeps=draw(st.integers(1, 3)),
        schedule=Schedule(strict_steps=draw(st.integers(1, 3)), lenient_steps=draw(st.integers(1, 3))),
        seed=draw(st.integers(0, 2**31)),
        policy_kind=draw(st.sampled_from(["rule", "scripted"])),
    )
    unit = st.floats(min_value=0.0, max_value=2.0)
    initial = {
        p.id: (DEFAULT_PARAMETERS, SystemState(0.0, draw(unit), draw(unit), draw(unit))) for p in profiles
    }
    script = {(t, p.id): draw(decisions(p.id)) for t in range(steps) for p in profiles}
    return config, profiles, initial, script


def simulate_run(config, profiles, initial, script):
    if config.policy_kind == "rule":
        return run(config, profiles, initial, CORPUS)
    return run_scripted(config, profiles, initial, CORPUS, script)


@settings(max_examples=60, deadline=None)
@given(case=runs())
def test_result_json_round_trip_is_byte_identical(case):
    result = simulate_run(*case)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
        write_result_json(result, first)
        back = result_from_json_dict(json.loads(first.read_bytes()))
        write_result_json(back, second)
        assert second.read_bytes() == first.read_bytes()
    assert back == result


@settings(max_examples=60, deadline=None)
@given(case=runs())
def test_script_list_round_trips(case):
    script = case[3]
    text = json.dumps(script_entries(script), default=json_default)
    restored = script_from_json_list(json.loads(text))
    assert restored == script
    assert json.dumps(script_entries(restored), default=json_default) == text


# ---------------------------------------------------------------------------
# main exits 0, 2 or 3 on arbitrary and mutated inputs
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("schema-fuzz")
    obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 0.5, 0.05, 2, 0.0, 0)
    write_series_csv(obs, root / "obs.csv")
    (root / "profiles.json").write_text(json.dumps([{"id": "A", "resource_tier": "rich"}]))
    return root


def argv_for(flag, path, root):
    out = str(root / "out")
    return {
        "config": ["simulate", "--config", path, "--out", out],
        "profiles": ["simulate", "--profiles", path, "--steps", "2", "--out", out],
        "corpus": ["simulate", "--corpus", path, "--steps", "2", "--out", out],
        "script": ["simulate", "--policy", "scripted", "--profiles", str(root / "profiles.json"),
                   "--script", path, "--steps", "2", "--out", out],
        "result": ["metrics", "--result", path, "--groups", "auto", "--out", out],
        "guess": ["calibrate", "--obs", str(root / "obs.csv"), "--guess", path, "--max-iter", "2", "--out", out],
        "bounds": ["calibrate", "--obs", str(root / "obs.csv"), "--bounds", path, "--max-iter", "2", "--out", out],
        "params": ["sweep", "--parameter", "alpha1", "--values", "0.1", "--params", path,
                   "--horizon", "0.2", "--out", out],
    }[flag]


def exit_code(flag, document, root) -> int:
    path = root / f"input-{flag}.json"
    path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv_for(flag, str(path), root))


FLAGS = ("config", "profiles", "corpus", "script", "result", "guess", "bounds", "params")


@pytest.mark.parametrize("flag", FLAGS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=json_values)
def test_arbitrary_json_exits_0_2_or_3(workdir, flag, document):
    assert exit_code(flag, document, workdir) in (0, 2, 3)


HOLD = {"comply": False, "adjustments": {}, "submission": None, "rationale": "", "warnings": [], "fallback": None}
SUBMIT = {
    "comply": True,
    "adjustments": {"alpha2": 0.01},
    "submission": {"agent_id": "A", "safety": 7, "effectiveness": 6, "compliance": 8, "adverse": 3,
                   "regulation_ids": ["r"], "narrative": ""},
    "rationale": "r",
    "warnings": ["w"],
    "fallback": None,
}
VALID = {
    "config": {
        "total_steps": 2, "dt_per_step": 0.05, "inner_substeps": 2,
        "schedule": {"strict_steps": 1, "lenient_steps": 1, "cycle": True},
        "threshold": {"base": 4.0, "kappa": 0.3, "window": 10, "floor": 2.0, "ceiling": 8.0},
        "param_bounds": {"alpha1": [0.0, 10.0]}, "max_step": 0.05, "seed": 0, "policy_kind": "rule",
        "llm": None, "llm_concurrency": 4,
        "initial": {"params": {"alpha1": 0.5}, "state": {"g": 0.5, "c": 0.6, "m": 0.7}},
    },
    "profiles": [
        {"id": "A", "name": "A", "resource_tier": "rich", "risk_preference": "low",
         "ai_investment_fraction": 0.1, "focus": "x"},
        {"id": "B", "resource_tier": "limited"},
    ],
    "corpus": json.loads(json.dumps(CORPUS[:1] + CORPUS[5:6], default=json_default)),
    "script": [
        {"step": 0, "agent": "A", "decision": SUBMIT},
        {"step": 1, "agent": "A", "decision": HOLD},
    ],
}
# replacements keep every count small, so a mutated run stays short
SWAPS = st.sampled_from(["x", True, None, [], {}, 2.5, 3, -1])


def slots(doc, path=()):
    """(path, container) for every object and array under doc."""
    if isinstance(doc, (dict, list)):
        yield path, doc
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from slots(value, path + (key,))


@st.composite
def mutated(draw, flag):
    doc = copy.deepcopy(VALID[flag])
    containers = [c for _, c in slots(doc)]
    target = draw(st.sampled_from(containers))
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    kind = draw(st.sampled_from(["drop", "add", "swap"]))
    if kind == "add" and isinstance(target, dict):
        target[draw(st.text(min_size=1, max_size=4))] = draw(SWAPS)
    elif keys and kind == "drop":
        del target[draw(st.sampled_from(keys))]
    elif keys:
        target[draw(st.sampled_from(keys))] = draw(SWAPS)
    return doc


def test_valid_documents_run(workdir):
    for flag in VALID:
        assert exit_code(flag, VALID[flag], workdir) == 0, flag


@pytest.mark.parametrize("flag", sorted(VALID))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_exit_0_2_or_3(workdir, flag, data):
    assert exit_code(flag, data.draw(mutated(flag)), workdir) in (0, 2, 3)
