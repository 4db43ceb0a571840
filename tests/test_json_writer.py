"""The JSON outputs: result.json is compact sorted JSON plus a newline, and
fit.json and metrics.json are json.dumps(obj, sort_keys=True, indent=2)
plus a newline. Every output is the text json.dumps gives for its own
parsed content, and a rerun writes the same bytes. result.json is written by
simulation.write_result_json, one template per engine-made agent entry and
the encoder's text of any other, which must give exactly json.dumps's
compact text, and trajectories.csv one template per row
by write_result_csv, which must give the text of the row formatter it
replaced, with each agent id quoted as csv.writer quotes it."""

import csv
import dataclasses
import io
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regflow.simulation
from regflow.agents import DEFAULT_PROFILES, AgentDecision, ClientConfig, ParameterAdjustment
from regflow.brr import Submission
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.cli import _write_json, main
from regflow.corpus import build_default_corpus
from regflow.dynamics import DEFAULT_PARAMETERS, PARAM_FIELDS, ModelParameters, SystemState
from regflow.schema import json_default
from regflow.simulation import (
    AgentStepRecord,
    SimulationConfig,
    SimulationResult,
    StepRecord,
    default_initial,
    run,
    run_scripted,
    write_result_csv,
    write_result_json,
)

from llm_stub import StubLLMServer

CORPUS = build_default_corpus()


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def compact(obj) -> str:
    return json.dumps(obj, default=json_default, sort_keys=True, separators=(",", ":")) + "\n"


awkward_text = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "naïve", " ", "\U0001f600", '"\\/\n\t'])
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
    | awkward_text
)
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(awkward_text, children, max_size=5)
    ),
    max_leaves=40,
)


UNSUPPORTED = [
    {1, 2},
    np.int64(3),
    np.array([1.0, 2.0]),
    {(1, 2): "tuple key"},
    [object()],
    {"deep": [{"set": frozenset()}]},
]
SHARED = Submission("A", 7, 6, 8, 3, regulation_ids=("R1",), narrative="n\u00e9")


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("indent2") / "out.json"


class TestEncoderMatchesJson:
    """cli._write_json, the writer of fit.json and metrics.json: its file
    holds the ASCII text of json.dumps(obj, sort_keys=True, indent=2) and a
    "\\n", whatever the platform's line ending."""

    def written(self, obj, path) -> str:
        _write_json(obj, path)
        return path.read_bytes().decode("ascii")

    @settings(max_examples=300, deadline=None)
    @given(tree=trees)
    @example(tree={"a": math.nan, "b": math.inf, "c": -math.inf, "d": [math.nan, -math.inf]})
    @example(tree={"\x01kéy": "v\x1fü", "\U0001f600": ["\n", " "]})
    @example(tree={"x": {}, "y": [], "z": [{}, [[]], {"w": {}}]})
    @example(tree=[(1, True, 0, False, (None,)), 2**100, -(2**90), 1.0, 1])
    @example(tree={"f": np.float64(0.1), "g": [np.float64(math.nan), np.float64(-math.inf)]})
    @example(tree=[[[[[[{"deep": [1.5]}]]]]]])
    def test_equals_json_dumps(self, out_path, tree):
        assert self.written(tree, out_path) == reference(tree)

    @pytest.mark.parametrize("key", [3, -7, 2.5, math.inf, math.nan, True, False, None])
    def test_non_str_scalar_keys_are_coerced_like_json(self, tmp_path, key):
        tree = {"outer": {key: [1]}}
        assert self.written(tree, tmp_path / "out.json") == reference(tree)

    @pytest.mark.parametrize("value", UNSUPPORTED)
    def test_unsupported_values_raise_type_error(self, tmp_path, value):
        # the text is built before the file is opened: a value JSON cannot
        # hold leaves an earlier output whole
        path = tmp_path / "out.json"
        path.write_text("earlier\n")
        with pytest.raises(TypeError):
            _write_json(value, path)
        assert path.read_text() == "earlier\n"


def csv_id(aid) -> str:
    """aid as csv.writer's default dialect writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([aid, ""])
    return buf.getvalue()[: -len(",\r\n")]


def reference_csv(result) -> str:
    """trajectories.csv as the row formatter before write_result_csv wrote
    one template per row: an f-string per row, each number through
    format(x, ".17g"), the text of each nonzero M and adaptation kept; the
    agent id as csv_id writes it."""
    texts = {}

    def fmt(x):
        text = texts.get(x)
        if text is None:
            text = format(x, ".17g")
            if x:
                texts[x] = text
        return text

    def _fmt(x):
        return format(x, ".17g")

    rows = ["step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation\n"]
    for rec in result.records:
        threshold = _fmt(rec.threshold)
        for aid in sorted(rec.agents):
            ar = rec.agents[aid]
            brr = "" if ar.brr is None else fmt(ar.brr)
            approved = "" if ar.approved is None else ("true" if ar.approved else "false")
            rows.append(
                f"{rec.step},{csv_id(aid)},{_fmt(ar.state.g)},{_fmt(ar.state.c)},"
                f"{fmt(ar.state.m)},{_fmt(ar.f)},{brr},{approved},"
                f"{threshold},{_fmt(ar.compliance_cost)},{fmt(ar.market_adaptation)}\n"
            )
    return "".join(rows)


def written(writer, result, path) -> str:
    writer(result, path)
    return path.read_bytes().decode("utf-8")


any_float = st.floats() | st.floats().map(np.float64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
# what SystemState and ModelParameters accept: finite and >= 0, so -0.0 too
state_float = (
    st.floats(min_value=0.0, max_value=1e300)
    | st.floats(min_value=0.0, max_value=1e300).map(np.float64)
    | st.sampled_from([0.0, -0.0])
)
agent_ids = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
decisions = st.builds(
    AgentDecision,
    comply=st.just(True),
    adjustments=st.builds(
        ParameterAdjustment, st.dictionaries(st.sampled_from(PARAM_FIELDS), any_float.filter(math.isfinite), max_size=3)
    ),
    submission=st.builds(Submission, agent_ids, *[st.integers(1, 10)] * 4, regulation_ids=st.just(("R1",))),
    rationale=awkward_text,
    warnings=st.lists(awkward_text, max_size=2).map(tuple),
    fallback=st.none() | st.just("parse"),
) | st.builds(AgentDecision, comply=st.just(False), rationale=awkward_text)
coefficients = st.builds(ModelParameters, *[state_float] * len(PARAM_FIELDS))


@st.composite
def results(draw):
    """A hand-built SimulationResult whose steps draw each decision and
    coefficient set either from a pool the whole result shares or afresh."""
    ids = draw(st.lists(agent_ids, min_size=1, max_size=4, unique=True))
    pool_decisions = draw(st.lists(decisions, min_size=1, max_size=3))
    pool_coefficients = draw(st.lists(coefficients, min_size=1, max_size=3))
    records = []
    for step in range(draw(st.integers(1, 3))):
        # agents of a step often share a time and a ratio, signed zeros among them
        times = draw(st.lists(state_float, min_size=1, max_size=2))
        ratios = draw(st.lists(any_float, min_size=1, max_size=2))
        agents = {}
        for aid in ids:
            t = draw(st.sampled_from(times) | state_float)
            state = SystemState(t, *(draw(state_float) for _ in range(3)))
            adaptation = draw(st.none() | any_float)
            agents[aid] = AgentStepRecord(
                params=draw(st.sampled_from(pool_coefficients) | coefficients),
                state=state,
                f=draw(any_float),
                decision=draw(st.sampled_from(pool_decisions) | decisions),
                brr=draw(st.none() | st.sampled_from(ratios) | any_float),
                approved=draw(st.sampled_from([None, True, False])),
                compliance_cost=draw(any_float),
                market_adaptation=state.m if adaptation is None else adaptation,
            )
        records.append(StepRecord(step, draw(awkward_text), agents, draw(any_float), draw(any_float)))
    return SimulationResult(
        records, SimulationConfig(), list(DEFAULT_PROFILES)[:2], draw(st.integers(0, 99)), draw(st.integers(0, 99))
    )


def one_result(**changes) -> SimulationResult:
    """A one-agent, one-step result; changes replace fields of its agent entry."""
    fields = dict(
        params=DEFAULT_PARAMETERS,
        state=SystemState(0.05, 0.5, 0.4, 0.3),
        f=0.25,
        decision=AgentDecision(comply=True, submission=SHARED),
        brr=1.5,
        approved=True,
        compliance_cost=0.125,
        market_adaptation=0.3,
    )
    fields.update(changes)
    record = StepRecord(0, "voluntary", {"A": AgentStepRecord(**fields)}, 1.0, 0.25)
    return SimulationResult([record], SimulationConfig(), list(DEFAULT_PROFILES)[:1])


def signed_zeros_result() -> SimulationResult:
    """Two agents whose time, ratio and adaptation are 0.0 and -0.0."""
    result = one_result(state=SystemState(0.0, 0.5, 0.4, -0.0), brr=0.0, market_adaptation=0.0)
    agents = result.records[0].agents
    agents["B"] = dataclasses.replace(
        agents["A"], state=SystemState(-0.0, 0.5, 0.4, 0.0), brr=-0.0, market_adaptation=-0.0
    )
    return result


def ints_beside_floats_result() -> SimulationResult:
    """One step whose agents A, B and C have ratios 5.0, 5 and 5.0 and
    times 1.0, 1.0 and 1: json.dumps writes the ints as 5 and 1, though
    each equals a float of the same step."""
    result = one_result(state=SystemState(1.0, 0.5, 0.4, 0.3), brr=5.0)
    agents = result.records[0].agents
    agents["B"] = dataclasses.replace(agents["A"], brr=5)
    agents["C"] = dataclasses.replace(agents["A"], state=SystemState(1, 0.5, 0.4, 0.3))
    return result


class TestResultWriter:
    """simulation.write_result_json writes exactly json.dumps(result,
    default=json_default, sort_keys=True, separators=(",", ":")) and a
    newline; write_result_csv writes exactly what reference_csv writes."""

    @settings(max_examples=150, deadline=None)
    @given(result=results())
    # an agent's market adaptation is a zero of the other sign from its m
    @example(result=signed_zeros_result())
    # entries that write_result_json writes as the encoder's text of the
    # record, not with its template: each must give json.dumps's text all the
    # same, an int beside an equal float of the same step included
    @example(result=one_result(f=math.inf))
    @example(result=one_result(compliance_cost=math.nan))
    @example(result=one_result(state=SystemState(0.05, np.float64(0.5), 0.4, 0.3)))
    @example(result=ints_beside_floats_result())
    # an abstention: the template with a null approval and ratio
    @example(result=one_result(approved=None, brr=None))
    def test_equals_json_dumps(self, tmp_path_factory, result):
        path = tmp_path_factory.mktemp("writer")
        assert written(write_result_json, result, path / "result.json") == compact(result)
        assert written(write_result_csv, result, path / "trajectories.csv") == reference_csv(result)

    def test_subclasses_are_written_as_their_json_type(self, tmp_path):
        class Text(str):
            def __str__(self):
                return "other"

        class Count(int):
            def __repr__(self):
                return "other"

        result = one_result(f=np.float64(0.1), compliance_cost=Count(5), approved=Count(1))
        result.records[0].phase = Text("x")
        result.clamp_events = Count(2)
        text = written(write_result_json, result, tmp_path / "result.json")
        assert text == compact(result)
        assert '"approved":1,' in text and '"compliance_cost":5,' in text and '"phase":"x"' in text

    @pytest.mark.parametrize("value", UNSUPPORTED)
    def test_unsupported_values_raise_type_error(self, tmp_path, value):
        # a value of any type but float goes through json.dumps's encoder,
        # which refuses what JSON cannot hold
        with pytest.raises(TypeError):
            json.dumps(value, default=json_default)
        with pytest.raises(TypeError):
            write_result_json(one_result(approved=value), tmp_path / "result.json")

    def test_a_failed_write_leaves_the_earlier_file(self, tmp_path):
        # the text goes to a partial file that replaces result.json only once
        # every piece is written; an error part way removes the partial file
        path = tmp_path / "result.json"
        write_result_json(one_result(), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_result_json(one_result(approved=object()), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]

    def test_a_rewrite_keeps_the_file_mode_and_writes_through_a_symlink(self, tmp_path):
        target = tmp_path / "kept.json"
        write_result_json(one_result(), target)
        target.chmod(0o600)
        link = tmp_path / "result.json"
        link.symlink_to(target)
        write_result_json(one_result(approved=False), link)
        write_result_json(one_result(approved=False), tmp_path / "fresh.json")
        assert link.is_symlink()
        assert target.stat().st_mode & 0o7777 == 0o600
        assert target.read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "kept.json", "result.json"]

    def test_writes_one_step_record_at_a_time(self, monkeypatch):
        profiles = list(DEFAULT_PROFILES)
        result = run(small_config(), profiles, default_initial(profiles), CORPUS)
        parts = []
        monkeypatch.setattr(regflow.simulation, "_write_text", lambda path, pieces: parts.extend(pieces))
        write_result_json(result, "unused")
        assert len(parts) == 2 + len(result.records)
        assert parts[0].endswith('"records":[') and parts[-1] == "]}\n"
        assert all(part.startswith(("" if i == 0 else ",") + '{"agents":{') for i, part in enumerate(parts[1:-1]))
        assert "".join(parts) == compact(result)


def small_config(**overrides):
    defaults = dict(total_steps=6, dt_per_step=0.05, inner_substeps=4, seed=1)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def abstaining_run(profiles) -> SimulationResult:
    """A six-step scripted run in which each agent abstains (comply false,
    no submission, warnings) on alternate steps and files on the others."""
    script = {}
    for t in range(6):
        for i, p in enumerate(profiles):
            if (t + i) % 2:
                script[(t, p.id)] = AgentDecision(
                    comply=False,
                    adjustments=ParameterAdjustment(deltas={}),
                    submission=None,
                    rationale="hold é\x01",
                    warnings=("score 11 clipped to 10", "unknown key 'x' dropped"),
                )
            else:
                script[(t, p.id)] = AgentDecision(
                    comply=True,
                    adjustments=ParameterAdjustment(deltas={"alpha1": 0.01, "phi2": -0.02}),
                    submission=Submission(p.id, 7, 6, 8, 3, regulation_ids=("R1",)),
                    rationale="file",
                )
    config = small_config(policy_kind="scripted")
    return run_scripted(config, profiles, default_initial(profiles), CORPUS, script)


def assert_result_bytes(first, second, tmp_path):
    """result.json of two runs of the same inputs: compact sorted JSON plus a
    newline, and the same bytes both times."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_result_json(first, a)
    write_result_json(second, b)
    raw = a.read_bytes()
    assert raw == compact(json.loads(raw)).encode("ascii")
    assert b.read_bytes() == raw


class TestResultFiles:
    def test_default_rule_run(self, tmp_path):
        profiles = list(DEFAULT_PROFILES)
        first, second = (run(SimulationConfig(), profiles, default_initial(profiles), CORPUS) for _ in range(2))
        assert_result_bytes(first, second, tmp_path)

    def test_scripted_run_with_abstentions_and_warnings(self, tmp_path):
        profiles = list(DEFAULT_PROFILES)[:3]
        first, second = (abstaining_run(profiles) for _ in range(2))
        write_result_json(first, tmp_path / "result.json")
        data = json.loads((tmp_path / "result.json").read_bytes())
        decisions = [a["decision"] for rec in data["records"] for a in rec["agents"].values()]
        assert any(d["submission"] is None and d["adjustments"] == {} and d["warnings"] for d in decisions)
        assert_result_bytes(first, second, tmp_path)

    def test_llm_run_with_fallbacks(self, tmp_path):
        profiles = list(DEFAULT_PROFILES)[:3]
        with StubLLMServer(behavior="garbage") as server:
            config = small_config(
                total_steps=2,
                policy_kind="llm",
                llm=ClientConfig(endpoint=server.url, model="stub", timeout=5.0, retries=1),
            )
            first, second = (run(config, profiles, default_initial(profiles), CORPUS) for _ in range(2))
        assert first.llm_fallbacks == 6
        assert_result_bytes(first, second, tmp_path)

    def test_engine_entries_take_the_template(self, tmp_path, monkeypatch):
        """No agent entry of a rule, scripted or llm run is encoded whole:
        each is one format of _AGENT_FLOATS, abstentions (a null approval
        and ratio) included."""
        profiles = list(DEFAULT_PROFILES)
        abstain = json.dumps({
            "comply": False, "adjustments": {"alpha2": 0.015}, "safety": 8, "effectiveness": 7, "compliance": 9,
            "adverse": 4, "rationale": "stub abstains",
        })
        with StubLLMServer(behavior="reply", reply_content=abstain) as server:
            llm = ClientConfig(endpoint=server.url, model="stub", timeout=5.0, retries=1)
            config = small_config(total_steps=2, policy_kind="llm", llm=llm)
            results = [
                run(SimulationConfig(), profiles, default_initial(profiles), CORPUS),
                abstaining_run(profiles[:3]),
                run(config, profiles[:3], default_initial(profiles[:3]), CORPUS),
            ]
        assert results[2].llm_fallbacks == 0
        for result in results[1:]:
            assert any(ar.approved is None for rec in result.records for ar in rec.agents.values())
        encode = regflow.simulation._encode
        encoded, formatted = [], []

        def spy(obj):
            if isinstance(obj, AgentStepRecord):
                encoded.append(obj)
            return encode(obj)

        class Template(str):
            def __mod__(self, values):
                formatted.append(values[0])
                return str.__mod__(self, values)

        monkeypatch.setattr(regflow.simulation, "_encode", spy)
        monkeypatch.setattr(regflow.simulation, "_AGENT_FLOATS", Template(regflow.simulation._AGENT_FLOATS))
        for i, result in enumerate(results):
            formatted.clear()
            assert written(write_result_json, result, tmp_path / f"{i}.json") == compact(result)
            assert encoded == []
            assert len(formatted) == sum(len(rec.agents) for rec in result.records)

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        """A float memo that caches zeros would write one agent's -0.0 as the
        other's 0.0: -0.0 == 0.0 and both hash alike."""
        profiles = list(DEFAULT_PROFILES)[:2]
        initial = {
            profiles[0].id: (DEFAULT_PARAMETERS.replace(gamma1=0.0), SystemState(0.0, 0.5, 0.4, 0.3)),
            profiles[1].id: (DEFAULT_PARAMETERS.replace(gamma1=-0.0), SystemState(0.0, 0.5, 0.41, 0.32)),
        }
        result = run(small_config(), profiles, initial, CORPUS)
        write_result_json(result, tmp_path / "result.json")
        raw = (tmp_path / "result.json").read_bytes()
        assert raw == compact(result).encode("ascii")
        assert b'"gamma1":-0.0' in raw and b'"gamma1":0.0' in raw

    def test_no_cyclic_garbage(self, tmp_path):
        profiles = list(DEFAULT_PROFILES)
        result = run(small_config(), profiles, default_initial(profiles), CORPUS)
        gc.collect()
        gc.disable()
        try:
            write_result_json(result, tmp_path / "result.json")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shared_decisions_write_the_bytes_of_fresh_ones(self, tmp_path):
        profiles = list(DEFAULT_PROFILES)[:3]

        def decision(aid):
            return AgentDecision(
                comply=True,
                adjustments=ParameterAdjustment(deltas={"alpha1": 0.01, "phi2": -0.0}),
                submission=Submission(aid, 7, 6, 8, 3, regulation_ids=("R1", "R2")),
                rationale="same \u00e9",
                warnings=("w",),
            )

        shared = {p.id: decision(p.id) for p in profiles}
        config = small_config(policy_kind="scripted")
        results = [
            run_scripted(config, profiles, default_initial(profiles), CORPUS, script)
            for script in (
                {(t, p.id): shared[p.id] for t in range(6) for p in profiles},
                {(t, p.id): decision(p.id) for t in range(6) for p in profiles},
            )
        ]
        assert results[0].records[5].agents[profiles[0].id].decision is shared[profiles[0].id]
        assert_result_bytes(*results, tmp_path)


class TestCliFiles:
    """fit.json and metrics.json are the indent-2 json.dumps text of their own
    content; result.json is the compact text of its own."""

    def assert_json_dumps_layout(self, path, layout=reference):
        raw = path.read_bytes()
        assert raw == layout(json.loads(raw)).encode("ascii")

    def test_fit_json(self, tmp_path):
        obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
        write_series_csv(obs, tmp_path / "obs.csv")
        assert main(["calibrate", "--obs", str(tmp_path / "obs.csv"), "--out", str(tmp_path), "--max-iter", "3"]) == 0
        self.assert_json_dumps_layout(tmp_path / "fit.json")

    def test_metrics_json(self, tmp_path):
        run_dir, met_dir = tmp_path / "run", tmp_path / "met"
        assert main(["simulate", "--out", str(run_dir), "--steps", "12"]) == 0
        assert main(["metrics", "--result", str(run_dir / "result.json"), "--groups", "auto", "--out", str(met_dir)]) == 0
        self.assert_json_dumps_layout(run_dir / "result.json", layout=compact)
        self.assert_json_dumps_layout(met_dir / "metrics.json")
