"""`metrics` reads only the g and c series, the final market adaptation,
the profiles and the config of result.json, each agent entry reduced to four
values as json.loads parses it: it accepts and refuses what json.loads and a
whole-file extraction do, with the same messages, and holds four values per
agent entry beside the text."""

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regflow import cli
from regflow.agents import _profile_from_dict
from regflow.analysis import bonferroni_pairwise, metrics_report, welch_anova
from regflow.cli import main
from regflow.dynamics import _real
from regflow.errors import ArgumentError, NumericalError
from regflow.schema import from_json, json_default, parse_json, read_text
from regflow.simulation import SimulationConfig, result_from_json_dict

TIERS = ("limited", "medium", "rich")


def reference_metrics_json(data: dict, epsilon: float) -> str:
    """metrics.json of `metrics --groups auto` as computed from the full result."""
    result = result_from_json_dict(data)
    ids = sorted(result.records[0].agents)
    report = {"epsilon": epsilon, "per_agent": {}}
    for aid in ids:
        c = [rec.agents[aid].state.c for rec in result.records]
        g = [rec.agents[aid].state.g for rec in result.records]
        report["per_agent"][aid] = metrics_report(c, g, epsilon)
    groups: dict[str, list[str]] = {}
    for profile in result.profiles:
        groups.setdefault(profile.resource_tier, []).append(profile.id)
    groups = {tier: sorted(members) for tier, members in sorted(groups.items())}
    samples = [[result.records[-1].agents[a].market_adaptation for a in m] for m in groups.values()]
    pairwise = bonferroni_pairwise(samples, labels=list(groups))
    report["groups"] = {
        "members": groups,
        "welch_anova": welch_anova(samples),
        "pairwise": pairwise,
    }
    return json.dumps(report, default=json_default, sort_keys=True, indent=2) + "\n"


def simulate(workdir: Path, tiers, steps: int) -> Path:
    profiles = workdir / "profiles.json"
    profiles.write_text(json.dumps([
        {"id": chr(ord("A") + i), "resource_tier": tier} for i, tier in enumerate(tiers)
    ]))
    out = workdir / "run"
    assert main(["simulate", "--profiles", str(profiles), "--steps", str(steps), "--out", str(out)]) == 0
    return out / "result.json"


def metrics_bytes(result_path: Path, out: Path, epsilon: float = 0.5) -> bytes:
    code = main([
        "metrics", "--result", str(result_path), "--groups", "auto",
        "--epsilon", repr(epsilon), "--out", str(out),
    ])
    assert code == 0
    return (out / "metrics.json").read_bytes()


@st.composite
def tier_lists(draw):
    """The tiers of 2-6 agents in any order. From 4 agents up every tier in
    use has two or more, so that --groups auto has a result; 2 or 3 agents
    give a tier of one, or a single tier, which --groups auto rejects."""
    sizes = draw(st.one_of(
        st.lists(st.integers(2, 3), min_size=2, max_size=3).filter(lambda s: sum(s) <= 6),
        st.lists(st.integers(1, 3), min_size=1, max_size=2).filter(lambda s: 2 <= sum(s) <= 3),
    ))
    return draw(st.permutations([tier for tier, n in zip(TIERS, sizes) for _ in range(n)]))


@settings(max_examples=40, deadline=None)
@given(
    tiers=tier_lists(),
    steps=st.integers(2, 8),
    epsilon=st.sampled_from([0.01, 0.5, 2.0]),
)
def test_reader_matches_full_result(tiers, steps, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        result_path = simulate(workdir, tiers, steps)
        try:
            expected = reference_metrics_json(json.loads(result_path.read_text()), epsilon)
        except ArgumentError as exc:
            # a tier of one agent, or a single tier: both readers reject the groups
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([
                    "metrics", "--result", str(result_path), "--groups", "auto",
                    "--epsilon", repr(epsilon), "--out", str(workdir),
                ])
            assert code == 2 and str(exc) in err.getvalue()
            return
        assert metrics_bytes(result_path, workdir, epsilon).decode() == expected


def set_in_every_agent(data: dict, edit) -> None:
    for rec in data["records"]:
        for ar in rec["agents"].values():
            edit(ar)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: set_in_every_agent(d, lambda ar: ar["decision"].update(rationale="edited")),
        lambda d: set_in_every_agent(d, lambda ar: ar["params"].update(alpha1="not read")),
        lambda d: set_in_every_agent(d, lambda ar: ar.pop("decision")),
        lambda d: set_in_every_agent(d, lambda ar: ar["state"].pop("t")),
        lambda d: d["records"][3].update(threshold=None, mean_feedback="x"),
        lambda d: d.update(clamp_events="many"),
    ],
    ids=["rationale", "params", "decision", "state.t", "threshold", "clamp_events"],
)
def test_fields_metrics_does_not_read_leave_its_bytes(tmp_path, edit):
    result_path = simulate(tmp_path, ["limited", "limited", "rich", "rich", "medium", "medium"], 6)
    before = metrics_bytes(result_path, tmp_path / "before")
    data = json.loads(result_path.read_text())
    edit(data)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    assert metrics_bytes(edited, tmp_path / "after") == before


# ---------------------------------------------------------------------------
# the reducing reader against json.loads plus a whole-file extraction
# ---------------------------------------------------------------------------

def reference_columns(data: dict):
    """The whole-file extraction that `metrics` made from json.loads's dict:
    (g, c, last market adaptation, step count), with its checks."""
    records = data["records"]
    if not isinstance(records, list):
        raise ArgumentError("records must be a JSON array")
    g_cols: dict = {}
    c_cols: dict = {}
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
            for name, value in zip(("state.g", "state.c", "state.m", "market_adaptation"), values):
                _real(value, f"record {i}, agent {aid}: {name}")
            g_cols[aid].append(values[0])
            c_cols[aid].append(values[1])
    final_m = {aid: ar["market_adaptation"] for aid, ar in raw_agents.items()}
    [_profile_from_dict(p, f"profile {i}") for i, p in enumerate(data.get("profiles", []))]
    from_json(SimulationConfig, data.get("config", {}), "config")
    return g_cols, c_cols, final_m, len(records)


def reference_outcome(path: str, epsilon: float) -> tuple[int, str]:
    """(exit code, metrics.json text or stderr) of `metrics` without
    --groups, through json.loads and the whole-file extraction."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = parse_json(fh.read(), path)
        if not isinstance(data, dict):
            raise ArgumentError(f"result file {path} must hold a JSON object")
        try:
            g, c, final_m, steps = reference_columns(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ArgumentError(f"malformed result file {path}: {exc}") from None
        if not steps:
            raise ArgumentError("result contains no step records")
        report = {"epsilon": epsilon, "per_agent": {}}
        for aid in sorted(final_m):
            try:
                report["per_agent"][aid] = metrics_report(c[aid], g[aid], epsilon)
            except NumericalError as exc:
                return 3, f"numerical error: agent {aid}: {exc}\n"
    except ArgumentError as exc:
        return 2, f"error: {exc}\n"
    return 0, json.dumps(report, default=json_default, sort_keys=True, indent=2) + "\n"


def outcomes(text: str, epsilon: float) -> tuple:
    """(exit code, metrics.json text or stderr) of `metrics` without
    --groups on a file holding text, and the same from reference_outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "result.json")
        Path(path).write_text(text, encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["metrics", "--result", path, "--epsilon", repr(epsilon), "--out", str(out)])
        got = code, (out / "metrics.json").read_text() if code == 0 else err.getvalue()
        return got, reference_outcome(path, epsilon)


@functools.cache
def stock_members(agents: int, steps: int) -> tuple:
    """The top-level members of a default run's result.json."""
    with tempfile.TemporaryDirectory() as tmp:
        text = simulate(Path(tmp), TIERS[:agents], steps).read_text()
    return tuple(json.loads(text).items())


# a JSON string, or one structural character outside strings
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}\[\],:]')
#: values of a repeated member: each one something the checks refuse
DECOYS = [[], [1], {"0": {}}, [{"agents": []}], None, "records", 3]
EDIT_CHARACTERS = list('{}[],:"\\ \n0123456789.eE+-truefalsnx')


def inf_c_text() -> str:
    """A 1-agent, 2-step result.json whose last state.c, 1e382 in the text,
    reads as inf, so its compliance stability is not finite: exit 3."""
    text = json.dumps(dict(stock_members(1, 2)), separators=(",", ":"))
    head, _, tail = text.rpartition('"c":')
    return head + '"c":1e382' + tail[tail.index(","):]


@st.composite
def result_texts(draw):
    """A small result.json: re-serialized with any indent, separators and
    whitespace between tokens, its top-level members in any order, one
    member perhaps repeated (the last one counts), then perhaps one
    character deleted or inserted, or the text cut short."""
    members = list(stock_members(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    members = draw(st.permutations(members))
    if draw(st.booleans()):
        key = draw(st.sampled_from([k for k, _ in members]))
        value = draw(st.sampled_from(DECOYS + [dict(members)[key]]))
        members.insert(draw(st.integers(0, len(members))), (key, value))
    indent = draw(st.sampled_from([None, 0, 1, "\t"]))
    item, colon = draw(st.sampled_from([(",", ":"), (", ", ": "), (",", " : ")]))
    text = "{" + item.join(
        json.dumps(k) + colon + json.dumps(v, indent=indent, separators=(item, colon)) for k, v in members
    ) + "}"
    if draw(st.booleans()):
        rnd = draw(st.randoms(use_true_random=False))
        space = lambda: "".join(rnd.choice(" \t\n\r") for _ in range(rnd.choice([0, 0, 1, 3])))
        text = space() + TOKEN.sub(lambda m: m[0] if m[0][0] == '"' else space() + m[0] + space(), text)
    edit = draw(st.sampled_from(["none", "delete", "insert", "truncate"]))
    if edit != "none":
        pos = draw(st.integers(0, len(text) - 1))
        if edit == "delete":
            text = text[:pos] + text[pos + 1:]
        elif edit == "insert":
            text = text[:pos] + draw(st.sampled_from(EDIT_CHARACTERS)) + text[pos:]
        else:
            text = text[:pos]
    return text


@settings(max_examples=150, deadline=None)
@given(text=result_texts(), epsilon=st.sampled_from([0.01, 0.5]))
@example(text=inf_c_text(), epsilon=0.01)
def test_metrics_reads_what_json_loads_reads(text, epsilon):
    got, expected = outcomes(text, epsilon)
    assert got == expected


def with_bad_record_0(text: str) -> str:
    return text.replace('"records":[{', '"records":[1,{', 1)


#: (id, the text, or a function of a stock result's compact text)
TEXTS = [
    # a bad record 0, then a syntax error at the end: the syntax error wins
    ("bad-record-then-unclosed", lambda s: with_bad_record_0(s)[:-1]),
    ("bad-record-then-extra-data", lambda s: with_bad_record_0(s) + ","),
    # the last of two records members counts, with its checks
    ("second-records-bad", lambda s: s[:-1] + ',"records":[{"agents":[]}]}'),
    ("second-records-not-an-array", lambda s: s[:-1] + ',"records":7}'),
    ("first-records-bad", lambda s: '{"records":[1],' + s[1:]),
    ("byte-order-mark", lambda s: "\ufeff" + s),
    # not an object, or not JSON at all
    ("empty", ""),
    ("blank", " "),
    ("array", "[]"),
    ("null", "null"),
    ("string", '"records"'),
    ("open-brace", "{"),
    ("key-only", '{"records"'),
    ("key-colon", '{"records":'),
    ("open-array", '{"records":['),
    ("unclosed-object", '{"records":[]'),
    ("junk-after-member", '{"records":[] x'),
    ("extra-brace", '{"records":[]}}'),
    ("trailing-comma-in-object", '{"records":[],}'),
    ("missing-colon", '{"records" []}'),
    ("comma-without-member", "{,}"),
    ("single-quoted-key", "{'a':1}"),
    ("missing-comma-in-records", '{"records":[1 2]}'),
    ("trailing-comma-in-records", '{"records":[1,]}'),
    ("record-without-agents", '{"a":1,"records":[{}]}'),
    ("bad-escape", '{"a":"\\x"}'),
    ("control-character-in-key", '{"a\n":1}'),
]


@pytest.mark.parametrize("case", [case for _, case in TEXTS], ids=[name for name, _ in TEXTS])
def test_metrics_reads_these_texts_as_json_loads_does(case):
    text = case(json.dumps(dict(stock_members(2, 3)), separators=(",", ":"))) if callable(case) else case
    got, expected = outcomes(text, 0.5)
    assert got == expected


def first_entry(data: dict) -> dict:
    """A copy of the first agent entry of a parsed result.json."""
    return copy.deepcopy(next(iter(data["records"][0]["agents"].values())))


def entry_under_every_decision(data: dict) -> None:
    entry = first_entry(data)
    set_in_every_agent(data, lambda ar: ar.update(decision=entry))


def record_with_entry_members(data: dict) -> None:
    entry = first_entry(data)
    data["records"][1].update(state=entry["state"], market_adaptation=entry["market_adaptation"])


#: (id, an edit of a parsed stock result, whether the message is the reference's too)
HOOK_CASES = [
    ("entry-under-every-decision", entry_under_every_decision, True),
    ("record-with-entry-members", record_with_entry_members, True),
    # an agent entry where metrics reads another object: refused by both
    # readers, but the message shows the reduced entry
    ("entry-as-config", lambda d: d.update(config=first_entry(d)), False),
    ("entry-as-profile-0", lambda d: d["profiles"].__setitem__(0, first_entry(d)), False),
    ("entry-as-extra-record", lambda d: d["records"].append(first_entry(d)), False),
]


@pytest.mark.parametrize(
    "edit, same_message", [case[1:] for case in HOOK_CASES], ids=[case[0] for case in HOOK_CASES]
)
def test_metrics_reduces_only_agent_entries(edit, same_message):
    data = json.loads(json.dumps(dict(stock_members(2, 3))))
    edit(data)
    got, expected = outcomes(json.dumps(data), 0.5)
    if same_message:
        assert got == expected and got[0] == 0
    else:
        assert got[0] == expected[0] == 2
        assert got[1].startswith("error: malformed result file ") and "Traceback" not in got[1]


def test_metrics_holds_little_beyond_the_text(tmp_path, monkeypatch):
    """From the moment the file's text is read, `metrics` on a result of
    about 1 MB allocates at its peak less than half the file's size beyond
    the text: four values per agent entry, not the whole tree (2.8 times
    the file)."""
    roster = [{"id": f"M{i:02d}", "resource_tier": TIERS[i % 3]} for i in range(24)]
    (tmp_path / "roster.json").write_text(json.dumps(roster))
    (tmp_path / "config.json").write_text(json.dumps({"total_steps": 45, "inner_substeps": 1}))
    run_dir = tmp_path / "run"
    assert main([
        "simulate", "--config", str(tmp_path / "config.json"), "--profiles", str(tmp_path / "roster.json"),
        "--out", str(run_dir),
    ]) == 0
    size = (run_dir / "result.json").stat().st_size
    assert 0.8e6 < size < 1.5e6

    def read_then_reset_peak(path):
        # reading a file holds its bytes and its text at once; count from its end
        text = read_text(path)
        tracemalloc.reset_peak()
        return text

    monkeypatch.setattr(cli, "read_text", read_then_reset_peak)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["metrics", "--result", str(run_dir / "result.json"), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size
