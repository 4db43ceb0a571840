"""`metrics` reads only the g and c series, the final market adaptation,
the profiles and the config of result.json."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflow.analysis import bonferroni_pairwise, metrics_report, welch_anova
from regflow.cli import main
from regflow.errors import ArgumentError
from regflow.schema import json_default
from regflow.simulation import result_from_json_dict

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
