"""Within one run, the engine builds each distinct adjusted coefficient set
once and decides each distinct ratio once per step; the records keep their
values and their bytes."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import regflow.simulation as simulation
from regflow.agents import DEFAULT_PROFILES, AgentDecision, ManufacturerProfile, ParameterAdjustment, apply_adjustments
from regflow.brr import decide
from regflow.corpus import build_default_corpus
from regflow.dynamics import DEFAULT_PARAMETERS, PARAM_FIELDS, SystemState
from regflow.simulation import (
    SimulationConfig,
    default_initial,
    run,
    run_scripted,
    write_result_csv,
    write_result_json,
)

CORPUS = build_default_corpus()
PROFILES = list(DEFAULT_PROFILES)


def bits(p) -> tuple[str, ...]:
    """A coefficient set's fields as float.hex, which tells -0.0 from 0.0."""
    return tuple(getattr(p, name).hex() for name in PARAM_FIELDS)


def stock_run():
    """The stock profiles and starts, over 30 steps."""
    config = SimulationConfig(total_steps=30, inner_substeps=2, seed=3)
    return run(config, PROFILES, default_initial(PROFILES), CORPUS)


def test_agents_with_equal_coefficients_share_one_object():
    assert len(PROFILES) == 10
    result = stock_run()
    shared = 0
    for rec in result.records:
        by_value: dict[tuple, set[int]] = {}
        for ar in rec.agents.values():
            by_value.setdefault(bits(ar.params), set()).add(id(ar.params))
        assert all(len(ids) == 1 for ids in by_value.values()), rec.step
        shared += len(rec.agents) - len(by_value)
    assert shared > 0


def test_one_adjustment_per_distinct_coefficients_and_deltas(monkeypatch):
    calls = []
    adjust = simulation.apply_adjustments

    def counting(p, adj, bounds=None):
        # the call list holds p, so no id in it is reused while the test runs
        calls.append((p, tuple(adj.deltas.items())))
        return adjust(p, adj, bounds)

    monkeypatch.setattr(simulation, "apply_adjustments", counting)
    result = stock_run()
    keys = {(id(p), deltas) for p, deltas in calls}
    assert len(calls) == len(keys)
    assert len(calls) < len(PROFILES) * len(result.records)


def test_signed_zero_coefficients_and_deltas_match_a_step_by_step_replay():
    profiles = [ManufacturerProfile(aid, aid, "medium", "medium", 0.1, "x") for aid in "ABCD"]
    start = DEFAULT_PARAMETERS.replace(alpha1=-0.0, alpha2=-0.0, phi1=0.0)
    state = SystemState(t=0.0, g=0.5, c=0.4, m=0.3)
    # A and B add zeros of opposite signs to the same -0.0 fields; C and D
    # add equal nonzero deltas, so only they may share a memo entry
    deltas = {
        "A": [{"alpha1": 0.0, "phi1": -0.0}, {"alpha2": -0.0}, {"alpha1": 0.0}],
        "B": [{"alpha1": -0.0, "phi1": 0.0}, {"alpha2": 0.0}, {"alpha1": -0.0}],
        "C": [{"alpha3": 0.01}, {"alpha3": 0.01, "alpha1": -0.0}, {"beta2": -0.02}],
        "D": [{"alpha3": 0.01}, {"alpha3": 0.01, "alpha1": 0.0}, {"beta2": -0.02}],
    }
    script = {
        (t, aid): AgentDecision(
            comply=False, adjustments=ParameterAdjustment(steps[t]), submission=None, rationale="scripted"
        )
        for aid, steps in deltas.items()
        for t in range(3)
    }
    config = SimulationConfig(total_steps=3, inner_substeps=1, policy_kind="scripted")
    result = run_scripted(config, profiles, {aid: (start, state) for aid in "ABCD"}, CORPUS, script)

    for aid in "ABCD":
        p = start
        for t, rec in enumerate(result.records):
            p = apply_adjustments(p, script[(t, aid)].adjustments, config.param_bounds)
            assert bits(rec.agents[aid].params) == bits(p), (aid, t)
    last = result.records[-1].agents
    assert (last["A"].params.alpha1.hex(), last["B"].params.alpha1.hex()) == ("0x0.0p+0", "-0x0.0p+0")
    assert (last["A"].params.alpha2.hex(), last["B"].params.alpha2.hex()) == ("-0x0.0p+0", "0x0.0p+0")
    assert last["C"].params.alpha3 == last["D"].params.alpha3


def test_every_approval_is_decide_against_the_step_threshold(monkeypatch):
    calls = []
    real = simulation.decide
    monkeypatch.setattr(simulation, "decide", lambda *args: calls.append(args) or real(*args))
    result = stock_run()
    submitted = 0
    for rec in result.records:
        for ar in rec.agents.values():
            if ar.brr is not None:
                submitted += 1
                assert ar.approved == decide(ar.brr, rec.threshold).approved
    # one call per distinct ratio per step
    assert len(calls) == sum(
        len({ar.brr for ar in rec.agents.values() if ar.brr is not None}) for rec in result.records
    ) < submitted


def test_two_runs_share_no_coefficient_object():
    initial = default_initial(PROFILES)
    a, b = stock_run(), stock_run()
    starts = {id(p) for p, _ in initial.values()}

    def built(result):
        return {id(ar.params) for rec in result.records for ar in rec.agents.values()} - starts

    assert built(a) and built(b)
    assert not built(a) & built(b)


def written(profiles) -> tuple[bytes, bytes]:
    """The result.json and trajectories.csv bytes of a short run of profiles."""
    config = SimulationConfig(total_steps=12, inner_substeps=1, seed=2)
    result = run(config, profiles, default_initial(profiles), CORPUS)
    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = Path(tmp) / "result.json", Path(tmp) / "trajectories.csv"
        write_result_json(result, json_path)
        write_result_csv(result, csv_path)
        return json_path.read_bytes(), csv_path.read_bytes()


@settings(max_examples=15, deadline=None)
@given(st.permutations(PROFILES))
def test_profile_order_gives_the_same_bytes(profiles):
    assert written(profiles) == written(PROFILES)
