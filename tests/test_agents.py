"""Manufacturer policies, adjustments, prompts, and reply parsing."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflow.agents import (
    DEFAULT_MAX_STEP,
    DEFAULT_PROFILES,
    AgentDecision,
    ManufacturerProfile,
    ParameterAdjustment,
    PolicyEnv,
    apply_adjustments,
    parse_llm_reply,
    render_prompt,
    rule_policy_decide,
)
from regflow.corpus import Regulation, Schedule, build_default_corpus, regulations_for
from regflow.dynamics import DEFAULT_PARAM_BOUNDS, PARAM_FIELDS, ModelParameters, SystemState
from regflow.errors import ArgumentError, ReplyParseError

CORPUS = build_default_corpus()
STRICT_REGS = regulations_for(0, CORPUS, Schedule())
LENIENT_REGS = regulations_for(10, CORPUS, Schedule())
STATE = SystemState(t=0.0, g=0.5, c=0.5, m=0.5)
ENV = PolicyEnv(threshold=4.0, last_approved=True, feedback=0.12)


class TestDefaultProfiles:
    def test_ten_profiles_with_expected_tiers(self):
        assert len(DEFAULT_PROFILES) == 10
        tiers = {p.id: p.resource_tier for p in DEFAULT_PROFILES}
        assert {aid for aid, t in tiers.items() if t == "rich"} == {"A", "B", "J"}
        assert {aid for aid, t in tiers.items() if t == "medium"} == {"E", "F", "G"}
        assert {aid for aid, t in tiers.items() if t == "limited"} == {"C", "D", "H", "I"}

    def test_profile_h_attributes(self):
        h = next(p for p in DEFAULT_PROFILES if p.id == "H")
        assert h.risk_preference == "low"
        assert h.ai_investment_fraction == pytest.approx(0.06)
        assert "preventive care" in h.focus


class TestRulePolicy:
    def test_rich_strict_low_risk_scores(self):
        profile = ManufacturerProfile("X", "X Corp", "rich", "low", 0.06, "devices")
        d = rule_policy_decide(profile, STRICT_REGS, STATE, ENV)
        assert d.comply is True
        assert d.submission.safety == 8
        assert d.submission.compliance == 9
        assert d.submission.adverse == 3
        assert d.submission.agent_id == "X"

    def test_limited_lenient_adjustments(self):
        profile = ManufacturerProfile("Y", "Y Corp", "limited", "high", 0.0, "devices")
        d = rule_policy_decide(profile, LENIENT_REGS, STATE, ENV)
        assert d.adjustments.deltas == {"alpha3": 0.01, "beta3": -0.005}

    def test_strict_adjustments_scale_with_tier(self):
        for tier, r in (("limited", 0.5), ("medium", 1.0), ("rich", 1.5)):
            profile = ManufacturerProfile("Z", "Z", tier, "medium", 0.05, "x")
            d = rule_policy_decide(profile, STRICT_REGS, STATE, ENV)
            assert d.adjustments.deltas == pytest.approx(
                {"alpha2": 0.02 * r, "phi2": 0.01 * r, "beta2": -0.01 * r}
            )

    def test_rejection_adds_compliance_drive(self):
        profile = ManufacturerProfile("Z", "Z", "medium", "medium", 0.05, "x")
        rejected_env = PolicyEnv(threshold=4.0, last_approved=False)
        d_ok = rule_policy_decide(profile, STRICT_REGS, STATE, ENV)
        d_rej = rule_policy_decide(profile, STRICT_REGS, STATE, rejected_env)
        assert d_rej.adjustments.deltas["alpha2"] == pytest.approx(
            d_ok.adjustments.deltas["alpha2"] + 0.01
        )
        d_rej_len = rule_policy_decide(profile, LENIENT_REGS, STATE, rejected_env)
        assert d_rej_len.adjustments.deltas["alpha2"] == pytest.approx(0.01)

    def test_deltas_respect_max_step(self):
        profile = ManufacturerProfile("Z", "Z", "rich", "medium", 0.05, "x")
        rejected = PolicyEnv(threshold=4.0, last_approved=False)
        d = rule_policy_decide(profile, STRICT_REGS, STATE, rejected, max_step=0.03)
        assert all(abs(v) <= 0.03 for v in d.adjustments.deltas.values())

    def test_deterministic(self):
        profile = DEFAULT_PROFILES[0]
        a = rule_policy_decide(profile, STRICT_REGS, STATE, ENV)
        b = rule_policy_decide(profile, STRICT_REGS, STATE, ENV)
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(
        profile=st.builds(
            ManufacturerProfile,
            id=st.text(min_size=1, max_size=4),
            name=st.text(max_size=8),
            resource_tier=st.sampled_from(("limited", "medium", "rich")),
            risk_preference=st.sampled_from(("low", "medium", "high")),
            ai_investment_fraction=st.floats(min_value=0.0, max_value=1.0),
        ),
        regs=st.sampled_from((STRICT_REGS, LENIENT_REGS, STRICT_REGS[:2], LENIENT_REGS[3:])),
        last_approved=st.booleans(),
        max_step=st.floats(min_value=1e-9, max_value=10.0),
        states=st.lists(
            st.builds(SystemState, *[st.floats(min_value=0.0, max_value=1e9)] * 4), min_size=2, max_size=2
        ),
        thresholds=st.lists(st.floats(), min_size=2, max_size=2),
        feedbacks=st.lists(st.floats(), min_size=2, max_size=2),
    )
    def test_reads_neither_state_nor_threshold_nor_feedback(
        self, profile, regs, last_approved, max_step, states, thresholds, feedbacks
    ):
        # simulation.run reuses a rule decision on this premise
        a, b = (
            rule_policy_decide(profile, regs, state, PolicyEnv(threshold, last_approved, feedback), max_step)
            for state, threshold, feedback in zip(states, thresholds, feedbacks)
        )
        assert a == b

    def test_scores_always_in_range(self):
        for profile in DEFAULT_PROFILES:
            for regs in (STRICT_REGS, LENIENT_REGS):
                for approved in (True, False):
                    d = rule_policy_decide(
                        profile, regs, STATE, PolicyEnv(4.0, approved)
                    )
                    s = d.submission
                    for v in (s.safety, s.effectiveness, s.compliance, s.adverse):
                        assert 1 <= v <= 10
                    assert d.comply and s.agent_id == profile.id
                    assert all(abs(x) <= DEFAULT_MAX_STEP for x in d.adjustments.deltas.values())

    def test_mixed_strictness_rejected(self):
        mixed = [STRICT_REGS[0], LENIENT_REGS[0]]
        with pytest.raises(ArgumentError):
            rule_policy_decide(DEFAULT_PROFILES[0], mixed, STATE, ENV)

    def test_empty_regulations_rejected(self):
        with pytest.raises(ArgumentError):
            rule_policy_decide(DEFAULT_PROFILES[0], [], STATE, ENV)


class TestApplyAdjustments:
    def test_empty_is_identity(self):
        p = ModelParameters(alpha1=0.3)
        assert apply_adjustments(p, ParameterAdjustment({})) == p

    def test_simple_addition(self):
        p = ModelParameters(alpha1=0.1)
        out = apply_adjustments(p, ParameterAdjustment({"alpha1": 0.05}))
        assert out.alpha1 == pytest.approx(0.15)

    def test_clamps_at_lower_bound(self):
        p = ModelParameters(beta3=0.004)
        out = apply_adjustments(p, ParameterAdjustment({"beta3": -0.01}))
        assert out.beta3 == 0.0

    def test_clamps_at_upper_bound(self):
        p = ModelParameters(phi1=4.999)
        out = apply_adjustments(p, ParameterAdjustment({"phi1": 0.05}))
        assert out.phi1 == 5.0

    def test_unnamed_fields_untouched(self):
        p = ModelParameters(alpha1=0.1, alpha2=0.2, beta1=0.3)
        out = apply_adjustments(p, ParameterAdjustment({"alpha1": 0.01}))
        for name in PARAM_FIELDS:
            if name != "alpha1":
                assert getattr(out, name) == getattr(p, name)

    def test_custom_bounds(self):
        p = ModelParameters(alpha1=0.1)
        out = apply_adjustments(
            p, ParameterAdjustment({"alpha1": 5.0}), bounds={**DEFAULT_PARAM_BOUNDS, "alpha1": (0.0, 1.0)}
        )
        assert out.alpha1 == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ArgumentError):
            apply_adjustments(ModelParameters(), ParameterAdjustment({"alpha9": 0.1}))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=13, max_size=13),
        deltas=st.dictionaries(
            st.sampled_from(PARAM_FIELDS),
            st.floats(min_value=-2.0, max_value=2.0) | st.integers(min_value=-2, max_value=2),
        ),
        boxes=st.none() | st.lists(
            st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=2).map(sorted),
            min_size=13,
            max_size=13,
        ),
    )
    def test_equals_replace_with_the_clipped_values_bit_for_bit(self, values, deltas, boxes):
        p = ModelParameters(*values)
        bounds = None if boxes is None else dict(zip(PARAM_FIELDS, map(tuple, boxes)))
        out = apply_adjustments(p, ParameterAdjustment(deltas), bounds)
        if not deltas:
            assert out is p
            return
        box = DEFAULT_PARAM_BOUNDS if bounds is None else bounds
        expected = replace(
            p, **{name: min(max(getattr(p, name) + d, box[name][0]), box[name][1]) for name, d in deltas.items()}
        )
        assert [(type(v), v.hex()) for v in vars(out).values()] == [
            (type(v), v.hex()) for v in vars(expected).values()
        ]


class TestRenderPrompt:
    def test_deterministic(self):
        a = render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV)
        b = render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV)
        assert a == b

    def test_contains_each_regulation_id_once(self):
        prompt = render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV)
        for reg in STRICT_REGS:
            assert prompt.count(reg.id) == 1

    def test_contains_state_threshold_and_grammar(self):
        prompt = render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV)
        assert "G=0.5000 C=0.5000 M=0.5000 F=0.1200" in prompt
        assert "threshold: 4.0000" in prompt
        assert '"comply": bool' in prompt

    def test_states_the_given_max_step(self):
        assert "+/-0.05." in render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV)
        prompt = render_prompt(DEFAULT_PROFILES[0], STRICT_REGS, STATE, ENV, max_step=0.02)
        assert "Each adjustment value must lie within +/-0.02." in prompt

    def test_length_grows_linearly_with_regulations(self):
        reg = Regulation("r0", "strict", "T", "body text " * 10, "x")
        lengths = []
        for n in (1, 2, 4):
            regs = [
                Regulation(f"r{i}", "strict", "T", "body text " * 10, "x") for i in range(n)
            ]
            lengths.append(len(render_prompt(DEFAULT_PROFILES[0], regs, STATE, ENV)))
        assert lengths[2] - lengths[1] == pytest.approx(2 * (lengths[1] - lengths[0]), abs=16)


class TestParseLlmReply:
    GOOD = {
        "comply": True,
        "adjustments": {"alpha1": 0.02, "beta2": -0.01},
        "safety": 8,
        "effectiveness": 7,
        "compliance": 9,
        "adverse": 4,
        "rationale": "solid program",
    }

    def test_round_trip(self):
        d = parse_llm_reply(json.dumps(self.GOOD), agent_id="A", regulation_ids=("r1",))
        assert d.comply is True
        assert d.submission.safety == 8
        assert d.submission.effectiveness == 7
        assert d.submission.compliance == 9
        assert d.submission.adverse == 4
        assert d.submission.agent_id == "A"
        assert d.submission.regulation_ids == ("r1",)
        assert d.adjustments.deltas == {"alpha1": 0.02, "beta2": -0.01}
        assert d.rationale == "solid program"
        assert d.warnings == ()

    def test_out_of_range_score_clipped_with_warning(self):
        reply = dict(self.GOOD, safety=15)
        d = parse_llm_reply(json.dumps(reply), agent_id="A")
        assert d.submission.safety == 10
        assert any("safety" in w for w in d.warnings)

    def test_fractional_score_rounded_with_warning(self):
        reply = dict(self.GOOD, adverse=3.6)
        d = parse_llm_reply(json.dumps(reply), agent_id="A")
        assert d.submission.adverse == 4
        assert any("adverse" in w for w in d.warnings)

    def test_oversized_delta_clipped(self):
        reply = dict(self.GOOD, adjustments={"alpha1": 0.4, "beta1": -9.0})
        d = parse_llm_reply(json.dumps(reply), agent_id="A")
        assert d.adjustments.deltas == {"alpha1": 0.05, "beta1": -0.05}
        assert len(d.warnings) == 2

    def test_unknown_adjustment_key_dropped(self):
        reply = dict(self.GOOD, adjustments={"alpha1": 0.01, "market_share": 0.2})
        d = parse_llm_reply(json.dumps(reply), agent_id="A")
        assert d.adjustments.deltas == {"alpha1": 0.01}
        assert any("market_share" in w for w in d.warnings)

    def test_no_comply_means_no_submission(self):
        reply = dict(self.GOOD, comply=False)
        d = parse_llm_reply(json.dumps(reply), agent_id="A")
        assert d.comply is False
        assert d.submission is None

    def test_fenced_reply_still_parses(self):
        text = "```json\n" + json.dumps(self.GOOD) + "\n```"
        d = parse_llm_reply(text, agent_id="A")
        assert d.comply is True

    def test_not_json_fails(self):
        with pytest.raises(ReplyParseError):
            parse_llm_reply("not json at all")

    def test_missing_field_fails(self):
        reply = {k: v for k, v in self.GOOD.items() if k != "adverse"}
        with pytest.raises(ReplyParseError, match="adverse"):
            parse_llm_reply(json.dumps(reply))

    def test_non_boolean_comply_fails(self):
        reply = dict(self.GOOD, comply="yes")
        with pytest.raises(ReplyParseError):
            parse_llm_reply(json.dumps(reply))

    def test_json_array_fails(self):
        with pytest.raises(ReplyParseError):
            parse_llm_reply("[1, 2, 3]")

    @pytest.mark.parametrize(
        "key, raw, message",
        [
            ("safety", "9" * 400, "score safety must be a number"),
            ("adjustments", '{"alpha1": -' + "9" * 400 + "}", "adjustment alpha1 must be a number"),
            ("safety", "9" * 5000, "reply is not valid JSON"),
            ("safety", "[" * 100_000 + "]" * 100_000, "reply is not valid JSON"),
            ("safety", "NaN", "score safety must be finite"),
            ("comply", "1", "comply must be true or false, got 1"),
            ("rationale", "7", "rationale must be a string"),
            ("adjustments", "[]", "adjustments must be an object"),
        ],
        ids=[
            "score-past-the-float-range",
            "adjustment-past-the-float-range",
            "integer-too-long",
            "nested-too-deep",
            "score-nan",
            "comply-not-a-boolean",
            "rationale-not-a-string",
            "adjustments-not-an-object",
        ],
    )
    def test_malformed_value_raises_reply_parse_error(self, key, raw, message):
        # the raw JSON text goes in as written: json.dumps could not write most of it
        text = json.dumps(dict(self.GOOD, **{key: None})).replace(f'"{key}": null', f'"{key}": {raw}')
        with pytest.raises(ReplyParseError, match=message):
            parse_llm_reply(text)

    def test_braces_around_text_that_is_not_json_fail(self):
        with pytest.raises(ReplyParseError, match="reply is not valid JSON"):
            parse_llm_reply("Here it is: {comply: yes, safety: high} as asked")

    def test_decision_invariants_hold(self):
        d = parse_llm_reply(json.dumps(self.GOOD), agent_id="A")
        assert isinstance(d, AgentDecision)
        assert d.comply == (d.submission is not None)
        assert all(abs(v) <= DEFAULT_MAX_STEP for v in d.adjustments.deltas.values())

    @settings(max_examples=100, deadline=None)
    @given(
        deltas=st.dictionaries(st.sampled_from(PARAM_FIELDS), st.floats(allow_nan=False, allow_infinity=False)),
        comply=st.booleans(),
        max_step=st.floats(min_value=1e-9, max_value=10.0),
        agent_id=st.text(max_size=5),
    )
    def test_deltas_stay_within_max_step_and_the_submission_carries_the_agent_id(
        self, deltas, comply, max_step, agent_id
    ):
        # run_scripted checks a scripted decision for both; the run relies on
        # a parsed reply meeting them by construction
        reply = dict(self.GOOD, adjustments=deltas, comply=comply)
        d = parse_llm_reply(json.dumps(reply), max_step=max_step, agent_id=agent_id)
        assert all(abs(v) <= max_step for v in d.adjustments.deltas.values())
        assert d.submission is None or d.submission.agent_id == agent_id
