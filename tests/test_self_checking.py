"""Each value type checks its own fields when it is built.

A value that exists is valid: construction, dataclasses.replace and
from_json all raise for an out-of-range field, and the message names it.
"""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflow.agents import (
    DEFAULT_PROFILES,
    RESOURCE_TIERS,
    RISK_PREFERENCES,
    AgentDecision,
    ParameterAdjustment,
)
from regflow.brr import SCORE_FIELDS, Submission, ThresholdConfig
from regflow.calibration import FitOptions
from regflow.cli import ConfigFile
from regflow.corpus import Schedule, build_default_corpus
from regflow.dynamics import DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, PARAM_FIELDS, ModelParameters, SystemState
from regflow.errors import ArgumentError, DomainError
from regflow.schema import from_json
from regflow.simulation import POLICY_KINDS, SimulationConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-300)
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), NON_FINITE)
NOT_A_UNIT_FRACTION = st.one_of(
    st.floats(min_value=1.0, exclude_min=True), st.floats(max_value=0.0, exclude_max=True), st.just(math.nan)
)
NOT_A_COUNT = st.one_of(st.integers(max_value=0), st.booleans())

SUBMISSION = Submission("A", 5, 5, 5, 5)


def rejects(exc, fragment: str, valid, changes: dict) -> None:
    """Building the value anew and replacing fields of a valid one both
    raise exc with a message that holds fragment."""
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(exc, match=re.escape(fragment)):
        type(valid)(**{**kwargs, **changes})
    with pytest.raises(exc, match=re.escape(fragment)):
        dataclasses.replace(valid, **changes)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(PARAM_FIELDS), value=st.one_of(NON_FINITE, NEGATIVE))
def test_model_parameters_reject_a_non_finite_or_negative_coefficient(name, value):
    rejects(DomainError, f"parameter {name} ", DEFAULT_PARAMETERS, {name: value})
    with pytest.raises(DomainError, match=f"parameter {name} "):
        DEFAULT_PARAMETERS.replace(**{name: value})


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["t", "g", "c", "m"]), value=st.one_of(NON_FINITE, NEGATIVE))
def test_system_state_rejects_a_non_finite_or_negative_field(name, value):
    rejects(DomainError, f"state field {name} ", DEFAULT_INITIAL_STATE, {name: value})


def test_the_first_bad_field_is_named():
    with pytest.raises(DomainError, match="state field c is not finite: nan"):
        SystemState(0.0, 1.0, math.nan, -1.0)
    with pytest.raises(DomainError, match="parameter beta1 must be >= 0, got -1.0"):
        ModelParameters(beta1=-1.0, gamma2=math.inf)


@settings(max_examples=60, deadline=None)
@given(name=st.text(min_size=1).filter(lambda s: s not in PARAM_FIELDS))
def test_parameter_adjustment_rejects_an_unknown_name(name):
    rejects(ArgumentError, f"unknown parameter name {name!r}", ParameterAdjustment({}), {"deltas": {name: 0.01}})


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(PARAM_FIELDS), delta=NON_FINITE)
def test_parameter_adjustment_rejects_a_non_finite_delta(name, delta):
    rejects(ArgumentError, f"delta for {name} is not finite", ParameterAdjustment({}), {"deltas": {name: delta}})


def test_a_complying_decision_needs_a_submission():
    declined = AgentDecision(comply=False)
    rejects(ArgumentError, "comply decision without a submission", declined, {"comply": True})
    complied = AgentDecision(comply=True, submission=SUBMISSION)
    rejects(ArgumentError, "comply decision without a submission", complied, {"submission": None})


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(SCORE_FIELDS),
    value=st.one_of(st.integers(max_value=0), st.integers(min_value=11), st.floats(), st.booleans()),
)
def test_submission_rejects_a_score_outside_1_to_10(name, value):
    rejects(DomainError, f"submission score {name} must be", SUBMISSION, {name: value})


@settings(max_examples=60, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.sampled_from(["base", "floor", "ceiling"]), NOT_POSITIVE),
        st.tuples(st.just("kappa"), NOT_A_UNIT_FRACTION),
        st.tuples(st.just("window"), st.integers(max_value=0)),
    )
)
def test_threshold_config_rejects_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, name, ThresholdConfig(), {name: value})


def test_threshold_config_needs_floor_base_ceiling_in_order():
    rejects(ArgumentError, "floor <= base <= ceiling", ThresholdConfig(), {"floor": 5.0})
    rejects(ArgumentError, "floor <= base <= ceiling", ThresholdConfig(), {"ceiling": 3.0})


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["strict_steps", "lenient_steps"]), value=NOT_A_COUNT)
def test_schedule_rejects_a_count_below_one(name, value):
    rejects(ArgumentError, f"schedule {name} must be a positive integer", Schedule(), {name: value})


@settings(max_examples=40, deadline=None)
@given(strictness=st.text().filter(lambda s: s not in ("strict", "lenient")))
def test_regulation_rejects_an_unknown_strictness(strictness):
    reg = build_default_corpus()[0]
    rejects(ArgumentError, f"invalid strictness {strictness!r}", reg, {"strictness": strictness})


@settings(max_examples=60, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("resource_tier"), st.text().filter(lambda s: s not in RESOURCE_TIERS)),
        st.tuples(st.just("risk_preference"), st.text().filter(lambda s: s not in RISK_PREFERENCES)),
        st.tuples(st.just("ai_investment_fraction"), NOT_A_UNIT_FRACTION),
    )
)
def test_manufacturer_profile_rejects_an_out_of_range_field(change):
    name, value = change
    fragment = {
        "resource_tier": "unknown resource tier",
        "risk_preference": "unknown risk preference",
        "ai_investment_fraction": "ai_investment_fraction must be in [0, 1]",
    }[name]
    rejects(ArgumentError, fragment, DEFAULT_PROFILES[0], {name: value})


@settings(max_examples=80, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.sampled_from(["total_steps", "inner_substeps", "llm_concurrency"]), st.integers(max_value=0)),
        st.tuples(st.sampled_from(["dt_per_step", "max_step"]), NOT_POSITIVE),
        st.tuples(st.just("policy_kind"), st.text().filter(lambda s: s not in POLICY_KINDS)),
    )
)
def test_simulation_config_rejects_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, f"{name} must be", SimulationConfig(), {name: value})


@pytest.mark.parametrize("cls", [SimulationConfig, ConfigFile])
def test_simulation_config_is_frozen(cls):
    config = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.total_steps = 0
    assert config.total_steps == 73


@settings(max_examples=40, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("max_iter"), st.integers(max_value=0)),
        st.tuples(st.just("tol"), st.floats(max_value=0.0, exclude_max=True)),
        st.tuples(st.just("restarts"), st.integers(max_value=-1)),
    )
)
def test_fit_options_reject_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, f"{name} must be", FitOptions(), {name: value})


@pytest.mark.parametrize(
    "cls, data, exc, message",
    [
        (ModelParameters, {"alpha1": -0.5}, DomainError, "guess: parameter alpha1 must be >= 0, got -0.5"),
        (Schedule, {"lenient_steps": 0}, ArgumentError, "guess: schedule lenient_steps must be a positive integer, got 0"),
        (ParameterAdjustment, {"alpha9": 0.1}, ArgumentError, "guess: unknown parameter name 'alpha9'"),
        (AgentDecision, {"comply": True}, ArgumentError, "guess: comply decision without a submission"),
    ],
)
def test_from_json_puts_the_path_in_front_and_keeps_the_class(cls, data, exc, message):
    with pytest.raises(exc) as err:
        from_json(cls, data, "guess")
    assert type(err.value) is exc and str(err.value) == message
