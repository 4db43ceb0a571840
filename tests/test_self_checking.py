"""Each value type checks its own fields when it is built.

A value that exists is valid: construction, dataclasses.replace and
from_json all raise for an out-of-range field, and the message names it.
Public functions check their scalar arguments with the same two helpers.
"""

import dataclasses
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflow import calibration
from regflow.agents import (
    DEFAULT_PROFILES,
    RISK_PREFERENCES,
    TIER_INDEX,
    AgentDecision,
    ClientConfig,
    ParameterAdjustment,
)
from regflow.analysis import adherence_accuracy, sweep
from regflow.brr import SCORE_FIELDS, Submission, ThresholdConfig, decide
from regflow.calibration import FitOptions, fit, generate_synthetic
from regflow.cli import ConfigFile
from regflow.corpus import Schedule, active_phase, build_default_corpus
from regflow.dynamics import (
    DEFAULT_INITIAL_STATE,
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    advance,
    integrate,
)
from regflow.errors import ArgumentError, DomainError
from regflow.schema import from_json
from regflow.simulation import POLICY_KINDS, SimulationConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NEGATIVE = st.floats(max_value=-1e-300)
# a bool or a str is never a number, and a count is an int
NOT_REAL = st.sampled_from([True, False, "1", "x"])
NOT_AN_INT = st.sampled_from([True, False, "3", 2.5, 3.0])
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), NON_FINITE, NOT_REAL)
NOT_NON_NEGATIVE = st.one_of(st.floats(max_value=0.0, exclude_max=True), NON_FINITE, NOT_REAL)
NOT_A_UNIT_FRACTION = st.one_of(
    st.floats(min_value=1.0, exclude_min=True), st.floats(max_value=0.0, exclude_max=True), NON_FINITE, NOT_REAL
)
NOT_A_COUNT = st.one_of(st.integers(max_value=0), NOT_AN_INT)
NOT_A_COUNT_FROM_ZERO = st.one_of(st.integers(max_value=-1), NOT_AN_INT)

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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ModelParameters(alpha1=10**400),
            "parameter alpha1 must be within the float range, got an integer of 401 digits",
        ),
        (
            lambda: DEFAULT_PARAMETERS.replace(gamma2=-(10**5000)),
            "parameter gamma2 must be within the float range, got an integer of 16610 bits",
        ),
        (
            lambda: SystemState(0.0, 10**400, 0.1, 0.1),
            "state field g must be within the float range, got an integer of 401 digits",
        ),
    ],
    ids=["parameter", "parameter-negative", "state"],
)
def test_an_int_past_the_float_range_is_refused(build, message):
    # advance would otherwise fail converting it with an OverflowError
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


def test_the_largest_int_within_the_float_range_is_accepted():
    top = int(sys.float_info.max)
    assert ModelParameters(alpha1=top).alpha1 == top
    assert SystemState(0.0, top, 0.1, 0.1).g == top


@settings(max_examples=60, deadline=None)
@given(name=st.text(min_size=1).filter(lambda s: s not in PARAM_FIELDS))
def test_parameter_adjustment_rejects_an_unknown_name(name):
    rejects(ArgumentError, f"unknown parameter name {name!r}", ParameterAdjustment({}), {"deltas": {name: 0.01}})


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(PARAM_FIELDS), delta=st.one_of(NON_FINITE, st.sampled_from([True, "x"])))
def test_parameter_adjustment_rejects_a_non_finite_delta(name, delta):
    need = "must be finite" if type(delta) is float else "must be a number"
    rejects(ArgumentError, f"delta for {name} {need}", ParameterAdjustment({}), {"deltas": {name: delta}})


def test_parameter_adjustment_deltas_are_read_only():
    deltas = {"alpha1": 0.01}
    adj = ParameterAdjustment(deltas)
    with pytest.raises(TypeError):
        adj.deltas["alpha9"] = 0.01
    deltas["alpha9"] = 0.01
    assert adj.deltas == {"alpha1": 0.01}


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
        st.tuples(st.just("window"), NOT_A_COUNT),
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
    need = "must be >= 1" if type(value) is int else "must be an integer"
    rejects(ArgumentError, f"schedule {name} {need}", Schedule(), {name: value})


@settings(max_examples=40, deadline=None)
@given(strictness=st.text().filter(lambda s: s not in ("strict", "lenient")))
def test_regulation_rejects_an_unknown_strictness(strictness):
    reg = build_default_corpus()[0]
    rejects(ArgumentError, f"invalid strictness {strictness!r}", reg, {"strictness": strictness})


@settings(max_examples=60, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("resource_tier"), st.text().filter(lambda s: s not in TIER_INDEX)),
        st.tuples(st.just("risk_preference"), st.text().filter(lambda s: s not in RISK_PREFERENCES)),
        st.tuples(st.just("ai_investment_fraction"), NOT_A_UNIT_FRACTION),
    )
)
def test_manufacturer_profile_rejects_an_out_of_range_field(change):
    name, value = change
    fragment = {
        "resource_tier": "unknown resource tier",
        "risk_preference": "unknown risk preference",
        "ai_investment_fraction": "ai_investment_fraction must be "
        + ("in [0, 1]" if type(value) is float else "a number"),
    }[name]
    rejects(ArgumentError, fragment, DEFAULT_PROFILES[0], {name: value})


@settings(max_examples=80, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.sampled_from(["total_steps", "inner_substeps", "llm_concurrency"]), NOT_A_COUNT),
        st.tuples(st.sampled_from(["dt_per_step", "max_step"]), NOT_POSITIVE),
        st.tuples(st.just("policy_kind"), st.text().filter(lambda s: s not in POLICY_KINDS)),
    )
)
def test_simulation_config_rejects_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, f"{name} must be", SimulationConfig(), {name: value})


@pytest.mark.parametrize("llm", ["http://x", {"endpoint": "http://x"}, 1])
def test_simulation_config_rejects_an_llm_that_is_not_a_client_config(llm):
    rejects(ArgumentError, f"llm must be a ClientConfig or None, got {llm!r}", SimulationConfig(), {"llm": llm})


@pytest.mark.parametrize(
    "bounds, fragment",
    [
        ({"alpha1": (0.0, 1.0)}, "param_bounds has no bounds for alpha2, alpha3"),
        ({**DEFAULT_PARAM_BOUNDS, "alpha9": (0.0, 1.0)}, "param_bounds names unknown parameter 'alpha9'"),
        ({**DEFAULT_PARAM_BOUNDS, "beta1": (2.0, 1.0)}, "param_bounds: bounds for beta1 must be [lo, hi]"),
        ({**DEFAULT_PARAM_BOUNDS, "phi1": (0.0, math.nan)}, "param_bounds: bounds for phi1 must be [lo, hi]"),
        ([("alpha1", (0.0, 1.0))], "param_bounds must map each coefficient name to [lo, hi]"),
    ],
)
def test_simulation_config_rejects_a_malformed_box(bounds, fragment):
    rejects(ArgumentError, fragment, SimulationConfig(), {"param_bounds": bounds})


@pytest.mark.parametrize("cls", [SimulationConfig, ConfigFile])
def test_simulation_config_is_frozen(cls):
    config = cls()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.total_steps = 0
    assert config.total_steps == 73


@settings(max_examples=40, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("max_iter"), NOT_A_COUNT),
        st.tuples(st.just("tol"), NOT_NON_NEGATIVE),
        st.tuples(st.just("restarts"), NOT_A_COUNT_FROM_ZERO),
    )
)
def test_fit_options_reject_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, f"{name} must be", FitOptions(), {name: value})


@settings(max_examples=30, deadline=None)
@given(cls=st.sampled_from([SimulationConfig, FitOptions]), value=st.one_of(NOT_AN_INT, st.none()))
def test_a_seed_must_be_an_int(cls, value):
    rejects(ArgumentError, f"seed must be an integer, got {value!r}", cls(), {"seed": value})


@pytest.mark.parametrize("cls", [SimulationConfig, FitOptions])
def test_a_seed_may_be_negative(cls):
    assert cls(seed=-1).seed == -1


@settings(max_examples=40, deadline=None)
@given(
    change=st.one_of(
        st.tuples(st.just("timeout"), NOT_POSITIVE),
        st.tuples(st.just("retries"), NOT_A_COUNT_FROM_ZERO),
    )
)
def test_client_config_rejects_an_out_of_range_field(change):
    name, value = change
    rejects(ArgumentError, f"llm.{name} must be", ClientConfig("http://localhost/v1"), {name: value})


OBS = generate_synthetic(DEFAULT_PARAMETERS, DEFAULT_INITIAL_STATE, 1.0, 0.05, 2, 0.0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: advance(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, "x", 1), "dt must be a number, got 'x'"),
        (lambda: integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, "x", 0.05), "horizon must be a number"),
        (lambda: integrate(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 1.0, math.inf), "dt must be positive"),
        (lambda: advance(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, 0.05, True), "substeps must be an integer"),
        (lambda: advance(DEFAULT_INITIAL_STATE, DEFAULT_PARAMETERS, True, 1), "dt must be a number"),
        (lambda: decide(True, 1.0), "brr must be a number, got True"),
        (lambda: decide(10**400, 1.0), "brr must be a number within the float range, got an integer of 401 digits"),
        (lambda: decide(-(10**5000), 1.0), "brr must be a number within the float range, got an integer of 16610 bits"),
        (lambda: decide(4.0, math.nan), "threshold must be positive"),
        (lambda: active_phase(True, Schedule()), "t must be an integer, got True"),
        (lambda: active_phase(-1, Schedule()), "t must be >= 0, got -1"),
        (lambda: generate_synthetic(DEFAULT_PARAMETERS, DEFAULT_INITIAL_STATE, 1.0, 0.05, True, 0.0, 0),
         "sample_every must be an integer"),
        (lambda: generate_synthetic(DEFAULT_PARAMETERS, DEFAULT_INITIAL_STATE, 1.0, 0.05, 2, "x", 0),
         "noise_sd must be a number"),
        (lambda: adherence_accuracy([1.0], [1.0], "x"), "epsilon must be a number"),
        (lambda: sweep(DEFAULT_PARAMETERS, DEFAULT_INITIAL_STATE, 1.0, 0.05, "alpha1", [True]),
         "sweep value must be a number"),
        (lambda: fit(OBS, DEFAULT_PARAMETERS, bounds={"alpha1": (0.0, 1.0)}), "bounds has no bounds for alpha2"),
    ],
)
def test_functions_check_their_scalar_arguments(call, message):
    with pytest.raises(ArgumentError, match=re.escape(message)):
        call()


def test_calibration_refuses_a_grid_over_the_step_limit_before_integrating(monkeypatch):
    def kernel(*args):
        raise AssertionError("the integration ran")

    monkeypatch.setattr(calibration, "_integrate_raw", kernel)
    with pytest.raises(ArgumentError, match="limit is 10000000"):
        calibration._prepare(OBS, 1e-300)
    with pytest.raises(ArgumentError, match="limit is 10000000"):
        fit(OBS, DEFAULT_PARAMETERS, dt=1e-300)


def test_simulation_config_refuses_more_rk4_steps_than_the_limit():
    config = SimulationConfig(total_steps=500_000)
    assert config.total_steps * config.inner_substeps == 10_000_000
    with pytest.raises(ArgumentError, match=re.escape("total_steps * inner_substeps requires 10000020 RK4 steps")):
        SimulationConfig(total_steps=500_001)
    with pytest.raises(ArgumentError, match="limit is 10000000"):
        dataclasses.replace(config, inner_substeps=21)


@pytest.mark.parametrize(
    "cls, data, exc, message",
    [
        (ModelParameters, {"alpha1": -0.5}, DomainError, "guess: parameter alpha1 must be >= 0, got -0.5"),
        (Schedule, {"lenient_steps": 0}, ArgumentError, "guess: schedule lenient_steps must be >= 1, got 0"),
        (ParameterAdjustment, {"alpha9": 0.1}, ArgumentError, "guess: unknown parameter name 'alpha9'"),
        (AgentDecision, {"comply": True}, ArgumentError, "guess: comply decision without a submission"),
    ],
)
def test_from_json_puts_the_path_in_front_and_keeps_the_class(cls, data, exc, message):
    with pytest.raises(exc) as err:
        from_json(cls, data, "guess")
    assert type(err.value) is exc and str(err.value) == message
