"""regflow: a feedback-driven regulator/manufacturer market simulation.

The package couples a nonlinear ODE model of guidance issuance, compliance
effort, market adaptation, and manufacturer feedback with a multi-agent
decision loop: a schedule of strict and lenient regulations, per-agent
compliance policies, benefit-risk-ratio approvals against a dynamic
threshold, least-squares calibration of the model coefficients, and an
analysis suite (adherence, stability, group statistics, sensitivity
sweeps). Everything is deterministic given a seed.
"""

from .errors import (
    ArgumentError,
    DomainError,
    NumericalError,
    RegflowError,
    ReplyParseError,
)
from .dynamics import (
    DEFAULT_INITIAL_STATE,
    DEFAULT_PARAM_BOUNDS,
    DEFAULT_PARAMETERS,
    PARAM_FIELDS,
    ModelParameters,
    SystemState,
    Trajectory,
    advance,
    eval_feedback,
    integrate,
)
from .calibration import (
    FitOptions,
    FitResult,
    ObservedSeries,
    fit,
    generate_synthetic,
    objective,
    read_series_csv,
    write_series_csv,
)
from .brr import (
    BRRDecision,
    Submission,
    ThresholdConfig,
    compute_brr,
    decide,
    update_threshold,
)
from .corpus import (
    Regulation,
    Schedule,
    active_phase,
    build_default_corpus,
    load_corpus,
    regulations_for,
)
from .agents import (
    DEFAULT_MAX_STEP,
    DEFAULT_PROFILES,
    AgentDecision,
    ClientConfig,
    ManufacturerProfile,
    ParameterAdjustment,
    PolicyEnv,
    apply_adjustments,
    llm_policy_decide,
    parse_llm_reply,
    render_prompt,
    rule_policy_decide,
)
from .simulation import (
    SimulationConfig,
    SimulationResult,
    StepRecord,
    default_initial,
    extract_script,
    run,
    run_scripted,
    write_result_csv,
    write_result_json,
)
from .analysis import (
    MetricsReport,
    SweepResult,
    WelchAnovaResult,
    adherence_accuracy,
    bonferroni_pairwise,
    compliance_stability,
    metrics_report,
    sweep,
    welch_anova,
    write_sweep_csv,
)

__version__ = "0.1.0"
