"""Command-line interface: subcommands, file outputs, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from regflow import calibration, simulation
from regflow.calibration import generate_synthetic, write_series_csv
from regflow.cli import main
from regflow.corpus import build_default_corpus
from regflow.dynamics import DEFAULT_PARAMETERS, ModelParameters, PARAM_FIELDS, SystemState
from regflow.schema import json_default


def params_json(p: ModelParameters) -> str:
    return json.dumps({name: getattr(p, name) for name in PARAM_FIELDS})


class TestSimulateCommand:
    def test_default_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "result.json").exists()
        assert (out / "trajectories.csv").exists()
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert len(lines) == 1 + 73 * 10
        summary = capsys.readouterr().out
        assert "steps=73" in summary and "final_threshold=" in summary

    def test_same_seed_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(out1), "--seed", "9"]) == 0
        assert main(["simulate", "--out", str(out2), "--seed", "9"]) == 0
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "trajectories.csv").read_bytes() == (out2 / "trajectories.csv").read_bytes()

    def test_negative_seed_is_recorded(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "-1", "--steps", "1"]) == 0
        assert json.loads((out / "result.json").read_text())["config"]["seed"] == -1

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_config_file_settings_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 5, "schedule": {"strict_steps": 2, "lenient_steps": 1}}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "result.json").read_text())
        assert len(data["records"]) == 5
        phases = [rec["phase"] for rec in data["records"]]
        assert phases == ["strict", "strict", "lenient", "strict", "strict"]

    def test_format_selects_outputs(self, tmp_path):
        out = tmp_path / "only-json"
        assert main(["simulate", "--out", str(out), "--steps", "3", "--format", "json"]) == 0
        assert (out / "result.json").exists()
        assert not (out / "trajectories.csv").exists()

    def test_bad_format_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--format", "xml"]) == 2

    def test_format_naming_no_output_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--format", ","]) == 2
        assert "--format must name at least one of csv, json" in capsys.readouterr().err

    def test_scripted_without_script_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--policy", "scripted"]) == 2


class TestCalibrateCommand:
    def test_self_fit_prints_tiny_objective(self, tmp_path, capsys):
        true = ModelParameters(alpha1=0.5, alpha2=0.4, alpha3=0.3, alpha4=0.6,
                               phi1=0.7, phi2=0.6, phi3=0.5, phi4=0.8,
                               beta1=0.2, beta2=0.2, beta3=0.3, gamma1=0.4, gamma2=0.3)
        obs = generate_synthetic(true, SystemState(0.0, 0.4, 0.3, 0.2), 2.0, 0.05, 2, 0.0, 0)
        obs_path = tmp_path / "obs.csv"
        write_series_csv(obs, obs_path)
        guess_path = tmp_path / "guess.json"
        guess_path.write_text(params_json(true))
        code = main([
            "calibrate", "--obs", str(obs_path), "--guess", str(guess_path),
            "--out", str(tmp_path), "--max-iter", "50",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "objective=" in printed
        objective = float(printed.split("objective=")[1].split()[0])
        assert objective < 1e-10
        fit_data = json.loads((tmp_path / "fit.json").read_text())
        assert fit_data["objective"] < 1e-10
        assert set(fit_data["params"].keys()) == set(PARAM_FIELDS)

    def test_recovery_from_perturbed_guess(self, tmp_path, capsys):
        true = ModelParameters(alpha1=0.6, alpha2=0.5, alpha3=0.4, alpha4=0.8,
                               phi1=0.8, phi2=0.7, phi3=0.6, phi4=0.9,
                               beta1=0.2, beta2=0.3, beta3=0.25, gamma1=0.5, gamma2=0.4)
        obs = generate_synthetic(true, SystemState(0.0, 0.4, 0.3, 0.2), 3.0, 0.05, 2, 0.0, 0)
        obs_path = tmp_path / "obs.csv"
        write_series_csv(obs, obs_path)
        guess = ModelParameters(**{n: getattr(true, n) * 1.1 for n in PARAM_FIELDS})
        guess_path = tmp_path / "guess.json"
        guess_path.write_text(params_json(guess))
        code = main([
            "calibrate", "--obs", str(obs_path), "--guess", str(guess_path),
            "--out", str(tmp_path), "--max-iter", "5000", "--tol", "1e-10",
        ])
        assert code == 0
        fit_data = json.loads((tmp_path / "fit.json").read_text())
        assert fit_data["objective"] < 1e-6

    def test_empty_obs_exits_2(self, tmp_path):
        obs_path = tmp_path / "empty.csv"
        obs_path.write_text("")
        assert main(["calibrate", "--obs", str(obs_path), "--out", str(tmp_path)]) == 2

    def test_malformed_obs_exits_2(self, tmp_path):
        obs_path = tmp_path / "bad.csv"
        obs_path.write_text("t,G,C,M,F\n0,1,banana,1,0\n1,1,1,1,0\n")
        assert main(["calibrate", "--obs", str(obs_path), "--out", str(tmp_path)]) == 2

    def test_obs_row_with_four_columns_exits_2(self, tmp_path, capsys):
        obs_path = tmp_path / "short.csv"
        obs_path.write_text("t,G,C,M,F\n0,1,1,1,0\n1,1,1,1\n")
        assert main(["calibrate", "--obs", str(obs_path), "--out", str(tmp_path)]) == 2
        assert f"{obs_path}:3: expected 5 columns, got 4" in capsys.readouterr().err

    def test_nonpositive_dt_exits_2(self, tmp_path, capsys):
        obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
        obs_path = tmp_path / "obs.csv"
        write_series_csv(obs, obs_path)
        assert main(["calibrate", "--obs", str(obs_path), "--out", str(tmp_path), "--dt", "0"]) == 2
        assert "dt must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [[5, 1], ["x", 1], 5, [1], [0, 10**400]])
class TestBoundsInput:
    """simulate's param_bounds and calibrate's --bounds file share one parser."""

    def test_simulate_param_bounds_exit_2(self, tmp_path, capsys, pair):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 2, "param_bounds": {"alpha1": pair}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bounds for alpha1" in capsys.readouterr().err

    def test_calibrate_bounds_file_exit_2(self, tmp_path, capsys, pair):
        obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
        obs_path = tmp_path / "obs.csv"
        write_series_csv(obs, obs_path)
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps({"alpha1": pair}))
        code = main(["calibrate", "--obs", str(obs_path), "--bounds", str(bounds), "--out", str(tmp_path)])
        assert code == 2
        assert "bounds for alpha1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value", ["x", "0.5", True, None, [0.5], 10**400], ids=["text", "numeric-text", "bool", "null", "list", "overflow"]
)
class TestCoefficientInput:
    """Coefficient values must be JSON numbers in every file that holds them."""

    def test_calibrate_guess_exit_2(self, tmp_path, capsys, value):
        obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
        obs_path = tmp_path / "obs.csv"
        write_series_csv(obs, obs_path)
        guess = tmp_path / "guess.json"
        guess.write_text(json.dumps({"alpha1": value}))
        assert main(["calibrate", "--obs", str(obs_path), "--guess", str(guess), "--out", str(tmp_path)]) == 2
        assert "alpha1 must be a number" in capsys.readouterr().err

    def test_sweep_params_exit_2(self, tmp_path, capsys, value):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"alpha1": value}))
        code = main(["sweep", "--parameter", "beta1", "--values", "0.1", "--params", str(params), "--out", str(tmp_path)])
        assert code == 2
        assert "alpha1 must be a number" in capsys.readouterr().err

    def test_simulate_initial_params_exit_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 2, "initial": {"params": {"alpha1": value}}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "initial.params.alpha1 must be a number" in capsys.readouterr().err

    def test_simulate_initial_state_exit_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 2, "initial": {"state": {"c": value}}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "initial.state.c must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [{"total_steps": "abc"}, {"total_steps": 2.5}, {"threshold": {"window": 2.5}}, {"schedule": {"strict_steps": True}}],
)
def test_simulate_malformed_integer_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


LLM_URL = "http://127.0.0.1:9/v1/chat/completions"


@pytest.mark.parametrize(
    "config, field",
    [
        ({"llm": {"endpoint": LLM_URL, "modle": "m"}}, "modle"),
        ({"llm": {"endpoint": LLM_URL, "retries": -1}}, "llm.retries"),
        ({"llm": {"endpoint": LLM_URL, "retries": "2"}}, "llm.retries"),
        ({"llm": {"endpoint": LLM_URL, "retries": 1.5}}, "llm.retries"),
        ({"llm": {"endpoint": LLM_URL, "retries": True}}, "llm.retries"),
        ({"llm": {"endpoint": LLM_URL, "timeout": "x"}}, "llm.timeout"),
        ({"llm": {"endpoint": LLM_URL, "timeout": 0}}, "llm.timeout"),
        ({"llm": {"endpoint": LLM_URL, "timeout": -1.0}}, "llm.timeout"),
        ({"llm": {"endpoint": LLM_URL, "timeout": math.inf}}, "llm.timeout"),
        ({"llm": {"endpoint": 5}}, "llm.endpoint"),
        ({"llm": {"endpoint": LLM_URL, "model": 5}}, "llm.model"),
        ({"llm": {"endpoint": LLM_URL, "api_key_env": None}}, "llm.api_key_env"),
        ({"llm": {"endpoint": "file:///etc/hostname"}}, "llm.endpoint"),
        ({"llm": {"endpoint": "ftp://127.0.0.1/v1"}}, "llm.endpoint"),
        ({"llm": {"endpoint": "data:text/plain,x"}}, "llm.endpoint"),
        ({"llm": {"model": "m"}}, "endpoint"),
        ({"llm": [LLM_URL]}, "llm"),
        ({"schedule": 5}, "schedule"),
        ({"schedule": None}, "schedule"),
        ({"threshold": [4.0]}, "threshold"),
        ({"schedule": {"cycle": "false"}}, "schedule.cycle"),
        ({"schedule": {"cycle": 0}}, "schedule.cycle"),
    ],
)
def test_simulate_malformed_config_block_exits_2(tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"total_steps": 2, **config}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"total_step": 5}, "total_step"),
        ({"schedule": {"strict": 2}}, "strict"),
        ({"threshold": {"bse": 4.0}}, "bse"),
        ({"initial": {"stat": {"g": 0.5}}}, "stat"),
        ({"initial": {"state": {"g": 0.5, "t": 1.0}}}, "'t'"),
        ({"profiles_file": ["profiles.json"]}, "profiles_file"),
    ],
)
def test_simulate_unknown_or_mistyped_config_key_exits_2(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"total_steps": 2, **config}))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


def test_simulate_accepts_every_result_config_key_and_manifest_key(tmp_path):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--out", str(run_dir), "--steps", "2"]) == 0
    config = json.loads((run_dir / "result.json").read_text())["config"]
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps([{"id": "A", "resource_tier": "rich"}]))
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(build_default_corpus(), default=json_default))
    config.update(
        initial={"params": {"alpha1": 0.5}, "state": {"g": 0.5, "c": 0.5, "m": 0.5}},
        profiles_file=str(profiles),
        corpus_file=str(corpus),
        script_file=str(tmp_path / "unused-by-the-rule-policy.json"),
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0


PROFILE = {
    "id": "A",
    "name": "Maker A",
    "resource_tier": "rich",
    "risk_preference": "low",
    "ai_investment_fraction": 0.1,
    "focus": "imaging",
}


def test_simulate_with_valid_profiles_file(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([PROFILE, {"id": "B", "resource_tier": "limited"}]))
    assert main(["simulate", "--profiles", str(path), "--steps", "2", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "result.json").read_text())
    assert data["profiles"][1] == {
        "id": "B",
        "name": "B",
        "resource_tier": "limited",
        "risk_preference": "medium",
        "ai_investment_fraction": 0.05,
        "focus": "",
    }


@pytest.mark.parametrize(
    "entry, message",
    [
        (5, "must be a JSON object"),
        (["A", "rich"], "must be a JSON object"),
        ({**PROFILE, "ai_investment_fraction": "x"}, "ai_investment_fraction must be a number"),
        ({**PROFILE, "ai_investment_fraction": True}, "ai_investment_fraction must be a number"),
        ({**PROFILE, "id": 5}, "id must be a string"),
        ({**PROFILE, "name": 5}, "name must be a string"),
        ({**PROFILE, "resource_tier": ["rich"]}, "resource_tier must be a string"),
        ({**PROFILE, "risk_preference": None}, "risk_preference must be a string"),
        ({**PROFILE, "focus": 1.5}, "focus must be a string"),
        ({**PROFILE, "tier": "rich"}, "unknown keys: ['tier']"),
        ({"name": "no id", "resource_tier": "rich"}, "missing 'id'"),
    ],
)
def test_simulate_malformed_profile_exits_2(tmp_path, capsys, entry, message):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps([entry]))
    assert main(["simulate", "--profiles", str(path), "--steps", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "profile entry 0" in err and message in err


HOLD = {"comply": False, "adjustments": {}, "submission": None, "rationale": "", "warnings": [], "fallback": None}


def run_script(tmp_path, script) -> int:
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps([PROFILE]))
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    return main([
        "simulate", "--policy", "scripted", "--profiles", str(profiles), "--script", str(path),
        "--steps", "1", "--out", str(tmp_path),
    ])


def test_simulate_scripted_from_file(tmp_path):
    assert run_script(tmp_path, [{"step": 0, "agent": "A", "decision": HOLD}]) == 0


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"step": 0, "agent": "A", "decision": "x"}, "decision must be a JSON object"),
        ({"step": 0, "agent": "A", "decision": {**HOLD, "submission": "x"}}, "submission must be a JSON object"),
        ({"step": "0", "agent": "A", "decision": HOLD}, "step must be an integer"),
        ({"step": 1.7, "agent": "A", "decision": HOLD}, "step must be an integer"),
        ({"step": 0, "agent": 1, "decision": HOLD}, "agent must be a string"),
    ],
)
def test_simulate_malformed_script_exits_2(tmp_path, capsys, entry, message):
    assert run_script(tmp_path, [entry]) == 2
    err = capsys.readouterr().err
    assert "script entry 0." in err and message in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"step": 0, "agent": "A", "decision": {**HOLD, "rationale": "again"}},
         "script entries 0 and 1 both give step 0, agent 'A'"),
        ({"step": 1, "agent": "A", "decision": HOLD}, "agent 'A' has step 1, outside 0-0"),
        ({"step": -1, "agent": "A", "decision": HOLD}, "agent 'A' has step -1, outside 0-0"),
        ({"step": 0, "agent": "Z", "decision": HOLD}, "names agent 'Z', which is not in the roster"),
    ],
)
def test_simulate_script_entry_beyond_the_run_exits_2(tmp_path, capsys, entry, message):
    assert run_script(tmp_path, [{"step": 0, "agent": "A", "decision": HOLD}, entry]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


@pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://127.0.0.1/v1", "data:text/plain,x"])
def test_simulate_non_http_llm_endpoint_flag_exits_2(tmp_path, capsys, endpoint):
    code = main(["simulate", "--out", str(tmp_path), "--steps", "1", "--policy", "llm", "--llm-endpoint", endpoint])
    assert code == 2
    assert "llm.endpoint must be an http or https URL" in capsys.readouterr().err


class TestSweepCommand:
    def test_alpha1_doubling_prints_unit_rate(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"alpha1": 0.1, "phi1": 1.0, "beta1": 0.0}))
        code = main([
            "sweep", "--parameter", "alpha1", "--values", "0.1,0.2",
            "--params", str(params_path), "--initial", "0,0.4,0.4",
            "--out", str(tmp_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rate_G=+1.000" in printed
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "parameter,value,G,C,M,F,rate_G,rate_C,rate_M,rate_F"
        assert len(lines) == 3

    def test_single_baseline_value_rates_zero(self, tmp_path, capsys):
        code = main([
            "sweep", "--parameter", "beta3",
            "--values", str(DEFAULT_PARAMETERS.beta3),
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "rate_M=+0.000" in capsys.readouterr().out

    def test_unknown_parameter_exits_2(self, tmp_path):
        assert main(["sweep", "--parameter", "zeta1", "--values", "1", "--out", str(tmp_path)]) == 2

    def test_bad_values_exit_2(self, tmp_path):
        assert main(["sweep", "--parameter", "alpha1", "--values", "a,b", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--values", ","], "--values must name at least one number"),
            (["--values", "0.1", "--initial", "1,2"], "--initial must be three comma-separated numbers"),
            (["--values", "0.1", "--initial", "a,b,c"], "cannot parse --initial"),
        ],
        ids=["no-values", "two-initial-numbers", "initial-not-numbers"],
    )
    def test_malformed_values_or_initial_exit_2(self, tmp_path, capsys, flags, message):
        assert main(["sweep", "--parameter", "alpha1", *flags, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


class TestMetricsCommand:
    @pytest.fixture()
    def result_path(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--seed", "2", "--steps", "25"]) == 0
        return out / "result.json"

    def test_per_agent_reports(self, result_path, tmp_path, capsys):
        out = tmp_path / "metrics"
        code = main(["metrics", "--result", str(result_path), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "metrics.json").read_text())
        assert set(data["per_agent"].keys()) == set("ABCDEFGHIJ")
        for report in data["per_agent"].values():
            assert 0.0 <= report["adherence_accuracy"] <= 1.0
            assert report["compliance_stability"] >= 0.0

    def test_tier_grouping_produces_three_groups_and_pairs(self, result_path, tmp_path, capsys):
        out = tmp_path / "metrics"
        code = main([
            "metrics", "--result", str(result_path), "--groups", "auto", "--out", str(out),
        ])
        assert code == 0
        data = json.loads((out / "metrics.json").read_text())
        groups = data["groups"]["members"]
        assert set(groups.keys()) == {"limited", "medium", "rich"}
        assert len(data["groups"]["pairwise"]) == 3
        assert "f_stat" in data["groups"]["welch_anova"]

    def test_explicit_group_spec(self, result_path, tmp_path):
        out = tmp_path / "metrics"
        code = main([
            "metrics", "--result", str(result_path),
            "--groups", "one:A,B,C,D,E;two:F,G,H,I,J", "--out", str(out),
        ])
        assert code == 0
        data = json.loads((out / "metrics.json").read_text())
        assert len(data["groups"]["pairwise"]) == 1

    def test_custom_epsilon_recorded(self, result_path, tmp_path):
        out = tmp_path / "metrics"
        assert main([
            "metrics", "--result", str(result_path), "--epsilon", "0.25", "--out", str(out),
        ]) == 0
        data = json.loads((out / "metrics.json").read_text())
        assert data["epsilon"] == 0.25
        for report in data["per_agent"].values():
            assert report["epsilon"] == 0.25

    def test_malformed_result_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"records": [{"oops": 1}]}))
        assert main(["metrics", "--result", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda d: d.update(records={"0": d["records"][0]}), "records must be a JSON array"),
            (lambda d: d["records"].insert(0, 1), "record 0 must be a JSON object, got 1"),
            (lambda d: d["records"][0].update(agents=[]), "record 0: agents must be a JSON object"),
            (lambda d: d["records"][2]["agents"].pop("B"), "record 2: agents"),
            (lambda d: d["records"][1]["agents"]["A"]["state"].update(c="x"), "record 1, agent A: state.c"),
            (lambda d: d["records"][4]["agents"]["J"]["state"].update(g=None), "record 4, agent J: state.g"),
            (lambda d: d["records"][-1]["agents"]["C"].update(market_adaptation="0.4"), "market_adaptation"),
            (lambda d: d["profiles"][0].update(resource_tier=5), "profile 0.resource_tier"),
            (lambda d: d["profiles"][3].update(id=["D"]), "profile 3.id"),
            (lambda d: d["config"].update(total_step=5), "config has unknown keys: ['total_step']"),
            (
                lambda d: d["config"]["schedule"].update(strict=2),
                "config.schedule has unknown keys: ['strict']",
            ),
            (lambda d: d.update(config=[]), "config must be a JSON object"),
        ],
    )
    def test_inconsistent_result_exits_2(self, result_path, tmp_path, capsys, corrupt, message):
        data = json.loads(result_path.read_text())
        corrupt(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["metrics", "--result", str(bad), "--groups", "auto", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "malformed result file" in err and message in err

    def test_missing_result_exits_2(self, tmp_path):
        assert main(["metrics", "--result", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("bad", "bad --groups entry 'bad'"),
            ("x:", "group 'x' has no members"),
            (";", "--groups spec is empty"),
            ("one:A,B;two:C,Z", "group members not present in result: ['Z']"),
        ],
        ids=["no-colon", "no-members", "empty", "unknown-member"],
    )
    def test_malformed_groups_spec_exits_2(self, result_path, tmp_path, capsys, spec, message):
        assert main(["metrics", "--result", str(result_path), "--groups", spec, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_result_without_records_exits_2(self, result_path, tmp_path, capsys):
        data = json.loads(result_path.read_text())
        data["records"] = []
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(data))
        assert main(["metrics", "--result", str(empty), "--out", str(tmp_path)]) == 2
        assert "result contains no step records" in capsys.readouterr().err

    def test_frozen_dynamics_gives_zero_stability_and_f_zero_groups(self, tmp_path, capsys):
        # pin every coefficient at zero so states never move
        cfg = tmp_path / "frozen.json"
        cfg.write_text(json.dumps({
            "total_steps": 8,
            "param_bounds": {name: [0.0, 0.0] for name in PARAM_FIELDS},
            "initial": {
                "params": {name: 0.0 for name in PARAM_FIELDS},
                "state": {"g": 1.0, "c": 1.0, "m": 1.0},
            },
        }))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        mout = tmp_path / "metrics"
        code = main([
            "metrics", "--result", str(out / "result.json"),
            "--groups", "one:A,B,C,D,E;two:F,G,H,I,J", "--out", str(mout),
        ])
        assert code == 0
        data = json.loads((mout / "metrics.json").read_text())
        for report in data["per_agent"].values():
            assert report["compliance_stability"] == 0.0
        # identical terminal adaptation in both groups collapses the F statistic
        assert data["groups"]["welch_anova"]["f_stat"] == 0.0
        assert data["groups"]["welch_anova"]["p_value"] == 1.0


class TestCorpusCommand:
    def test_print_default_corpus(self, capsys):
        assert main(["corpus", "print"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 10
        strict = [r for r in data if r["strictness"] == "strict"]
        assert len(strict) == 5

    def test_print_custom_corpus(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps([
            {"id": "s", "strictness": "strict", "title": "T", "body": "B", "topic": "x"},
            {"id": "l", "strictness": "lenient", "title": "T", "body": "B", "topic": "x"},
        ]))
        assert main(["corpus", "print", "--corpus", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 2


class TestIdempotence:
    def test_rerunning_rewrites_identical_files(self, tmp_path):
        out = tmp_path / "run"
        args = ["simulate", "--out", str(out), "--seed", "4", "--steps", "10"]
        assert main(args) == 0
        first = (out / "result.json").read_bytes()
        assert main(args) == 0
        assert (out / "result.json").read_bytes() == first


class TestLlmPolicyViaCli:
    def test_simulate_with_llm_endpoint_flag(self, tmp_path, capsys):
        from llm_stub import StubLLMServer

        reply = json.dumps({
            "comply": True,
            "adjustments": {"alpha2": 0.01},
            "safety": 9,
            "effectiveness": 8,
            "compliance": 9,
            "adverse": 3,
            "rationale": "cli stub",
        })
        out = tmp_path / "run"
        with StubLLMServer(behavior="reply", reply_content=reply) as server:
            code = main([
                "simulate", "--out", str(out), "--steps", "3",
                "--policy", "llm", "--llm-endpoint", server.url,
            ])
            hits = server.hits
        assert code == 0
        assert hits == 3 * 10
        data = json.loads((out / "result.json").read_text())
        assert data["llm_fallbacks"] == 0
        first_agent = data["records"][0]["agents"]["A"]
        assert first_agent["decision"]["rationale"] == "cli stub"
        assert first_agent["brr"] == pytest.approx(26 / 3)

    def test_llm_config_from_file_with_fallbacks(self, tmp_path, capsys):
        from llm_stub import StubLLMServer

        out = tmp_path / "run"
        with StubLLMServer(behavior="garbage") as server:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "total_steps": 2,
                "policy_kind": "llm",
                "llm": {"endpoint": server.url, "model": "m", "timeout": 5.0, "retries": 0},
            }))
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        data = json.loads((out / "result.json").read_text())
        assert data["llm_fallbacks"] == 2 * 10
        assert data["config"]["llm"]["model"] == "m"

    def test_llm_policy_without_endpoint_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path), "--policy", "llm"]) == 2

    @pytest.mark.parametrize(
        "raw",
        ["9" * 400, "9" * 5000, "[" * 100_000 + "]" * 100_000],
        ids=["score-past-the-float-range", "integer-too-long", "nested-too-deep"],
    )
    def test_reply_the_shared_checks_refuse_falls_back(self, tmp_path, raw):
        from llm_stub import StubLLMServer

        reply = json.dumps({
            "comply": True, "adjustments": {}, "safety": None, "effectiveness": 8,
            "compliance": 9, "adverse": 3, "rationale": "r",
        }).replace('"safety": null', f'"safety": {raw}')
        out = tmp_path / "run"
        with StubLLMServer(behavior="reply", reply_content=reply) as server:
            code = main([
                "simulate", "--out", str(out), "--steps", "2", "--format", "json",
                "--policy", "llm", "--llm-endpoint", server.url,
            ])
        assert code == 0
        data = json.loads((out / "result.json").read_text())
        assert data["llm_fallbacks"] == 2 * 10
        decisions = [ar["decision"] for rec in data["records"] for ar in rec["agents"].values()]
        assert [d["fallback"] for d in decisions] == ["parse"] * 20


class TestExitCodes:
    def test_numerical_blowup_exits_3(self, tmp_path, capsys):
        # alpha3 is not touched by the strict-phase rule, so no bounded
        # adjustment pulls it back into range before the state explodes
        cfg = tmp_path / "explosive.json"
        cfg.write_text(json.dumps({
            "total_steps": 3,
            "dt_per_step": 1.0,
            "initial": {
                "params": {"alpha3": 1e308, "phi3": 5.0},
                "state": {"g": 1.0, "c": 2.0, "m": 1.0},
            },
        }))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical error" in err and "step" in err


def series_file(tmp_path) -> str:
    obs = generate_synthetic(DEFAULT_PARAMETERS, SystemState(0.0, 0.4, 0.3, 0.2), 1.0, 0.05, 2, 0.0, 0)
    path = tmp_path / "obs.csv"
    write_series_csv(obs, path)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{bad}"],
        ["simulate", "--profiles", "{bad}"],
        ["simulate", "--corpus", "{bad}"],
        ["simulate", "--policy", "scripted", "--script", "{bad}"],
        ["metrics", "--result", "{bad}"],
        ["calibrate", "--obs", "{obs}", "--guess", "{bad}"],
        ["calibrate", "--obs", "{obs}", "--bounds", "{bad}"],
        ["sweep", "--parameter", "alpha1", "--values", "0.1", "--params", "{bad}"],
        ["calibrate", "--obs", "{bad}"],
    ],
    ids=["config", "profiles", "corpus", "script", "result", "guess", "bounds", "params", "obs"],
)
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "Café"}'.encode("latin-1"))
    values = {"{bad}": str(bad), "{obs}": series_file(tmp_path)}
    assert main([values.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]) == 2
    assert f"{bad} is not UTF-8 text" in capsys.readouterr().err


def test_missing_obs_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "none.csv"
    assert main(["calibrate", "--obs", str(missing), "--out", str(tmp_path)]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_out_under_a_regular_file_exits_2(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.write_text("")
    assert main(["simulate", "--steps", "1", "--out", str(plain / "sub")]) == 2
    assert f"cannot create output directory {plain / 'sub'}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decision, message",
    [
        ({**HOLD, "adjustments": {"alpha1": "x"}}, "decision.adjustments.alpha1 must be a number, got 'x'"),
        ({**HOLD, "adjustments": "x"}, "decision.adjustments must be a JSON object, got 'x'"),
        ({**HOLD, "comply": 1}, "decision.comply must be true or false, got 1"),
        ({**HOLD, "reason": "r"}, "decision has unknown keys: ['reason']"),
        (
            {**HOLD, "submission": {"agent_id": "A", "safety": 7, "effectiveness": 7, "compliance": 7,
                                    "adverse": 2, "score": 1}},
            "decision.submission has unknown keys: ['score']",
        ),
    ],
    ids=["string-adjustment", "string-adjustments", "non-bool-comply", "decision-key", "submission-key"],
)
def test_mistyped_or_unknown_script_decision_exits_2(tmp_path, capsys, decision, message):
    assert run_script(tmp_path, [{"step": 0, "agent": "A", "decision": decision}]) == 2
    assert f"script entry 0.{message}" in capsys.readouterr().err


def test_unknown_corpus_key_exits_2(tmp_path, capsys):
    entry = {"id": "s", "strictness": "strict", "title": "T", "body": "B", "topic": "x", "year": 2024}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([entry]))
    assert main(["corpus", "print", "--corpus", str(path)]) == 2
    assert "corpus entry 0 has unknown keys: ['year']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("initial", {"params": {"alpha1": 9.0}}),
        ("profiles_file", "p.json"),
        ("corpus_file", "c.json"),
        ("script_file", "nowhere.json"),
    ],
)
def test_result_config_rejects_manifest_keys(tmp_path, capsys, key, value):
    run_dir = tmp_path / "run"
    assert main(["simulate", "--out", str(run_dir), "--steps", "3"]) == 0
    data = json.loads((run_dir / "result.json").read_text())
    data["config"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["metrics", "--result", str(bad), "--out", str(tmp_path)]) == 2
    assert f"config has unknown keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("clamp_events", 3.7), ("clamp_events", "3"), ("llm_fallbacks", "5")])
def test_result_counters_are_not_truncated(tmp_path, key, value):
    from regflow.errors import ArgumentError
    from regflow.simulation import result_from_json_dict

    run_dir = tmp_path / "run"
    assert main(["simulate", "--out", str(run_dir), "--steps", "2"]) == 0
    data = json.loads((run_dir / "result.json").read_text())
    data[key] = value
    with pytest.raises(ArgumentError, match=f"result.{key} must be an integer"):
        result_from_json_dict(data)
    data[key] = 3.0
    assert getattr(result_from_json_dict(data), key) == 3


@pytest.mark.parametrize(
    "text, message",
    [("[" * 100_000 + "]" * 100_000, "is not valid JSON"), ("1" * 5000, "is not valid JSON")],
    ids=["nested-too-deep", "integer-too-long"],
)
def test_json_the_parser_refuses_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"{path} {message}" in capsys.readouterr().err


SUBMISSION = {"agent_id": "A", "safety": 5, "effectiveness": 5, "compliance": 5, "adverse": 5}


def test_scripted_run_with_an_unknown_resource_tier_exits_2(tmp_path, capsys):
    # the scripted policy never reads the tier, so only the profile's own
    # check can refuse it
    profiles = tmp_path / "gold.json"
    profiles.write_text(json.dumps([{**PROFILE, "resource_tier": "gold"}]))
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"step": 0, "agent": "A", "decision": HOLD}]))
    assert main([
        "simulate", "--policy", "scripted", "--profiles", str(profiles), "--script", str(script),
        "--steps", "1", "--out", str(tmp_path),
    ]) == 2
    assert "profile entry 0: unknown resource tier 'gold'" in capsys.readouterr().err


def test_declined_script_decision_with_an_out_of_range_submission_exits_2(tmp_path, capsys):
    decision = {**HOLD, "submission": {**SUBMISSION, "safety": 0}}
    assert run_script(tmp_path, [{"step": 0, "agent": "A", "decision": decision}]) == 2
    err = capsys.readouterr().err
    assert "script entry 0.decision.submission: submission score safety must be in [1, 10], got 0" in err


@pytest.mark.parametrize(
    "schedule, threshold, where",
    [
        ({"strict_steps": 0}, {}, "config.schedule: schedule strict_steps"),
        ({}, {"kappa": 5}, "config.threshold: kappa must be in [0, 1]"),
        ({"strict_steps": 0}, {"kappa": 5}, "config.schedule: schedule strict_steps"),
    ],
)
def test_metrics_on_a_result_with_an_out_of_range_config_exits_2(tmp_path, capsys, schedule, threshold, where):
    out = tmp_path / "run"
    assert main(["simulate", "--steps", "2", "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())
    data["config"]["schedule"].update(schedule)
    data["config"]["threshold"].update(threshold)
    (out / "result.json").write_text(json.dumps(data))
    assert main(["metrics", "--result", str(out / "result.json"), "--out", str(tmp_path / "m")]) == 2
    assert where in capsys.readouterr().err


def test_metrics_on_a_result_with_an_unknown_resource_tier_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--steps", "2", "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())
    data["profiles"][0]["resource_tier"] = "gold"
    (out / "result.json").write_text(json.dumps(data))
    assert main(["metrics", "--result", str(out / "result.json"), "--groups", "auto", "--out", str(out)]) == 2
    assert "profile 0: unknown resource tier 'gold'" in capsys.readouterr().err


def test_calibrate_negative_guess_coefficient_names_the_guess_file(tmp_path, capsys):
    guess = tmp_path / "guess.json"
    guess.write_text(json.dumps({"alpha1": -0.1}))
    argv = ["calibrate", "--obs", series_file(tmp_path), "--guess", str(guess), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert f"guess file {guess}: parameter alpha1 must be >= 0, got -0.1" in capsys.readouterr().err


def test_config_file_out_of_range_value_exits_2_even_when_a_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"total_steps": 0}))
    assert main(["simulate", "--config", str(cfg), "--steps", "2", "--out", str(tmp_path)]) == 2
    assert "config: total_steps must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "output, argv",
    [
        ("result.json", ["simulate", "--steps", "1", "--format", "json"]),
        ("trajectories.csv", ["simulate", "--steps", "1", "--format", "csv"]),
        ("fit.json", ["calibrate", "--obs", "{obs}", "--max-iter", "2"]),
        ("metrics.json", ["metrics", "--result", "{result}"]),
        ("sweep.csv", ["sweep", "--parameter", "alpha1", "--values", "0.1", "--horizon", "1"]),
    ],
)
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, output, argv):
    if "{result}" in argv:
        assert main(["simulate", "--steps", "2", "--out", str(tmp_path / "run")]) == 0
    values = {"{obs}": series_file(tmp_path), "{result}": str(tmp_path / "run" / "result.json")}
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)
    assert main([values.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    assert f"error: cannot write {out / output}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
        (["--dt", "1e-300"], "requires 1e+300 steps; limit is 10000000"),
        (["--dt", repr(1.0 / 10000003)], "requires 10000003 steps; limit is 10000000"),
    ],
)
def test_calibrate_refuses_a_nan_tolerance_or_a_grid_over_the_step_limit(tmp_path, capsys, monkeypatch, flags, message):
    obs = series_file(tmp_path)

    def kernel(*args):
        raise AssertionError("the integration ran")

    monkeypatch.setattr(calibration, "_integrate_raw", kernel)
    assert main(["calibrate", "--obs", obs, *flags, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--steps", "100000000000000000000000"], {}, "requires 2000000000000000000000000 RK4 steps; limit is 10000000"),
        (["--steps", "500001"], {}, "total_steps * inner_substeps requires 10000020 RK4 steps; limit is 10000000"),
        ([], {"inner_substeps": 100000000000}, "config: total_steps * inner_substeps requires 7300000000000 RK4 steps"),
    ],
)
def test_simulate_refuses_a_run_over_the_step_limit(tmp_path, capsys, monkeypatch, flags, config, message):
    def kernel(*args):
        raise AssertionError("the integration ran")

    monkeypatch.setattr(simulation, "advance", kernel)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg), *flags, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_initial_state_out_of_range_names_its_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial": {"state": {"g": -1}}}))
    assert main(["simulate", "--config", str(cfg), "--steps", "1", "--out", str(tmp_path)]) == 2
    assert "error: config.initial.state: state field g must be >= 0, got -1.0" in capsys.readouterr().err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("numpy", "ssl", "http.client", "urllib.request", "concurrent.futures")

# Runs each argv of sys.argv[1] through main() in order and prints, after
# build_parser() and after each command, its exit code and which of the
# HEAVY modules are loaded.
COLD_START = f"""
import json, sys
import regflow.cli as cli
cli.build_parser()
report = [("build_parser", 0, [m for m in {HEAVY!r} if m in sys.modules])]
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    report.append((argv[0], code, [m for m in {HEAVY!r} if m in sys.modules]))
print(json.dumps(report))
"""


def test_heavy_modules_load_only_in_the_commands_that_use_them(tmp_path):
    from llm_stub import StubLLMServer

    out = str(tmp_path / "run")
    reply = json.dumps({
        "comply": True, "adjustments": {}, "safety": 9, "effectiveness": 8,
        "compliance": 9, "adverse": 3, "rationale": "stub",
    })
    with StubLLMServer(behavior="reply", reply_content=reply) as server:
        commands = [
            ["simulate", "--seed", "1", "--steps", "5", "--out", out],
            ["sweep", "--parameter", "alpha1", "--values", "0.25,0.5", "--out", out],
            ["corpus", "print"],
            ["metrics", "--result", os.path.join(out, "result.json"), "--groups", "auto", "--out", out],
            ["calibrate", "--obs", series_file(tmp_path), "--max-iter", "3", "--out", out],
            ["simulate", "--policy", "llm", "--llm-endpoint", server.url, "--steps", "1", "--out", out],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        hits = server.hits
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [code for _, code, _ in report] == [0] * 7
    assert [loaded for _, _, loaded in report[:4]] == [[]] * 4
    # only the llm policy builds a thread pool
    assert "concurrent.futures" not in report[-2][2]
    assert report[-1][2] == list(HEAVY)
    assert hits == 10
