"""Simulation loop: orchestration, auditing, determinism, replay."""

import copy
import json
import pickle

import pytest

import regflow.simulation as simulation
from regflow.agents import (
    AgentDecision,
    ClientConfig,
    DEFAULT_PROFILES,
    ManufacturerProfile,
    ParameterAdjustment,
)
from regflow.brr import Submission, ThresholdConfig
from regflow.corpus import Schedule, build_default_corpus
from regflow.dynamics import ModelParameters, SystemState, advance
from regflow.errors import ArgumentError
from regflow.schema import json_default
from regflow.simulation import (
    SimulationConfig,
    default_initial,
    extract_script,
    result_from_json_dict,
    result_to_json_dict,
    run,
    run_scripted,
    script_entries,
    script_from_json_list,
    write_result_csv,
    write_result_json,
)

CORPUS = build_default_corpus()


def small_config(**overrides):
    defaults = dict(total_steps=20, dt_per_step=0.05, inner_substeps=4, seed=1)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def constant_decision(agent_id, scores=(7, 7, 7, 2), deltas=None):
    return AgentDecision(
        comply=True,
        adjustments=ParameterAdjustment(deltas=dict(deltas or {})),
        submission=Submission(
            agent_id=agent_id,
            safety=scores[0],
            effectiveness=scores[1],
            compliance=scores[2],
            adverse=scores[3],
        ),
        rationale="scripted",
    )


class TestRun:
    def test_frozen_dynamics_keeps_states_constant(self):
        profile = ManufacturerProfile("A", "A", "medium", "medium", 0.05, "x")
        frozen = ModelParameters()  # all gains and damping zero
        state = SystemState(t=0.0, g=1.0, c=1.0, m=1.0)
        config = small_config(total_steps=10, param_bounds={k: (0.0, 0.0) for k in
                              ("alpha1", "alpha2", "alpha3", "alpha4", "phi1", "phi2",
                               "phi3", "phi4", "beta1", "beta2", "beta3", "gamma1", "gamma2")})
        result = run(config, [profile], {"A": (frozen, state)}, CORPUS)
        assert len(result.records) == 10
        assert result.clamp_events == 0
        for rec in result.records:
            ar = rec.agents["A"]
            assert (ar.state.g, ar.state.c, ar.state.m) == (1.0, 1.0, 1.0)
            assert ar.f == 0.0
            assert ar.compliance_cost == 0.0

    def test_default_run_structure(self):
        config = SimulationConfig(seed=5)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        assert len(result.records) == 73
        for t, rec in enumerate(result.records):
            assert rec.step == t
            assert set(rec.agents.keys()) == {p.id for p in DEFAULT_PROFILES}
            approvals = sum(1 for ar in rec.agents.values() if ar.approved)
            assert 0 <= approvals <= 10

    def test_determinism_byte_identical(self):
        config = SimulationConfig(seed=5)
        initial = default_initial(DEFAULT_PROFILES)
        a = run(config, list(DEFAULT_PROFILES), initial, CORPUS)
        b = run(config, list(DEFAULT_PROFILES), initial, CORPUS)
        ja = json.dumps(result_to_json_dict(a), sort_keys=True)
        jb = json.dumps(result_to_json_dict(b), sort_keys=True)
        assert ja == jb

    def test_reused_rule_decisions_match_deciding_afresh(self, tmp_path, monkeypatch):
        profiles = list(DEFAULT_PROFILES)
        config = small_config(total_steps=40)
        initial = default_initial(profiles)
        calls = []
        decide = simulation.rule_policy_decide
        monkeypatch.setattr(
            simulation, "rule_policy_decide", lambda prof, *rest: calls.append(prof.id) or decide(prof, *rest)
        )
        reused = run(config, profiles, initial, CORPUS)
        monkeypatch.undo()

        def afresh(t, regs, threshold, views):
            return {
                prof.id: decide(prof, regs, state, simulation.PolicyEnv(threshold, ok, f), config.max_step)
                for prof, state, ok, f in views
            }

        reference = simulation._run_engine(config, profiles, initial, CORPUS, afresh)

        # every (phase, previous approval) pair occurs, and each (agent,
        # phase, previous approval) triple is decided once
        keys = set()
        previous = {p.id: True for p in profiles}
        for rec in reference.records:
            for aid, ar in rec.agents.items():
                keys.add((aid, rec.phase, previous[aid]))
                if ar.approved is not None:
                    previous[aid] = ar.approved
        assert {key[1:] for key in keys} == {(phase, ok) for phase in ("strict", "lenient") for ok in (True, False)}
        assert len(calls) == len(keys) < len(profiles) * config.total_steps

        assert result_to_json_dict(reused) == result_to_json_dict(reference)
        for write, name in ((write_result_json, "result.json"), (write_result_csv, "trajectories.csv")):
            write(reused, tmp_path / f"reused-{name}")
            write(reference, tmp_path / f"reference-{name}")
            assert (tmp_path / f"reused-{name}").read_bytes() == (tmp_path / f"reference-{name}").read_bytes()

    def test_profile_order_does_not_change_values(self):
        config = SimulationConfig(seed=5)
        initial = default_initial(DEFAULT_PROFILES)
        a = run(config, list(DEFAULT_PROFILES), initial, CORPUS)
        b = run(config, list(reversed(DEFAULT_PROFILES)), initial, CORPUS)
        assert json.dumps(result_to_json_dict(a), sort_keys=True) == json.dumps(
            result_to_json_dict(b), sort_keys=True
        )

    def test_threshold_stays_in_band(self):
        cfg = ThresholdConfig(base=4.0, kappa=1.0, window=5, floor=3.5, ceiling=4.5)
        config = small_config(total_steps=40, threshold_cfg=cfg)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        for rec in result.records:
            assert 3.5 <= rec.threshold <= 4.5

    def test_approval_flag_matches_brr_vs_threshold(self):
        config = small_config(total_steps=30)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        for rec in result.records:
            for ar in rec.agents.values():
                if ar.brr is not None:
                    assert ar.approved == (ar.brr >= rec.threshold)
                else:
                    assert ar.approved is None

    def test_phase_follows_schedule(self):
        config = small_config(total_steps=20, schedule=Schedule(strict_steps=3, lenient_steps=2))
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        phases = [rec.phase for rec in result.records]
        assert phases[:5] == ["strict"] * 3 + ["lenient"] * 2
        assert phases[5:10] == phases[:5]

    def test_compliance_cost_matches_offline_quadrature(self):
        config = small_config(total_steps=12)
        initial = default_initial(DEFAULT_PROFILES)
        result = run(config, list(DEFAULT_PROFILES), initial, CORPUS)
        # recompute each step's cost by re-advancing from the previous state
        # with the recorded (post-adjustment) parameters
        for aid in ("A", "E", "I"):
            prev_state = initial[aid][1]
            for rec in result.records:
                ar = rec.agents[aid]
                _, _, cost, _ = advance(
                    prev_state, ar.params, config.dt_per_step, config.inner_substeps
                )
                assert ar.compliance_cost == pytest.approx(cost, abs=1e-9)
                assert ar.compliance_cost >= 0.0
                prev_state = ar.state

    def test_mean_feedback_is_agent_average(self):
        config = small_config(total_steps=6)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        for rec in result.records:
            mean = sum(ar.f for ar in rec.agents.values()) / len(rec.agents)
            assert rec.mean_feedback == pytest.approx(mean, rel=1e-12)

    def test_id_mismatch_rejected(self):
        config = small_config()
        initial = default_initial(DEFAULT_PROFILES)
        del initial["A"]
        with pytest.raises(ArgumentError):
            run(config, list(DEFAULT_PROFILES), initial, CORPUS)

    def test_no_profiles_rejected(self):
        with pytest.raises(ArgumentError):
            run(small_config(), [], {}, CORPUS)

    def test_duplicate_profile_ids_rejected(self):
        profiles = [DEFAULT_PROFILES[0], DEFAULT_PROFILES[0]]
        with pytest.raises(ArgumentError, match="manufacturer profile ids must be unique"):
            run(small_config(), profiles, default_initial(profiles[:1]), CORPUS)

    def test_scripted_policy_kind_requires_run_scripted(self):
        with pytest.raises(ArgumentError):
            run(
                small_config(policy_kind="scripted"),
                list(DEFAULT_PROFILES),
                default_initial(DEFAULT_PROFILES),
                CORPUS,
            )

    def test_llm_policy_kind_requires_client_config(self):
        with pytest.raises(ArgumentError, match="llm"):
            run(
                small_config(policy_kind="llm"),
                list(DEFAULT_PROFILES),
                default_initial(DEFAULT_PROFILES),
                CORPUS,
            )


class TestConfigParsing:
    def test_partial_bounds_merge_over_defaults(self):
        from regflow.simulation import _config_from_dict

        cfg = _config_from_dict({"param_bounds": {"alpha1": [0.0, 1.0]}})
        assert cfg.param_bounds["alpha1"] == (0.0, 1.0)
        assert cfg.param_bounds["alpha2"] == (0.0, 10.0)
        assert cfg.param_bounds["phi1"] == (0.0, 5.0)

    def test_unknown_bounds_field_rejected(self):
        from regflow.simulation import _config_from_dict

        with pytest.raises(ArgumentError):
            _config_from_dict({"param_bounds": {"alpha9": [0.0, 1.0]}})

    def test_empty_dict_gives_defaults(self):
        from regflow.simulation import _config_from_dict

        cfg = _config_from_dict({})
        assert cfg.total_steps == 73
        assert cfg.schedule.strict_steps == 10
        assert cfg.threshold_cfg.base == 4.0
        assert cfg.policy_kind == "rule"

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"total_steps": "abc"}, "total_steps"),
            ({"total_steps": 7.5}, "total_steps"),
            ({"inner_substeps": None}, "inner_substeps"),
            ({"threshold": {"window": 2.5}}, "threshold.window"),
            ({"schedule": {"lenient_steps": "5"}}, "schedule.lenient_steps"),
            ({"seed": False}, "seed"),
            ({"llm_concurrency": [4]}, "llm_concurrency"),
        ],
    )
    def test_malformed_integer_rejected(self, data, where):
        from regflow.simulation import _config_from_dict

        with pytest.raises(ArgumentError, match=f"{where} must be an integer"):
            _config_from_dict(data)

    def test_integral_floats_accepted(self):
        from regflow.simulation import _config_from_dict

        cfg = _config_from_dict({"total_steps": 10.0, "threshold": {"window": 4.0}, "seed": 3})
        assert (cfg.total_steps, cfg.threshold_cfg.window, cfg.seed) == (10, 4, 3)
        assert type(cfg.total_steps) is int and type(cfg.threshold_cfg.window) is int

    def test_malformed_number_rejected(self):
        from regflow.simulation import _config_from_dict

        with pytest.raises(ArgumentError, match="dt_per_step must be a number"):
            _config_from_dict({"dt_per_step": "fast"})

    def test_stored_config_reads_back(self):
        from regflow.simulation import _config_from_dict

        config = small_config(total_steps=9, threshold_cfg=ThresholdConfig(window=3), llm_concurrency=2)
        text = json.dumps(config, default=json_default)
        assert _config_from_dict(json.loads(text)) == config
        assert json.dumps(_config_from_dict(json.loads(text)), default=json_default) == text

    def test_llm_block_reads_back(self):
        from regflow.simulation import _config_from_dict

        cfg = _config_from_dict({"llm": {"endpoint": "https://h/v1", "retries": 3.0, "timeout": 5}})
        assert cfg.llm == ClientConfig(endpoint="https://h/v1", timeout=5.0, retries=3)
        assert type(cfg.llm.retries) is int and type(cfg.llm.timeout) is float
        assert _config_from_dict(json.loads(json.dumps(cfg, default=json_default))) == cfg

    @pytest.mark.parametrize("cycle", [True, False])
    def test_cycle_takes_json_bools(self, cycle):
        from regflow.simulation import _config_from_dict

        assert _config_from_dict({"schedule": {"cycle": cycle}}).schedule.cycle is cycle


class TestRunScripted:
    def test_constant_scores_give_constant_brr(self):
        profiles = list(DEFAULT_PROFILES)[:3]
        initial = default_initial(profiles)
        config = small_config(total_steps=8)
        script = {
            (t, p.id): constant_decision(p.id)
            for t in range(8)
            for p in profiles
        }
        result = run_scripted(config, profiles, initial, CORPUS, script)
        brrs = {ar.brr for rec in result.records for ar in rec.agents.values()}
        assert brrs == {10.5}

    def test_empty_adjustments_keep_parameters_constant(self):
        profiles = list(DEFAULT_PROFILES)[:2]
        initial = default_initial(profiles)
        config = small_config(total_steps=6)
        script = {(t, p.id): constant_decision(p.id) for t in range(6) for p in profiles}
        result = run_scripted(config, profiles, initial, CORPUS, script)
        for rec in result.records:
            for aid, ar in rec.agents.items():
                assert ar.params == initial[aid][0]

    def test_replay_reproduces_run_exactly(self):
        config = small_config(total_steps=15)
        initial = default_initial(DEFAULT_PROFILES)
        original = run(config, list(DEFAULT_PROFILES), initial, CORPUS)
        script = extract_script(original)
        replay_config = small_config(total_steps=15, policy_kind="scripted")
        replayed = run_scripted(replay_config, list(DEFAULT_PROFILES), initial, CORPUS, script)
        ra = json.dumps(result_to_json_dict(original)["records"], sort_keys=True)
        rb = json.dumps(result_to_json_dict(replayed)["records"], sort_keys=True)
        assert ra == rb

    def test_missing_entry_rejected(self):
        profiles = list(DEFAULT_PROFILES)[:2]
        script = {(0, profiles[0].id): constant_decision(profiles[0].id)}
        with pytest.raises(ArgumentError, match="script"):
            run_scripted(small_config(total_steps=1), profiles, default_initial(profiles), CORPUS, script)

    def test_oversized_scripted_delta_rejected(self):
        profiles = list(DEFAULT_PROFILES)[:1]
        script = {
            (0, profiles[0].id): constant_decision(profiles[0].id, deltas={"alpha1": 0.2})
        }
        with pytest.raises(ArgumentError, match="max_step"):
            run_scripted(small_config(total_steps=1), profiles, default_initial(profiles), CORPUS, script)

    def test_wrong_submission_id_rejected(self):
        profiles = list(DEFAULT_PROFILES)[:1]
        script = {(0, profiles[0].id): constant_decision("someone-else")}
        with pytest.raises(ArgumentError):
            run_scripted(small_config(total_steps=1), profiles, default_initial(profiles), CORPUS, script)

    def test_script_json_round_trip(self):
        config = small_config(total_steps=4)
        profiles = list(DEFAULT_PROFILES)[:3]
        initial = default_initial(profiles)
        original = run(config, profiles, initial, CORPUS)
        script = extract_script(original)
        restored = script_from_json_list(json.loads(json.dumps(script_entries(script), default=json_default)))
        assert restored == script


class TestSerialization:
    def test_json_round_trip(self):
        config = small_config(total_steps=5)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        data = result_to_json_dict(result)
        back = result_from_json_dict(json.loads(json.dumps(data)))
        assert result_to_json_dict(back) == data

    def test_result_pickles_and_deep_copies(self):
        config = small_config(total_steps=5)
        result = run(config, list(DEFAULT_PROFILES), default_initial(DEFAULT_PROFILES), CORPUS)
        assert pickle.loads(pickle.dumps(result)) == result
        assert copy.deepcopy(result) == result

    def test_csv_layout(self, tmp_path):
        config = small_config(total_steps=5)
        profiles = list(DEFAULT_PROFILES)[:4]
        result = run(config, profiles, default_initial(profiles), CORPUS)
        path = tmp_path / "trajectories.csv"
        write_result_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,agent,G,C,M,F,brr,approved,threshold,cost,adaptation"
        assert len(lines) == 1 + 5 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "A"
        assert first[7] in ("true", "false", "")

    def test_json_file_write(self, tmp_path):
        config = small_config(total_steps=3)
        profiles = list(DEFAULT_PROFILES)[:2]
        result = run(config, profiles, default_initial(profiles), CORPUS)
        path = tmp_path / "result.json"
        write_result_json(result, path)
        data = json.loads(path.read_text())
        assert len(data["records"]) == 3
        assert data["config"]["total_steps"] == 3
