"""Command-line surface: exit codes, formats, config merging, determinism."""

import dataclasses
import json

import pytest

from transient_sim.cli import main
from transient_sim.config import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    default_seed,
    experiment_config,
    mitigation_set,
)
from transient_sim.mitigations import MitigationSet
from transient_sim.profiles import CpuProfile, get_profile


# Each Enum-, int- or bool-typed CpuProfile field, with a valid value that
# intel_i7 does not have; the other fields cannot be set by a flat override.
_OVERRIDABLE = {
    "pipeline": "in-order",
    "rsb_size": 4,
    "rsb_underflow": "ring-buffer",
    "squash_policy": "cancel-inflight-fills",
    "branch_resolve_extra": 9,
    "return_resolve_extra": 9,
    "stl_speculation": False,
    "exception_policy": "deferred-forward-zero",
    "sysreg_transient_forward": False,
}
_NOT_OVERRIDABLE = ("name", "l1", "l2", "latencies", "eviction_params", "mitigations")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_profiles_lists_all_five(self, capsys):
        code, out, _ = run_cli(capsys, "profiles")
        assert code == 0
        for name in ("cortex_a53", "cortex_a8", "cortex_a9", "cortex_a72", "intel_i7"):
            assert name in out

    def test_successful_attack_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--variant", "v1", "--profile", "intel_i7"
        )
        assert code == 0
        assert json.loads(out)["success"] is True

    def test_failed_attack_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack", "--variant", "v1", "--profile", "cortex_a53"
        )
        assert code == 1
        assert json.loads(out)["success"] is False

    def test_unsupported_combination_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys,
            "attack",
            "--variant",
            "rsb",
            "--scenario",
            "pagefault",
            "--profile",
            "intel_i7",
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("covert", "--bits", "9"),
            ("sweep-bits", "--noise", "2"),
            ("attack", "--variant", "rsb", "--scenario", "pagefault"),
            ("mitigate", "--flags", "magic_shield"),
            ("mitigate", "--flags", "pmu_noise_amplitude=lots"),
            ("mitigate", "--flags", "privileged_flush=0"),
            ("mitigate", "--flags", "rsb_flush_on_cs,rsb_refill_on_cs"),
            ("covert", "--emit-latency-trace", "no-such-dir/latency.csv"),
            ("matrix", "--profile", "cortex_a9"),
            ("attack", "--variant", "v3", "--profile", "cortex_a72", "--secret", "00"),
            ("matrix", "--secret", "00"),
            ("attack", "--secret", ""),
            ("covert", "--message", ""),
            ("sweep-bits", "--message", ""),
        ],
    )
    def test_bad_input_is_rejected_before_any_experiment_runs(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        import transient_sim.cli as cli

        monkeypatch.chdir(tmp_path)  # relative paths resolve in an empty directory
        def must_not_run(*args, **kwargs):
            raise AssertionError("an experiment ran on bad input")

        for name in ("run_channel", "sweep_bits", "run_matrix", "run_attack"):
            monkeypatch.setattr(cli, name, must_not_run)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        import transient_sim.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("engine bug")

        monkeypatch.setattr(cli, "run_matrix", broken)
        with pytest.raises(ValueError, match="engine bug"):
            main(["matrix"])

    def test_unknown_variant_rejected_by_parser_with_the_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--variant", "v2"])
        assert exc.value.code == 2
        assert ("argument --variant: invalid choice: 'v2' "
                "(choose from 'v1', 'v3', 'v3a', 'v4', 'rsb')") in capsys.readouterr().err

    def test_unknown_profile_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--profile", "pentium_2"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestCovertCommand:
    def test_defaults_deliver_hi(self, capsys):
        code, out, _ = run_cli(capsys, "covert")
        assert code == 0
        payload = json.loads(out)
        assert payload["decoded_hex"] == "4849"
        assert payload["required_memory_bytes"] == 512
        assert payload["bit_errors"] == 0

    def test_bits_flag_changes_footprint(self, capsys):
        code, out, _ = run_cli(capsys, "covert", "--bits", "5")
        assert code == 0
        assert json.loads(out)["required_memory_bytes"] == 2048

    def test_latency_trace_file(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "covert", "--message", "48", "--emit-latency-trace", str(target)
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "symbol,line,latency"
        assert len(lines) > 1

    def test_mitigated_channel_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"experiment": "covert", "mitigations": {"privileged_flush": True}}
            )
        )
        code, out, _ = run_cli(capsys, "covert", "--config", str(cfg))
        assert code == 1
        assert json.loads(out)["aborted"] is True


class TestSweepCommand:
    def test_csv_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-bits")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "b,bandwidth,errors,memory"
        assert len(lines) == 7
        memories = [int(row.split(",")[3]) for row in lines[1:]]
        assert memories == [128, 256, 512, 1024, 2048, 4096]

    def test_config_file_costs_reach_every_width(self, capsys, tmp_path):
        path = tmp_path / "costs.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "sweep",
                    "context_switch_cost": 10,
                    "probe_cost_per_line": 20,
                    "rsb_fill_depth": 4,
                }
            )
        )
        code, out, _ = run_cli(capsys, "sweep-bits", "--config", str(path), "--format", "csv")
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5, 6]
        for row in rows:
            bits = int(row[0])
            cost = 2 * 10 + 2 * 4 + 20 * 2**bits  # error-free: b bits per symbol
            assert row[1] == f"{1000 * bits / cost:.6f}"

    def test_json_on_request(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-bits", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["bits_per_cs"] for r in rows] == [1, 2, 3, 4, 5, 6]

    def test_aborted_channel_exits_one(self, capsys, tmp_path):
        path = tmp_path / "armored.json"
        path.write_text(json.dumps({"mitigations": {"privileged_flush": True}}))
        code, out, _ = run_cli(capsys, "sweep-bits", "--config", str(path))
        assert code == 1
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [(row[1], row[2]) for row in rows] == [("0.000000", "0")] * 6


class TestMatrixCommand:
    def test_table_reports_empty_diff(self, capsys):
        code, out, _ = run_cli(capsys, "matrix")
        assert code == 0
        assert "diff against golden tables: empty" in out
        assert "Y" in out and "N" in out

    def test_byte_identical_across_runs(self, capsys):
        code1, out1, _ = run_cli(capsys, "matrix", "--seed", "7", "--format", "json")
        code2, out2, _ = run_cli(capsys, "matrix", "--seed", "7", "--format", "json")
        assert (code1, code2) == (0, 0)
        assert out1 == out2


class TestMitigateCommand:
    def test_privileged_flush_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "mitigate", "--flags", "privileged_flush", "--profile", "intel_i7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["channel_aborted"] is True
        assert payload["flipped_cells"]

    def test_refill_reports_bypass(self, capsys):
        code, out, _ = run_cli(
            capsys, "mitigate", "--flags", "rsb_refill_on_cs", "--profile", "intel_i7"
        )
        assert code == 0
        assert json.loads(out)["refill_bypass_success"] is True

    def test_pmu_amplitude_reports_accuracy(self, capsys):
        code, out, _ = run_cli(
            capsys, "mitigate", "--flags", "pmu_noise_amplitude=98"
        )
        assert code == 0
        accuracy = json.loads(out)["classifier_accuracy"]
        assert 0.5 < accuracy < 1.0

    def test_flags_add_to_the_config_mitigations(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"profile": "intel_i7", "mitigations": {"privileged_flush": True}})
        )
        code, out, _ = run_cli(
            capsys, "mitigate", "--config", str(path), "--flags", "btb_fallback_disabled"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"] == {"privileged_flush": True, "btb_fallback_disabled": True}
        assert not any(c["after"] and not c["before"] for c in payload["flipped_cells"])

    def test_flags_clashing_with_the_config_exit_two(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mitigations": {"rsb_flush_on_cs": True}}))
        code, out, err = run_cli(
            capsys, "mitigate", "--config", str(path), "--flags", "rsb_refill_on_cs"
        )
        assert code == 2
        assert out == ""
        assert "exclusive" in err

    def test_unknown_flag_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "mitigate", "--flags", "magic_shield")
        assert code == 2
        assert "error:" in err


class TestMitigationSet:
    def test_flags_text_skips_empty_parts_and_strips_names(self):
        assert mitigation_set({}, "") == mitigation_set({}, " , ,") == MitigationSet()
        assert mitigation_set({"btb_fallback_disabled": True}, " privileged_flush ,,") == (
            MitigationSet(privileged_flush=True, btb_fallback_disabled=True))
        assert mitigation_set({}, "pmu_noise_amplitude = 3") == MitigationSet(pmu_noise_amplitude=3)

    def test_a_value_must_be_an_integer_of_the_flags_type(self):
        with pytest.raises(ConfigError, match="flag 'pmu_noise_amplitude' needs an integer "
                                              "value, got 'x'"):
            mitigation_set({}, "pmu_noise_amplitude=x")
        with pytest.raises(ConfigError, match="mitigation flag privileged_flush must be bool, "
                                              "got 0"):
            mitigation_set({}, "privileged_flush=0")
        with pytest.raises(ConfigError, match=r"unknown mitigation flags: \[''\]"):
            mitigation_set({}, "=3")

    def test_an_unknown_flag_is_reported_before_a_bad_integer(self):
        with pytest.raises(ConfigError, match=r"unknown mitigation flags: \['magic'\]"):
            mitigation_set({}, "pmu_noise_amplitude=x,magic")
        with pytest.raises(ConfigError, match=r"unknown mitigation flags: \['magic'\]"):
            mitigation_set({"magic": True}, "pmu_noise_amplitude=x")


class TestConfigFiles:
    @pytest.mark.parametrize("field, message", [
        ("experiment", "unknown experiment 'bogus'; expected one of "
                       "('attack', 'covert', 'sweep', 'matrix', 'mitigation-demo')"),
        ("variant", "unknown variant 'bogus'; expected one of ('v1', 'v3', 'v3a', 'v4', 'rsb')"),
        ("scenario", "unknown scenario 'bogus'; expected one of "
                     "('specload', 'cachemiss', 'pagefault')"),
        ("secret_loc", "unknown secret_loc 'bogus'; expected one of ('l1', 'dram')"),
        ("output", "unknown output 'bogus'; expected one of ('json', 'csv', 'table')"),
    ])
    def test_unknown_choice_names_the_field_and_its_choices(self, field, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{field: "bogus"})
        assert str(exc.value) == message

    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(
            {"experiment": "attack", "variant": "v1", "profile": "cortex_a72"}
        )
        assert cfg.scenario == "cachemiss"
        assert cfg.bits == 3
        assert cfg.output == "json"

    def test_cli_flags_override_config_file(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"experiment": "attack", "variant": "v1", "profile": "cortex_a53"})
        )
        code, out, _ = run_cli(
            capsys, "attack", "--config", str(path), "--profile", "intel_i7"
        )
        assert code == 0
        assert json.loads(out)["profile"] == "intel_i7"

    def test_profile_override_reaches_the_profile(self):
        cfg = config_from_dict(
            {"experiment": "attack", "profile_overrides": {"dram": 150}}
        )
        assert cfg.resolved_profile().latencies.dram == 150

    def test_rsb_size_invariant_enforced(self):
        with pytest.raises(ConfigError, match=r"\[4, 32\]"):
            config_from_dict(
                {"experiment": "attack", "profile_overrides": {"rsb_size": 64}}
            )

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "attack", "warp_drive": 1}))
        with pytest.raises(ConfigError, match="warp_drive"):
            experiment_config("attack", str(path), {})

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        with pytest.raises(ConfigError, match=r"broken\.json:1:16"):
            experiment_config("attack", str(path), {})

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            experiment_config("attack", str(tmp_path / "absent.json"), {})

    def test_bad_hex_rejected_on_use(self):
        cfg = config_from_dict({"experiment": "covert", "message_hex": "zz"})
        with pytest.raises(ConfigError, match="not valid hex"):
            cfg.message_bytes()

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"bits": 9}, r"bits_per_cs must be in \[1, 6\]"),
            ({"noise": 1.5}, r"noise_probability must be in \[0, 1\]"),
            ({"context_switch_cost": -1}, "non-negative"),
            ({"rsb_fill_depth": 0}, "at least 1"),
            ({"variant": "rsb", "scenario": "pagefault"}, "page-fault window is undefined"),
            ({"mitigations": {"rsb_flush_on_cs": True, "rsb_refill_on_cs": True}}, "exclusive"),
            ({"profile_overrides": {"privileged_flush": True}}, "mitigations"),
            ({"seed": "abc"}, "seed must be int, got 'abc'"),
            ({"message_hex": 12}, "message_hex must be str, got 12"),
            ({"profile_overrides": {"l1_hit": 0}}, "1 <= l1"),
            ({"profile_overrides": {"stl_speculation": "false"}},
             "stl_speculation must be bool, got 'false'"),
            ({"profile_overrides": {"rsb_size": 8.5}}, "rsb_size must be int, got 8.5"),
            ({"mitigations": {"pmu_noise_amplitude": 2.5}},
             "pmu_noise_amplitude must be int, got 2.5"),
            ({"profile_overrides": {"dram": 150.5}}, "dram must be int, got 150.5"),
            ({"profile_overrides": {"rsb_size": "8"}}, "rsb_size must be int, got '8'"),
            ({"mitigations": {"pmu_noise_amplitude": "98"}},
             "pmu_noise_amplitude must be int, got '98'"),
            *(({"profile_overrides": {key: 1}}, f"unknown profile override '{key}'")
              for key in _NOT_OVERRIDABLE),
        ],
    )
    def test_unusable_values_are_config_errors(self, data, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"experiment": "covert", **data})

    @pytest.mark.parametrize("key, value", sorted(_OVERRIDABLE.items()))
    def test_every_enum_int_and_bool_profile_field_is_an_override(self, key, value):
        profile = config_from_dict(
            {"experiment": "covert", "profile_overrides": {key: value}}
        ).resolved_profile()
        got = getattr(profile, key)
        assert getattr(got, "value", got) == value
        assert got != getattr(get_profile("intel_i7"), key)

    def test_override_keys_cover_every_profile_field(self):
        fields = {f.name for f in dataclasses.fields(CpuProfile)}
        assert fields == set(_OVERRIDABLE) | set(_NOT_OVERRIDABLE)

    @pytest.mark.parametrize(
        "command, data, first_line",
        [
            ("sweep-bits", {}, "b,bandwidth,errors,memory"),
            ("sweep-bits", {"output": "json"}, "["),
            ("matrix", {}, "profile "),
        ],
    )
    def test_only_the_file_output_key_chooses_a_format(
        self, capsys, tmp_path, command, data, first_line
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sweep", "context_switch_cost": 10, **data}))
        code, out, _ = run_cli(capsys, command, "--config", str(path))
        assert code == 0
        assert out.startswith(first_line)

    def test_with_updates_ignores_none(self):
        cfg = ExperimentConfig(experiment="covert", bits=4)
        assert cfg.with_updates(bits=None).bits == 4
        assert cfg.with_updates(bits=2).bits == 2


class TestSeedHandling:
    def test_env_var_sets_default_seed(self, monkeypatch):
        monkeypatch.setenv("TRANSIENT_SIM_SEED", "42")
        assert default_seed() == 42
        monkeypatch.delenv("TRANSIENT_SIM_SEED")
        assert default_seed() == 7

    def test_garbage_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("TRANSIENT_SIM_SEED", "soon")
        with pytest.raises(ConfigError):
            default_seed()

    def test_env_seed_reaches_reports_and_cli_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("TRANSIENT_SIM_SEED", "42")
        code, out, _ = run_cli(capsys, "matrix", "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 42
        code, out, _ = run_cli(capsys, "matrix", "--seed", "9", "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 9
