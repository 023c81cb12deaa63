"""Scenario schema: fail-closed parsing, validation messages, JSON round-trips."""

import dataclasses
import json
import re

import pytest

from ebrc import presets
from ebrc.cli import main
from ebrc.config import (
    ByzantineConfig,
    ConfigError,
    ExitScript,
    NetworkConfig,
    ScenarioConfig,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)


def valid(**overrides) -> ScenarioConfig:
    config = dataclasses.replace(ScenarioConfig(), **overrides)
    return config


class TestValidation:
    def test_default_config_valid(self):
        valid().validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(protocol="raft"), "protocol"),
            (dict(seed=-1), "seed"),
            (dict(node_count=3), "node_count"),
            (dict(omega=0.0), "omega"),
            (dict(omega=1.5), "omega"),
            (dict(eligibility_percentile=0.0), "eligibility_percentile"),
            (dict(consensus_percentile=1.2), "consensus_percentile"),
            (dict(epochs=0), "epochs"),
            (dict(rounds_per_epoch=0), "rounds_per_epoch"),
            (dict(block_tx_cap=0), "block_tx_cap"),
            (dict(load=-1), "load"),
            (dict(round_deadline_ms=0.0), "round_deadline_ms"),
            # Election fields the election itself would reject mid-run.
            (
                dict(node_count=8, eligibility_percentile=0.5, consensus_percentile=0.9),
                "consensus_percentile",
            ),
            # Partition ids that are neither a node nor the client.
            (
                dict(network=NetworkConfig(partitions=((1.0, 5.0, (99, -1)),))),
                r"network\.partitions\[0\]",
            ),
        ],
    )
    def test_field_bounds(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            valid(**overrides).validate()

    def test_byzantine_count_capped_by_fault_budget(self):
        config = valid(
            node_count=4, byzantine=ByzantineConfig(node_ids=(1, 2), behavior="silent")
        )
        with pytest.raises(ConfigError, match=r"byzantine\.node_ids: 2 faulty nodes exceed"):
            config.validate()

    def test_byzantine_node_in_range(self):
        config = valid(node_count=4, byzantine=ByzantineConfig(node_ids=(9,)))
        with pytest.raises(ConfigError, match="byzantine.node_ids"):
            config.validate()

    def test_duplicate_byzantine_ids(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ByzantineConfig(node_ids=(1, 1)).validate()

    def test_exit_script_bounds(self):
        config = valid(node_count=4, exits=(ExitScript(round_index=0, node_id=1),))
        with pytest.raises(ConfigError, match="exits"):
            config.validate()
        config = valid(node_count=4, exits=(ExitScript(round_index=1, node_id=9),))
        with pytest.raises(ConfigError, match="exits"):
            config.validate()

    def test_exit_after_the_last_round_rejected(self):
        # churn_exit_m11 runs 2 epochs of 4 rounds: an exit after round 99
        # would never fire.
        data = presets.load("churn_exit_m11").to_dict()
        data["exits"] = [{"round_index": 99, "node_id": 7}]
        with pytest.raises(ConfigError, match=r"exits\[0\]\.round_index: must lie in 1\.\.8"):
            scenario_from_dict(data)
        data["exits"] = [{"round_index": 8, "node_id": 7}]
        assert scenario_from_dict(data).exits == (ExitScript(round_index=8, node_id=7),)

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("exits", dict(exits=(ExitScript(round_index=1, node_id=3),))),
            ("replace_faulty", dict(replace_faulty=True)),
        ],
    )
    def test_membership_fields_are_ebrc_only(self, field, overrides):
        with pytest.raises(ConfigError, match=f"{field}: .*EBRC-only"):
            valid(protocol="pbft", node_count=7, **overrides).validate()
        valid(protocol="ebrc", node_count=7, **overrides).validate()

    def test_corrupt_proof_is_ebrc_only(self):
        # PBFT holds no election, so a proof-corrupting node would act as an
        # honest one and the run would read as fault-free.
        byzantine = ByzantineConfig(node_ids=(5, 6), behavior="corrupt_proof")
        with pytest.raises(ConfigError, match="byzantine.behavior: .*EBRC-only; pbft has no election"):
            valid(protocol="pbft", node_count=7, byzantine=byzantine).validate()
        valid(protocol="ebrc", node_count=7, byzantine=byzantine).validate()

    @pytest.mark.parametrize(
        "field, value",
        [("exits", [{"round_index": 1, "node_id": 3}]), ("replace_faulty", True)],
    )
    def test_pbft_membership_file_is_usage_error(self, tmp_path, capsys, field, value):
        data = presets.load("law_pbft_n4").to_dict()
        data.update({"node_count": 7, "rounds_per_epoch": 4, field: value})
        scenario = tmp_path / "pbft_membership.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_network_bounds(self):
        with pytest.raises(ConfigError, match="drop_rate"):
            NetworkConfig(drop_rate=1.0).validate()
        with pytest.raises(ConfigError, match="latency"):
            NetworkConfig(base_latency_ms=-1.0).validate()
        with pytest.raises(ConfigError, match="partitions"):
            NetworkConfig(partitions=((5.0, 1.0, (1,)),)).validate()


# Keys of knobs whose one value in use is a constant of the runner, the
# simulator or the reputation module, or that no run set: a scenario file
# that names one is rejected.
REMOVED_KEYS = {
    "batch_window_ms": 2.0,
    "view_timeout_ms": 40.0,
    "connect_window_ms": 5.0,
    "payload_bytes": 64,
    "client_count": 1,
    "target_committee_size": 4,
    "slash_fraction": 0.1,
    "deposit_cap": 0.25,
    "deposits": {"0": 500.0},
    "weights": {"margin": 0.1, "incomplete": 0.3, "evil": 0.3, "activity": 0.2, "magnitude": 0.1},
    "complement_fault_rates": True,
    "detect_silent": True,
    "allow_over_threshold": False,
    "byzantine.activation": None,
    "byzantine.latency_factor": 4.0,
    "poison": {"node_ids": [1], "participations": 10, "evil_count": 3, "incomplete_count": 0},
}


class TestParsing:
    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    def test_removed_key_is_unknown(self, key):
        section, _, leaf = key.rpartition(".")
        data = {leaf: REMOVED_KEYS[key]}
        with pytest.raises(ConfigError, match=re.escape(f"{key}: unknown field")):
            scenario_from_dict({section: data} if section else data)

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match=r"scenario\.nodecount"):
            scenario_from_dict({"nodecount": 4})

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"network": {"lag_ms": 1}}, r"network\.lag_ms"),
            ({"byzantine": {"who": []}}, r"byzantine\.who"),
            ({"exits": [{"when": 1}]}, r"exits\[0\]\.when"),
        ],
    )
    def test_unknown_nested_key_named(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"seed": "zero"}, "seed: expected integer"),
            ({"seed": True}, "seed: expected integer"),  # bool is not an integer here
            ({"omega": "high"}, "omega"),
            ({"replace_faulty": 1}, "replace_faulty: expected boolean"),
            ({"name": 5}, "name: expected string"),
            ({"protocol": 1}, "protocol: expected string"),
            ({"exits": [{"node_id": 1}]}, r"exits\[0\]\.round_index"),
        ],
        ids=["seed_str", "seed_bool", "omega", "replace_faulty", "name", "protocol", "exit_missing"],
    )
    def test_type_errors_carry_paths(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment):
            scenario_from_dict(data)

    def test_malformed_partition_row(self):
        with pytest.raises(ConfigError, match=r"network\.partitions\[0\]"):
            scenario_from_dict({"network": {"partitions": [[1.0, 2.0]]}})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            scenario_from_dict([1, 2, 3])

    def test_defaults_fill_in(self):
        config = scenario_from_dict({})
        assert config.protocol == "ebrc"
        assert config.node_count == 4
        assert config.network.base_latency_ms == 2.0
        assert config == ScenarioConfig()

    def test_validation_runs_on_parse(self):
        with pytest.raises(ConfigError, match="node_count"):
            scenario_from_dict({"node_count": 2})


class TestRoundTrip:
    def build(self) -> ScenarioConfig:
        return scenario_from_dict(
            {
                "name": "roundtrip",
                "protocol": "ebrc",
                "node_count": 10,
                "seed": 42,
                "omega": 1.0,
                "eligibility_percentile": 1.0,
                "consensus_percentile": 0.5,
                "epochs": 2,
                "rounds_per_epoch": 5,
                "load": 4,
                "network": {
                    "base_latency_ms": 3.5,
                    "jitter_ms": 0.5,
                    "drop_rate": 0.1,
                    "partitions": [[0.0, 10.0, [2]]],
                },
                "byzantine": {"node_ids": [9], "behavior": "lazy"},
                "exits": [{"round_index": 3, "node_id": 5}],
            }
        )

    def test_dict_round_trip_is_identity(self):
        config = self.build()
        again = scenario_from_dict(config.to_dict())
        assert again == config
        assert again.to_dict() == config.to_dict()

    def test_written_keys_are_the_schema_fields(self):
        written = self.build().to_dict()
        assert list(written) == [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert "deposits" not in written

    def test_file_round_trip(self, tmp_path):
        config = self.build()
        target = tmp_path / "scenario.json"
        save_scenario(config, target)
        loaded = load_scenario(target)
        assert loaded == config

    def test_save_is_stable_text(self, tmp_path):
        config = self.build()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(config, a)
        save_scenario(config, b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_json_reports_path(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(bad)


class TestPresets:
    def test_listing_and_loading(self):
        available = presets.names()
        assert len(available) >= 20
        for name in available:
            config = presets.load(name)
            assert config.name == name

    def test_expected_families_present(self):
        available = set(presets.names())
        assert "safety_silent_m4" in available
        assert "safety_corrupt_digest_m13" in available
        assert "churn_exit_m11" in available
        assert "djep_exit_m26" in available
        assert "pbft_viewchange_n26" in available

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            presets.path("no_such_preset")

    def test_builders_round_trip(self):
        configs = list(presets.all_safety_presets())
        configs += [
            presets.djep_exit_preset(),
            presets.djep_join_preset(),
            presets.pbft_viewchange_preset(),
        ]
        configs += list(presets.law_pair(7))
        configs += list(presets.comparison_pair(10, byzantine=True))
        for config in configs:
            config.validate()
            assert scenario_from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("name", presets.names())
    def test_shipped_file_is_what_save_writes(self, tmp_path, name):
        target = tmp_path / f"{name}.json"
        save_scenario(presets.load(name), target)
        assert target.read_bytes() == presets.path(name).read_bytes()

    def test_pair_builders_match_shipped_files(self, tmp_path):
        for config in presets.law_pair(4) + presets.comparison_pair(10, byzantine=True):
            target = tmp_path / f"{config.name}.json"
            save_scenario(config, target)
            assert target.read_bytes() == presets.path(config.name).read_bytes(), config.name

    def test_fixed_preset_builders_swap_in_the_seed(self):
        assert presets.djep_join_preset(7) == dataclasses.replace(
            presets.load("djep_join_m25"), seed=7
        )
        lazy = presets.safety_preset(7, "lazy", 2)
        assert lazy.name == "safety_lazy_m7" and lazy.seed == 2
        assert lazy.byzantine == ByzantineConfig(node_ids=(5, 6), behavior="lazy")

    def test_safety_matrix_shape(self):
        configs = presets.all_safety_presets()
        matrix = {
            (c.node_count, c.byzantine.behavior)
            for c in configs
            if c.name.startswith("safety_")
        }
        assert len(matrix) == len(presets.SAFETY_COMMITTEE_SIZES) * len(
            presets.SAFETY_BEHAVIORS
        )
