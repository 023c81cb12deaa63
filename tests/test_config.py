"""Scenario schema: fail-closed parsing, validation messages, JSON round-trips."""

import dataclasses
import json

import pytest

from ebrc import presets
from ebrc.cli import main
from ebrc.config import (
    ByzantineConfig,
    ConfigError,
    ExitScript,
    NetworkConfig,
    PoisonConfig,
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
            (dict(target_committee_size=9, node_count=8), "target_committee_size"),
            (dict(omega=0.0), "omega"),
            (dict(omega=1.5), "omega"),
            (dict(eligibility_percentile=0.0), "eligibility_percentile"),
            (dict(consensus_percentile=1.2), "consensus_percentile"),
            (dict(epochs=0), "epochs"),
            (dict(rounds_per_epoch=0), "rounds_per_epoch"),
            (dict(block_tx_cap=0), "block_tx_cap"),
            (dict(load=-1), "load"),
            (dict(payload_bytes=0), "payload_bytes"),
            (dict(client_count=0), "client_count"),
            (dict(batch_window_ms=0.0), "batch_window_ms"),
            (dict(view_timeout_ms=-1.0), "view_timeout_ms"),
            (dict(round_deadline_ms=0.0), "round_deadline_ms"),
            (dict(connect_window_ms=0.0), "connect_window_ms"),
            (dict(slash_fraction=1.5), "slash_fraction"),
            (dict(deposit_cap=0.0), "deposit_cap"),
            (dict(deposit_cap=1.0), "deposit_cap"),
            # Election fields the election itself would reject mid-run.
            (dict(target_committee_size=3), "target_committee_size"),
            (
                dict(node_count=8, eligibility_percentile=0.5, consensus_percentile=0.9),
                "consensus_percentile",
            ),
            # Partition ids that are neither a node nor a client.
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
        with pytest.raises(ConfigError, match="allow_over_threshold"):
            config.validate()

    def test_over_threshold_opt_in(self):
        valid(
            node_count=4,
            byzantine=ByzantineConfig(node_ids=(1, 2), behavior="silent"),
            allow_over_threshold=True,
        ).validate()

    def test_byzantine_node_in_range(self):
        config = valid(node_count=4, byzantine=ByzantineConfig(node_ids=(9,)))
        with pytest.raises(ConfigError, match="byzantine.node_ids"):
            config.validate()

    def test_duplicate_byzantine_ids(self):
        with pytest.raises(ConfigError, match="duplicate"):
            ByzantineConfig(node_ids=(1, 1)).validate()

    def test_activation_window_ordered(self):
        with pytest.raises(ConfigError, match="activation"):
            ByzantineConfig(node_ids=(1,), activation=(3, 1)).validate()

    def test_activation_epoch_window(self):
        byz = ByzantineConfig(node_ids=(1,), activation=(2, 3))
        assert not byz.active(1)
        assert byz.active(2) and byz.active(3)
        assert not byz.active(4)
        assert ByzantineConfig(node_ids=(1,)).active(99)
        assert not ByzantineConfig().active(1)

    def test_exit_script_bounds(self):
        config = valid(node_count=4, exits=(ExitScript(round_index=0, node_id=1),))
        with pytest.raises(ConfigError, match="exits"):
            config.validate()
        config = valid(node_count=4, exits=(ExitScript(round_index=1, node_id=9),))
        with pytest.raises(ConfigError, match="exits"):
            config.validate()

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

    def test_poison_counts_and_range(self):
        with pytest.raises(ConfigError, match="poison"):
            PoisonConfig(participations=2, evil_count=3).validate()
        config = valid(node_count=4, poison=PoisonConfig(node_ids=(8,)))
        with pytest.raises(ConfigError, match="poison.node_ids"):
            config.validate()

    def test_deposits_keyed_by_known_nodes(self):
        config = valid(node_count=4, deposits={9: 100.0})
        with pytest.raises(ConfigError, match="deposits"):
            config.validate()

    def test_network_bounds(self):
        with pytest.raises(ConfigError, match="drop_rate"):
            NetworkConfig(drop_rate=1.0).validate()
        with pytest.raises(ConfigError, match="latency"):
            NetworkConfig(base_latency_ms=-1.0).validate()
        with pytest.raises(ConfigError, match="partitions"):
            NetworkConfig(partitions=((5.0, 1.0, (1,)),)).validate()


class TestParsing:
    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match=r"scenario\.nodecount"):
            scenario_from_dict({"nodecount": 4})

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"network": {"lag_ms": 1}}, r"network\.lag_ms"),
            ({"byzantine": {"who": []}}, r"byzantine\.who"),
            ({"weights": {"deposit": 0.1}}, r"weights\.deposit"),
            ({"poison": {"victims": []}}, r"poison\.victims"),
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
            ({"detect_silent": 1}, "detect_silent"),
            ({"name": 5}, "name: expected string"),
            ({"protocol": 1}, "protocol: expected string"),
            ({"exits": [{"node_id": 1}]}, r"exits\[0\]\.round_index"),
        ],
        ids=["seed_str", "seed_bool", "omega", "detect_silent", "name", "protocol", "exit_missing"],
    )
    def test_type_errors_carry_paths(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment):
            scenario_from_dict(data)

    def test_malformed_partition_row(self):
        with pytest.raises(ConfigError, match=r"network\.partitions\[0\]"):
            scenario_from_dict({"network": {"partitions": [[1.0, 2.0]]}})

    def test_malformed_activation(self):
        with pytest.raises(ConfigError, match=r"byzantine\.activation"):
            scenario_from_dict({"byzantine": {"node_ids": [1], "activation": [1]}})

    def test_deposit_keys_must_be_integers(self):
        with pytest.raises(ConfigError, match=r"deposits\.alice"):
            scenario_from_dict({"deposits": {"alice": 10.0}})

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
                "deposits": {"0": 500.0, "3": 50.0},
                "poison": {"node_ids": [1, 3], "evil_count": 2},
                "epochs": 2,
                "rounds_per_epoch": 5,
                "load": 4,
                "network": {
                    "base_latency_ms": 3.5,
                    "jitter_ms": 0.5,
                    "drop_rate": 0.1,
                    "partitions": [[0.0, 10.0, [2]]],
                },
                "byzantine": {
                    "node_ids": [9],
                    "behavior": "lazy",
                    "latency_factor": 6.0,
                    "activation": [2, 2],
                },
                "exits": [{"round_index": 3, "node_id": 5}],
            }
        )

    def test_dict_round_trip_is_identity(self):
        config = self.build()
        again = scenario_from_dict(config.to_dict())
        assert again == config
        assert again.to_dict() == config.to_dict()

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
            presets.election_corrupt_proof_preset(),
            presets.djep_exit_preset(),
            presets.djep_join_preset(),
            presets.pbft_viewchange_preset(),
        ]
        configs += list(presets.law_pair(7))
        configs += list(presets.comparison_pair(10, byzantine=True))
        for config in configs:
            config.validate()
            assert scenario_from_dict(config.to_dict()) == config

    def test_shipped_files_match_builders(self, tmp_path):
        configs = list(presets.all_safety_presets())
        configs += [
            presets.djep_exit_preset(),
            presets.djep_join_preset(),
            presets.pbft_viewchange_preset(),
        ]
        configs += list(presets.law_pair(4))
        configs += list(presets.comparison_pair(10, byzantine=True))
        assert sorted(c.name for c in configs) == presets.names()
        for config in configs:
            target = tmp_path / f"{config.name}.json"
            save_scenario(config, target)
            assert target.read_bytes() == presets.path(config.name).read_bytes(), config.name

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
