"""Scenario configuration: dataclasses, fail-closed dict parsing, JSON I/O.

Unknown keys are rejected with the offending field path rather than ignored,
so a typo in a scenario file fails loudly instead of silently running the
default it was meant to override.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .reputation import DEFAULT_DEPOSIT_CAP, DEFAULT_SLASH_FRACTION, ReputationWeights
from .simnet import BYZANTINE_BEHAVIORS


class ConfigError(ValueError):
    """Invalid scenario configuration; message carries the field path."""


PROTOCOLS = ("ebrc", "pbft")


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    base_latency_ms: float = 2.0
    jitter_ms: float = 1.0
    drop_rate: float = 0.0
    partitions: Tuple[Tuple[float, float, Tuple[int, ...]], ...] = ()

    def validate(self, path: str = "network") -> None:
        if self.base_latency_ms < 0 or self.jitter_ms < 0:
            raise ConfigError(f"{path}: latency values must be >= 0")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigError(f"{path}.drop_rate: must be in [0, 1)")
        for i, window in enumerate(self.partitions):
            start, end, nodes = window
            if start < 0 or end < start:
                raise ConfigError(f"{path}.partitions[{i}]: need 0 <= start <= end")


@dataclass(frozen=True, slots=True)
class ByzantineConfig:
    node_ids: Tuple[int, ...] = ()
    behavior: str = "silent"
    latency_factor: float = 4.0
    # Epoch window [first, last] during which the profile is active;
    # None means always active.
    activation: Optional[Tuple[int, int]] = None

    def validate(self, path: str = "byzantine") -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ConfigError(f"{path}.behavior: unknown behavior {self.behavior!r}")
        if self.latency_factor < 1.0:
            raise ConfigError(f"{path}.latency_factor: must be >= 1")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigError(f"{path}.node_ids: duplicate ids")
        if self.activation is not None and self.activation[0] > self.activation[1]:
            raise ConfigError(f"{path}.activation: first epoch exceeds last")

    def active(self, epoch: int) -> bool:
        if not self.node_ids:
            return False
        if self.activation is None:
            return True
        return self.activation[0] <= epoch <= self.activation[1]


@dataclass(frozen=True, slots=True)
class ExitScript:
    round_index: int  # global round number (1-based) after which the exit fires
    node_id: int

    def validate(self, path: str) -> None:
        if self.round_index < 1:
            raise ConfigError(f"{path}.round_index: must be >= 1")


@dataclass(frozen=True, slots=True)
class PoisonConfig:
    """Pre-scenario behavior-table doctoring for targeted nodes."""

    node_ids: Tuple[int, ...] = ()
    participations: int = 10
    evil_count: int = 3
    incomplete_count: int = 0

    def validate(self, path: str = "poison") -> None:
        if self.evil_count + self.incomplete_count > self.participations:
            raise ConfigError(f"{path}: fault counts exceed participations")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str = "scenario"
    protocol: str = "ebrc"
    node_count: int = 4
    seed: int = 0

    # Election parameters (EBRC only).
    target_committee_size: int = 4
    omega: float = 0.4
    eligibility_percentile: float = 0.85
    consensus_percentile: float = 0.5
    connect_window_ms: float = 5.0

    # Reputation parameters.
    weights: ReputationWeights = field(default_factory=ReputationWeights)
    complement_fault_rates: bool = True
    slash_fraction: float = DEFAULT_SLASH_FRACTION
    deposit_cap: float = DEFAULT_DEPOSIT_CAP
    deposits: Mapping[int, float] = field(default_factory=dict)  # default 100 each
    poison: PoisonConfig = field(default_factory=PoisonConfig)

    # Round structure and load.
    epochs: int = 1
    rounds_per_epoch: int = 20
    block_tx_cap: int = 15
    load: int = 15  # requests injected per round
    payload_bytes: int = 64
    client_count: int = 1

    # Timing (simulated milliseconds).
    batch_window_ms: float = 2.0
    view_timeout_ms: float = 40.0
    round_deadline_ms: float = 2_000.0

    network: NetworkConfig = field(default_factory=NetworkConfig)
    byzantine: ByzantineConfig = field(default_factory=ByzantineConfig)
    allow_over_threshold: bool = False
    exits: Tuple[ExitScript, ...] = ()
    replace_faulty: bool = False
    detect_silent: bool = True

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {PROTOCOLS}")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.node_count < 4:
            raise ConfigError("node_count: at least 4 nodes are required")
        if self.target_committee_size > self.node_count:
            raise ConfigError("target_committee_size: exceeds node_count")
        if not 0.0 < self.omega <= 1.0:
            raise ConfigError("omega: must lie in (0, 1]")
        for name in ("eligibility_percentile", "consensus_percentile"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name}: must lie in (0, 1]")
        if self.epochs < 1 or self.rounds_per_epoch < 1:
            raise ConfigError("epochs and rounds_per_epoch must be >= 1")
        if self.block_tx_cap < 1:
            raise ConfigError("block_tx_cap: must be >= 1")
        if self.load < 0:
            raise ConfigError("load: must be >= 0")
        if self.payload_bytes < 1:
            raise ConfigError("payload_bytes: must be >= 1")
        if self.client_count < 1:
            raise ConfigError("client_count: must be >= 1")
        for name in ("batch_window_ms", "view_timeout_ms", "round_deadline_ms", "connect_window_ms"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be > 0")
        if not 0.0 <= self.slash_fraction <= 1.0:
            raise ConfigError("slash_fraction: must lie in [0, 1]")
        if not 0.0 < self.deposit_cap < 1.0:
            raise ConfigError("deposit_cap: must lie in (0, 1)")
        self.weights.validate()
        self.network.validate()
        self.byzantine.validate()
        self.poison.validate()
        all_ids = range(self.node_count)
        for nid in self.byzantine.node_ids:
            if nid not in all_ids:
                raise ConfigError(f"byzantine.node_ids: {nid} outside 0..{self.node_count - 1}")
        budget = (self.node_count - 1) // 3
        if len(self.byzantine.node_ids) > budget and not self.allow_over_threshold:
            raise ConfigError(
                f"byzantine.node_ids: {len(self.byzantine.node_ids)} faulty nodes exceed "
                f"floor((n-1)/3) = {budget}; set allow_over_threshold for stress runs"
            )
        # PBFT keeps one fixed replica group: it has no join/exit flow.
        if self.protocol == "pbft" and self.exits:
            raise ConfigError("exits: membership changes are EBRC-only; pbft has a fixed group")
        if self.protocol == "pbft" and self.replace_faulty:
            raise ConfigError("replace_faulty: membership changes are EBRC-only; pbft has a fixed group")
        for i, script in enumerate(self.exits):
            script.validate(f"exits[{i}]")
            if script.node_id not in all_ids:
                raise ConfigError(f"exits[{i}].node_id: {script.node_id} unknown")
        for nid in self.poison.node_ids:
            if nid not in all_ids:
                raise ConfigError(f"poison.node_ids: {nid} outside 0..{self.node_count - 1}")
        for nid in self.deposits:
            if nid not in all_ids:
                raise ConfigError(f"deposits: node {nid} outside 0..{self.node_count - 1}")

    # -- serialization --

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "protocol": self.protocol,
            "node_count": self.node_count,
            "seed": self.seed,
            "target_committee_size": self.target_committee_size,
            "omega": self.omega,
            "eligibility_percentile": self.eligibility_percentile,
            "consensus_percentile": self.consensus_percentile,
            "connect_window_ms": self.connect_window_ms,
            "weights": dataclasses.asdict(self.weights),
            "complement_fault_rates": self.complement_fault_rates,
            "slash_fraction": self.slash_fraction,
            "deposit_cap": self.deposit_cap,
            "deposits": {str(k): v for k, v in sorted(self.deposits.items())},
            "poison": {
                "node_ids": list(self.poison.node_ids),
                "participations": self.poison.participations,
                "evil_count": self.poison.evil_count,
                "incomplete_count": self.poison.incomplete_count,
            },
            "epochs": self.epochs,
            "rounds_per_epoch": self.rounds_per_epoch,
            "block_tx_cap": self.block_tx_cap,
            "load": self.load,
            "payload_bytes": self.payload_bytes,
            "client_count": self.client_count,
            "batch_window_ms": self.batch_window_ms,
            "view_timeout_ms": self.view_timeout_ms,
            "round_deadline_ms": self.round_deadline_ms,
            "network": {
                "base_latency_ms": self.network.base_latency_ms,
                "jitter_ms": self.network.jitter_ms,
                "drop_rate": self.network.drop_rate,
                "partitions": [
                    [start, end, list(nodes)] for start, end, nodes in self.network.partitions
                ],
            },
            "byzantine": {
                "node_ids": list(self.byzantine.node_ids),
                "behavior": self.byzantine.behavior,
                "latency_factor": self.byzantine.latency_factor,
                "activation": list(self.byzantine.activation) if self.byzantine.activation else None,
            },
            "allow_over_threshold": self.allow_over_threshold,
            "exits": [{"round_index": s.round_index, "node_id": s.node_id} for s in self.exits],
            "replace_faulty": self.replace_faulty,
            "detect_silent": self.detect_silent,
        }
        return out


def _require_keys(data: Mapping[str, Any], allowed: set, path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field")


def _coerce_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected integer, got {type(value).__name__}")
    return value


def _coerce_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected number, got {type(value).__name__}")
    return float(value)


def _coerce_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected boolean, got {type(value).__name__}")
    return value


def _parse_network(data: Mapping[str, Any], path: str = "network") -> NetworkConfig:
    allowed = {"base_latency_ms", "jitter_ms", "drop_rate", "partitions"}
    _require_keys(data, allowed, path)
    partitions: List[Tuple[float, float, Tuple[int, ...]]] = []
    for i, row in enumerate(data.get("partitions", [])):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ConfigError(f"{path}.partitions[{i}]: expected [start_ms, end_ms, [nodes]]")
        start = _coerce_number(row[0], f"{path}.partitions[{i}][0]")
        end = _coerce_number(row[1], f"{path}.partitions[{i}][1]")
        nodes = tuple(_coerce_int(n, f"{path}.partitions[{i}][2]") for n in row[2])
        partitions.append((start, end, nodes))
    return NetworkConfig(
        base_latency_ms=_coerce_number(data.get("base_latency_ms", 2.0), f"{path}.base_latency_ms"),
        jitter_ms=_coerce_number(data.get("jitter_ms", 1.0), f"{path}.jitter_ms"),
        drop_rate=_coerce_number(data.get("drop_rate", 0.0), f"{path}.drop_rate"),
        partitions=tuple(partitions),
    )


def _parse_byzantine(data: Mapping[str, Any], path: str = "byzantine") -> ByzantineConfig:
    allowed = {"node_ids", "behavior", "latency_factor", "activation"}
    _require_keys(data, allowed, path)
    activation = data.get("activation")
    if activation is not None:
        if not isinstance(activation, (list, tuple)) or len(activation) != 2:
            raise ConfigError(f"{path}.activation: expected [first_epoch, last_epoch]")
        activation = (
            _coerce_int(activation[0], f"{path}.activation[0]"),
            _coerce_int(activation[1], f"{path}.activation[1]"),
        )
    return ByzantineConfig(
        node_ids=tuple(_coerce_int(n, f"{path}.node_ids") for n in data.get("node_ids", [])),
        behavior=data.get("behavior", "silent"),
        latency_factor=_coerce_number(data.get("latency_factor", 4.0), f"{path}.latency_factor"),
        activation=activation,
    )


def _parse_weights(data: Mapping[str, Any], path: str = "weights") -> ReputationWeights:
    defaults = ReputationWeights()
    allowed = set(dataclasses.asdict(defaults))
    _require_keys(data, allowed, path)
    kwargs = {
        name: _coerce_number(data[name], f"{path}.{name}") for name in data
    }
    return dataclasses.replace(defaults, **kwargs)


def _parse_poison(data: Mapping[str, Any], path: str = "poison") -> PoisonConfig:
    allowed = {"node_ids", "participations", "evil_count", "incomplete_count"}
    _require_keys(data, allowed, path)
    return PoisonConfig(
        node_ids=tuple(_coerce_int(n, f"{path}.node_ids") for n in data.get("node_ids", [])),
        participations=_coerce_int(data.get("participations", 10), f"{path}.participations"),
        evil_count=_coerce_int(data.get("evil_count", 3), f"{path}.evil_count"),
        incomplete_count=_coerce_int(data.get("incomplete_count", 0), f"{path}.incomplete_count"),
    )


_TOP_LEVEL_KEYS = {
    "name", "protocol", "node_count", "seed",
    "target_committee_size", "omega", "eligibility_percentile",
    "consensus_percentile", "connect_window_ms",
    "weights", "complement_fault_rates", "slash_fraction", "deposit_cap",
    "deposits", "poison",
    "epochs", "rounds_per_epoch", "block_tx_cap", "load", "payload_bytes",
    "client_count",
    "batch_window_ms", "view_timeout_ms", "round_deadline_ms",
    "network", "byzantine", "allow_over_threshold", "exits",
    "replace_faulty", "detect_silent",
}


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError with a field path."""
    if not isinstance(data, Mapping):
        raise ConfigError("scenario: expected a JSON object")
    _require_keys(data, _TOP_LEVEL_KEYS, "scenario")

    deposits: Dict[int, float] = {}
    for key, value in data.get("deposits", {}).items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"deposits.{key}: node id must be an integer") from None
        deposits[node] = _coerce_number(value, f"deposits.{key}")

    exits: List[ExitScript] = []
    for i, row in enumerate(data.get("exits", [])):
        if not isinstance(row, Mapping):
            raise ConfigError(f"exits[{i}]: expected an object")
        _require_keys(row, {"round_index", "node_id"}, f"exits[{i}]")
        exits.append(
            ExitScript(
                round_index=_coerce_int(row.get("round_index"), f"exits[{i}].round_index"),
                node_id=_coerce_int(row.get("node_id"), f"exits[{i}].node_id"),
            )
        )

    config = ScenarioConfig(
        name=str(data.get("name", "scenario")),
        protocol=str(data.get("protocol", "ebrc")),
        node_count=_coerce_int(data.get("node_count", 4), "node_count"),
        seed=_coerce_int(data.get("seed", 0), "seed"),
        target_committee_size=_coerce_int(data.get("target_committee_size", 4), "target_committee_size"),
        omega=_coerce_number(data.get("omega", 0.4), "omega"),
        eligibility_percentile=_coerce_number(data.get("eligibility_percentile", 0.85), "eligibility_percentile"),
        consensus_percentile=_coerce_number(data.get("consensus_percentile", 0.5), "consensus_percentile"),
        connect_window_ms=_coerce_number(data.get("connect_window_ms", 5.0), "connect_window_ms"),
        weights=_parse_weights(data.get("weights", {})),
        complement_fault_rates=_coerce_bool(data.get("complement_fault_rates", True), "complement_fault_rates"),
        slash_fraction=_coerce_number(data.get("slash_fraction", DEFAULT_SLASH_FRACTION), "slash_fraction"),
        deposit_cap=_coerce_number(data.get("deposit_cap", DEFAULT_DEPOSIT_CAP), "deposit_cap"),
        deposits=deposits,
        poison=_parse_poison(data.get("poison", {})),
        epochs=_coerce_int(data.get("epochs", 1), "epochs"),
        rounds_per_epoch=_coerce_int(data.get("rounds_per_epoch", 20), "rounds_per_epoch"),
        block_tx_cap=_coerce_int(data.get("block_tx_cap", 15), "block_tx_cap"),
        load=_coerce_int(data.get("load", 15), "load"),
        payload_bytes=_coerce_int(data.get("payload_bytes", 64), "payload_bytes"),
        client_count=_coerce_int(data.get("client_count", 1), "client_count"),
        batch_window_ms=_coerce_number(data.get("batch_window_ms", 2.0), "batch_window_ms"),
        view_timeout_ms=_coerce_number(data.get("view_timeout_ms", 40.0), "view_timeout_ms"),
        round_deadline_ms=_coerce_number(data.get("round_deadline_ms", 2000.0), "round_deadline_ms"),
        network=_parse_network(data.get("network", {})),
        byzantine=_parse_byzantine(data.get("byzantine", {})),
        allow_over_threshold=_coerce_bool(data.get("allow_over_threshold", False), "allow_over_threshold"),
        exits=tuple(exits),
        replace_faulty=_coerce_bool(data.get("replace_faulty", False), "replace_faulty"),
        detect_silent=_coerce_bool(data.get("detect_silent", True), "detect_silent"),
    )
    config.validate()
    return config


def load_scenario(path) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data)


def save_scenario(config: ScenarioConfig, path) -> None:
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
