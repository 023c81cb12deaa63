"""Scenario configuration: dataclasses, fail-closed dict parsing, JSON I/O.

The dataclasses are the whole schema. Parsing, serialization and the
unknown-key check walk their fields and type annotations, so each field's
name, type and default is stated once, in its class.

Unknown keys are rejected with the offending field path rather than ignored,
so a typo in a scenario file fails loudly instead of silently running the
default it was meant to override.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

from .djep import committee_fault_budget


class ConfigError(ValueError):
    """Invalid scenario configuration; message carries the field path."""


PROTOCOLS = ("ebrc", "pbft")
# A faulty node's behaviour: the runner rewrites its sends, except that the
# network runs ``lazy`` and the election ``corrupt_proof``.
BYZANTINE_BEHAVIORS = ("silent", "equivocate", "corrupt_digest", "corrupt_proof", "lazy")


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

    def validate(self, path: str = "byzantine") -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ConfigError(f"{path}.behavior: unknown behavior {self.behavior!r}")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigError(f"{path}.node_ids: duplicate ids")


@dataclass(frozen=True, slots=True)
class ExitScript:
    round_index: int  # global round number (1-based) after which the exit fires
    node_id: int

    def validate(self, path: str, rounds: int) -> None:
        # An exit after the last round would never fire.
        if not 1 <= self.round_index <= rounds:
            raise ConfigError(f"{path}.round_index: must lie in 1..{rounds}, the rounds of the run")


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    name: str = "scenario"
    protocol: str = "ebrc"
    node_count: int = 4
    seed: int = 0

    # Election parameters (EBRC only).
    omega: float = 0.4
    eligibility_percentile: float = 0.85
    consensus_percentile: float = 0.5

    # Round structure and load.
    epochs: int = 1
    rounds_per_epoch: int = 20
    block_tx_cap: int = 15
    load: int = 15  # requests the one client injects per round
    round_deadline_ms: float = 2_000.0  # simulated milliseconds

    network: NetworkConfig = field(default_factory=NetworkConfig)
    byzantine: ByzantineConfig = field(default_factory=ByzantineConfig)
    exits: Tuple[ExitScript, ...] = ()
    replace_faulty: bool = False

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {PROTOCOLS}")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.node_count < 4:
            raise ConfigError("node_count: at least 4 nodes are required")
        if not 0.0 < self.omega <= 1.0:
            raise ConfigError("omega: must lie in (0, 1]")
        for name in ("eligibility_percentile", "consensus_percentile"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name}: must lie in (0, 1]")
        if self.consensus_percentile > self.eligibility_percentile:
            raise ConfigError("consensus_percentile: must not exceed eligibility_percentile")
        if self.epochs < 1 or self.rounds_per_epoch < 1:
            raise ConfigError("epochs and rounds_per_epoch must be >= 1")
        if self.block_tx_cap < 1:
            raise ConfigError("block_tx_cap: must be >= 1")
        if self.load < 0:
            raise ConfigError("load: must be >= 0")
        if self.round_deadline_ms <= 0:
            raise ConfigError("round_deadline_ms: must be > 0")
        self.network.validate()
        self.byzantine.validate()
        all_ids = range(self.node_count)
        for nid in self.byzantine.node_ids:
            if nid not in all_ids:
                raise ConfigError(f"byzantine.node_ids: {nid} outside 0..{self.node_count - 1}")
        budget = committee_fault_budget(self.node_count)
        if len(self.byzantine.node_ids) > budget:
            raise ConfigError(
                f"byzantine.node_ids: {len(self.byzantine.node_ids)} faulty nodes exceed "
                f"floor((n-1)/3) = {budget}"
            )
        # PBFT keeps one fixed replica group: it has no join/exit flow.
        if self.protocol == "pbft" and self.exits:
            raise ConfigError("exits: membership changes are EBRC-only; pbft has a fixed group")
        if self.protocol == "pbft" and self.replace_faulty:
            raise ConfigError("replace_faulty: membership changes are EBRC-only; pbft has a fixed group")
        for i, script in enumerate(self.exits):
            script.validate(f"exits[{i}]", self.epochs * self.rounds_per_epoch)
            if script.node_id not in all_ids:
                raise ConfigError(f"exits[{i}].node_id: {script.node_id} unknown")
        # The client follows the nodes in the id space, and a partition may
        # cut either off.
        for i, (_, _, ids) in enumerate(self.network.partitions):
            for nid in ids:
                if not 0 <= nid <= self.node_count:
                    raise ConfigError(
                        f"network.partitions[{i}]: {nid} outside 0..{self.node_count} "
                        "(nodes, then the client)"
                    )

    # -- serialization --

    def to_dict(self) -> Dict[str, Any]:
        return _to_json(self)


def _to_json(value: Any) -> Any:
    """JSON form of a schema value: dataclasses become objects with one key
    per field and tuples become lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    return value


@functools.cache
def _field_types(cls: type) -> Dict[str, Any]:
    # Resolving the string annotations costs far more than a parse, so once
    # per class.
    return typing.get_type_hints(cls)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _parse(kind: Any, value: Any, path: str) -> Any:
    """Read ``value`` as the annotated type ``kind``; ConfigError names ``path``."""
    if dataclasses.is_dataclass(kind):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path or 'scenario'}: expected an object")
        fields = dataclasses.fields(kind)
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"{_join(path or 'scenario', unknown[0])}: unknown field")
        types = _field_types(kind)
        kwargs = {}
        for f in fields:
            if f.name in value:
                kwargs[f.name] = _parse(types[f.name], value[f.name], _join(path, f.name))
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{_join(path, f.name)}: required field missing")
        return kind(**kwargs)
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)} items, got {len(value)}")
        return tuple(_parse(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected boolean, got {type(value).__name__}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected integer, got {type(value).__name__}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {type(value).__name__}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {type(value).__name__}")
        return value
    raise TypeError(f"{path}: no parser for annotation {kind!r}")


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Parse and validate a scenario; raises ConfigError with a field path.

    The keys, their types and their defaults are those of ``ScenarioConfig``
    and its nested dataclasses; an unknown key is an error, a missing one
    takes the field default.
    """
    config = _parse(ScenarioConfig, data, "")
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
