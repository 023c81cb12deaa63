"""Deterministic simulation of a reputation-gated committee consensus
protocol (EBRC) alongside a classic three-phase PBFT baseline.

Layers, bottom up:

- ``crypto``: hash-based simulated signatures and a verifiable random
  function with deterministic, seed-stable outputs.
- ``messages``: the wire messages, all signed by one rule: the class name
  and every field but ``signature``, in field order.
- ``reputation``: weighted behavior scoring (offline rate, evil rate,
  transaction h-index, latency, deposit, join age) and its update rules.
- ``election``: reputation-gated sortition that splits winners into a
  consensus committee and a standby candidate band.
- ``consensus``: the two-phase committee replica and the three-phase PBFT
  baseline replica, both driven by the same event-loop interface.
- ``djep``: the dynamic join/exit protocol state machine used by committee
  members to leave and candidates to be promoted without a re-election.
- ``simnet``: discrete-event network with latency, jitter, drops,
  partitions, Byzantine transforms, and a full message trace.
- ``config``: the scenario schema, its JSON round-trip and validation.
- ``presets``: shipped scenario files and builders for sweeps.
- ``runner``: scenario orchestration (epochs, rounds, load injection,
  elections, membership churn) producing a structured result.
- ``harness``: metrics, reports, protocol comparison, fairness studies,
  and file output; ``cli`` exposes it as the ``ebrc`` command.
"""

from .config import (
    ByzantineConfig,
    ConfigError,
    ExitScript,
    NetworkConfig,
    PoisonConfig,
    ReputationWeights,
    ScenarioConfig,
    load_scenario,
    save_scenario,
)
from .harness import (
    MetricsReport,
    compare_reports,
    empty_committee_probability,
    fairness_experiment,
    fairness_stats,
    run_scenario,
    run_scenario_with_result,
)
from .runner import RunResult, ScenarioRunner

__all__ = [
    "ByzantineConfig",
    "ConfigError",
    "ExitScript",
    "NetworkConfig",
    "PoisonConfig",
    "ReputationWeights",
    "ScenarioConfig",
    "load_scenario",
    "save_scenario",
    "MetricsReport",
    "compare_reports",
    "empty_committee_probability",
    "fairness_experiment",
    "fairness_stats",
    "run_scenario",
    "run_scenario_with_result",
    "RunResult",
    "ScenarioRunner",
]

__version__ = "0.1.0"
