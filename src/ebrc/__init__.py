"""Deterministic simulation of a reputation-gated committee consensus
protocol (EBRC) alongside a classic three-phase PBFT baseline.

Layers, bottom up:

- ``crypto``: hash-based simulated signatures and a verifiable random
  function with deterministic, seed-stable outputs.
- ``messages``: the wire messages, all signed by one rule: the class name
  and every field but ``signature``, in field order.
- ``reputation``: weighted behavior scoring (deposit share, incomplete
  rate, evil rate, latency-only activity, transaction-size h-index; the two
  fault rates enter only through their complements) and its update rules.
- ``election``: reputation-gated sortition that splits winners into a
  consensus committee and a standby candidate band.
- ``consensus``: the two-phase committee replica and the three-phase PBFT
  baseline replica, both driven by the same event-loop interface.
- ``djep``: pure helpers of the dynamic join/exit protocol (the 3f+1
  floor, removal planning, candidate promotion) and the membership state
  each replica carries.
- ``simnet``: discrete-event network with latency, jitter, drops,
  partitions, a per-send latency factor, and a full message trace.
- ``config``: the scenario schema, its JSON round-trip and validation.
  Knobs that no scenario varies are constants of the modules that use them.
- ``presets``: the shipped scenario files, each the only copy of its
  preset, and the builders of the paired scenarios a sweep varies by size.
- ``runner``: scenario orchestration (epochs, rounds, load injection,
  elections, membership churn, the rewrite of a faulty node's sends)
  producing a structured result, and the genesis behavior table.
- ``harness``: metrics, reports and their text forms, protocol comparison,
  fairness studies; ``cli`` exposes it as the ``ebrc`` command and writes
  the files.
"""

from .config import (
    ByzantineConfig,
    ConfigError,
    ExitScript,
    NetworkConfig,
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
