"""Shipped scenario presets, and builders for the scenarios a sweep varies.

Each JSON file in this directory is a scenario, loadable through the CLI
(``ebrc run --scenario $(python -c "import ebrc.presets as p; print(p.path('safety_silent_m4'))")``).
A file is the only statement of its preset: the functions below that return
a fixed preset load its file and swap in the seed. Only ``law_pair`` and
``comparison_pair``, which take a node count, build their scenarios.

What each family exercises:

- ``safety_{silent,equivocate,corrupt_digest}_m{4,7,10,13}``: the whole
  network is the committee (omega and both percentiles 1.0), so its
  floor((m-1)/3) faulty nodes cannot dodge election; two epochs run the
  reputation update and re-election.
- ``election_corrupt_proof_n6``: a node mangles its sortition proof, and is
  excluded, reported and slashed at each election.
- ``churn_exit_m11`` and ``djep_exit_m26``: an exit that keeps the 3f+1 floor.
- ``churn_join_m7`` and ``djep_join_m25``: an exit that would break the
  floor, so the standby candidate is invited and joins on the same block.
- ``churn_promote_m7``: ``churn_join_m7`` with a second candidate and an
  equivocating member under ``replace_faulty``; its conviction promotes
  candidate 8 while the exit waits on candidate 7.
- ``pbft_viewchange_n26``: a silent primary forces one full view change.
- ``law_*_n4`` and ``compare_byz_*_n10``: what ``law_pair(4)`` and
  ``comparison_pair(10, byzantine=True)`` build.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Tuple

from ..config import ByzantineConfig, ScenarioConfig, load_scenario
from ..djep import committee_fault_budget

SAFETY_COMMITTEE_SIZES = (4, 7, 10, 13)
SAFETY_BEHAVIORS = ("silent", "equivocate", "corrupt_digest")
SWEEP_NODE_COUNTS = (4, 7, 10, 13, 19, 25, 31)

_DATA_DIR = Path(__file__).parent

# The safety and churn presets a safety batch runs, in its order.
SAFETY_PRESETS = tuple(
    f"safety_{behavior}_m{m}" for m in SAFETY_COMMITTEE_SIZES for behavior in SAFETY_BEHAVIORS
) + ("election_corrupt_proof_n6", "churn_exit_m11", "churn_join_m7")


def _seeded(name: str, seed: int) -> ScenarioConfig:
    return dataclasses.replace(load(name), seed=seed)


def safety_preset(committee_size: int, behavior: str, seed: int = 1) -> ScenarioConfig:
    """``safety_silent_m{committee_size}`` with its floor((m-1)/3) faulty
    nodes set to ``behavior``, which may be one with no file (``lazy``)."""
    config = load(f"safety_silent_m{committee_size}")
    return dataclasses.replace(
        config,
        name=f"safety_{behavior}_m{committee_size}",
        seed=seed,
        byzantine=dataclasses.replace(config.byzantine, behavior=behavior),
    )


def churn_exit_preset(seed: int = 1) -> ScenarioConfig:
    return _seeded("churn_exit_m11", seed)


def djep_exit_preset(seed: int = 1) -> ScenarioConfig:
    return _seeded("djep_exit_m26", seed)


def djep_join_preset(seed: int = 1) -> ScenarioConfig:
    return _seeded("djep_join_m25", seed)


def pbft_viewchange_preset(seed: int = 1) -> ScenarioConfig:
    return _seeded("pbft_viewchange_n26", seed)


def all_safety_presets(seed: int = 1) -> List[ScenarioConfig]:
    return [_seeded(name, seed) for name in SAFETY_PRESETS]


def law_pair(node_count: int, seed: int = 1) -> Tuple[ScenarioConfig, ScenarioConfig]:
    """Fault-free single-round pair for exact per-tag message counting."""
    common = dict(
        node_count=node_count,
        seed=seed,
        rounds_per_epoch=1,
        block_tx_cap=3,
        load=3,
    )
    ebrc = ScenarioConfig(
        name=f"law_ebrc_n{node_count}",
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=1.0,
        **common,
    )
    pbft = ScenarioConfig(name=f"law_pbft_n{node_count}", protocol="pbft", **common)
    return ebrc, pbft


def comparison_pair(
    node_count: int, *, byzantine: bool, seed: int = 1, rounds: int = 5
) -> Tuple[ScenarioConfig, ScenarioConfig]:
    """Paired throughput/latency scenarios sharing one seed.

    The committee is the top half of the network (minimum 4); with silent
    faults enabled, the floor((n-1)/3) Byzantine nodes sit outside the
    committee at n >= 7 (demoted by the election at equal reputation their
    ids rank last), while the PBFT baseline necessarily keeps them in its
    replica group. At n = 4 everyone serves; node 2 is faulty there because
    the round-robin master rotation lands only on odd committee indices
    within an epoch, keeping liveness unaffected for a like-for-like
    throughput measurement.
    """
    f = committee_fault_budget(node_count)
    if byzantine:
        byz = (2,) if node_count == 4 else tuple(range(node_count - f, node_count))
        byz_config = ByzantineConfig(node_ids=byz, behavior="silent")
    else:
        byz_config = ByzantineConfig()
    tag = "byz" if byzantine else "clean"
    common = dict(
        node_count=node_count,
        seed=seed,
        rounds_per_epoch=rounds,
        block_tx_cap=5,
        load=5,
        byzantine=byz_config,
    )
    ebrc = ScenarioConfig(
        name=f"compare_{tag}_ebrc_n{node_count}",
        omega=1.0,
        eligibility_percentile=1.0,
        **common,
    )
    pbft = ScenarioConfig(name=f"compare_{tag}_pbft_n{node_count}", protocol="pbft", **common)
    return ebrc, pbft


def names() -> List[str]:
    return sorted(p.stem for p in _DATA_DIR.glob("*.json"))


def path(name: str) -> Path:
    candidate = _DATA_DIR / f"{name}.json"
    if not candidate.exists():
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(names())}")
    return candidate


def load(name: str) -> ScenarioConfig:
    return load_scenario(path(name))
