"""Shipped scenario presets and the builders that generate them.

The JSON files in this directory are canonical, loadable through the CLI
(``ebrc run --scenario $(python -c "import ebrc.presets as p; print(p.path('safety_silent_m4'))")``).
The builder functions produce the same configurations programmatically for
sweeps (different seeds, node counts) without duplicating files.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import List, Tuple

from ..config import ByzantineConfig, ExitScript, ScenarioConfig, load_scenario
from ..djep import committee_fault_budget

SAFETY_COMMITTEE_SIZES = (4, 7, 10, 13)
SAFETY_BEHAVIORS = ("silent", "equivocate", "corrupt_digest")
SWEEP_NODE_COUNTS = (4, 7, 10, 13, 19, 25, 31)


def safety_preset(committee_size: int, behavior: str, seed: int = 1) -> ScenarioConfig:
    """Full-membership committee with the maximum tolerated Byzantine count.

    omega/eligibility/consensus are all 1.0 so the committee is the whole
    network and the faulty nodes cannot dodge election; two epochs exercise
    the reputation update and re-election path.
    """
    f = committee_fault_budget(committee_size)
    byz = tuple(range(committee_size - f, committee_size))
    return ScenarioConfig(
        name=f"safety_{behavior}_m{committee_size}",
        node_count=committee_size,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=1.0,
        epochs=2,
        rounds_per_epoch=3,
        block_tx_cap=3,
        load=3,
        byzantine=ByzantineConfig(node_ids=byz, behavior=behavior),
    )


def election_corrupt_proof_preset(seed: int = 1) -> ScenarioConfig:
    """A node that mangles its sortition proof every epoch.

    It is excluded from the committee, reported, and slashed at each
    election; 5 verified selectees remain, enough for a committee of 4 plus
    one candidate.
    """
    return ScenarioConfig(
        name="election_corrupt_proof_n6",
        node_count=6,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=0.8,
        epochs=2,
        rounds_per_epoch=3,
        block_tx_cap=3,
        load=3,
        byzantine=ByzantineConfig(node_ids=(5,), behavior="corrupt_proof"),
    )


def churn_exit_preset(seed: int = 1) -> ScenarioConfig:
    """Mid-epoch exit with the quorum floor preserved (11 -> 10 members)."""
    return ScenarioConfig(
        name="churn_exit_m11",
        node_count=11,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=1.0,
        epochs=2,
        rounds_per_epoch=4,
        block_tx_cap=3,
        load=3,
        exits=(ExitScript(round_index=1, node_id=7),),
    )


def churn_join_preset(seed: int = 1) -> ScenarioConfig:
    """Exit that would break the floor, forcing a candidate promotion.

    8 nodes, committee 7 (f=2): losing a member leaves 6 < 3f+1 = 7, so the
    standby candidate (node 7) is invited and both transitions land on the
    same block boundary.
    """
    return ScenarioConfig(
        name="churn_join_m7",
        node_count=8,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=0.875,
        epochs=2,
        rounds_per_epoch=4,
        block_tx_cap=3,
        load=3,
        exits=(ExitScript(round_index=1, node_id=4),),
    )


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


def djep_exit_preset(seed: int = 1) -> ScenarioConfig:
    """Exit from a 26-member committee (floor preserved: 25 = 3f+1, f=8)."""
    return ScenarioConfig(
        name="djep_exit_m26",
        node_count=26,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=1.0,
        rounds_per_epoch=4,
        block_tx_cap=3,
        load=3,
        exits=(ExitScript(round_index=1, node_id=10),),
    )


def djep_join_preset(seed: int = 1) -> ScenarioConfig:
    """Exit from a 25-member committee (f=8) that must promote a candidate:
    24 < 3f+1 = 25, so node 25 is invited before the exit finalizes."""
    return ScenarioConfig(
        name="djep_join_m25",
        node_count=26,
        seed=seed,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=25.0 / 26.0,
        rounds_per_epoch=4,
        block_tx_cap=3,
        load=3,
        exits=(ExitScript(round_index=1, node_id=10),),
    )


def pbft_viewchange_preset(node_count: int = 26, seed: int = 1) -> ScenarioConfig:
    """A silent primary forcing one full view change, for message counting."""
    return ScenarioConfig(
        name=f"pbft_viewchange_n{node_count}",
        protocol="pbft",
        node_count=node_count,
        seed=seed,
        rounds_per_epoch=1,
        block_tx_cap=3,
        load=3,
        byzantine=ByzantineConfig(node_ids=(0,), behavior="silent"),
    )


def all_safety_presets(seed: int = 1) -> List[ScenarioConfig]:
    configs = [
        safety_preset(m, behavior, seed)
        for m in SAFETY_COMMITTEE_SIZES
        for behavior in SAFETY_BEHAVIORS
    ]
    configs.append(election_corrupt_proof_preset(seed))
    configs.append(churn_exit_preset(seed))
    configs.append(churn_join_preset(seed))
    return configs


def _data_dir() -> Path:
    return Path(str(resources.files(__package__)))


def names() -> List[str]:
    return sorted(p.stem for p in _data_dir().glob("*.json"))


def path(name: str) -> Path:
    candidate = _data_dir() / f"{name}.json"
    if not candidate.exists():
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(names())}")
    return candidate


def load(name: str) -> ScenarioConfig:
    return load_scenario(str(path(name)))
