"""Committee election: reputation gating plus verifiable random sortition.

``eligible_nodes`` ranks an epoch's behavior table once: the double gate
keeps the nodes in the top slice by reputation AND by growth rate, by
descending reputation. ``form_committee`` draws each seed over that ranking:
eligible nodes self-select when their VRF value / 2**256 <= omega, and the
verified selectees, in rank order, are split into consensus nodes, candidate
consensus nodes, and inactive spares. Rank ties always break toward the
lower node id so the whole pipeline is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Set, Tuple

from .crypto import KeyRegistry, SimulatedVrf, derive_seed, frame, sortition_threshold
from .djep import committee_fault_budget
from .reputation import BehaviorTable

#: Elections are retried with a re-derived seed at most this many times.
MAX_ELECTION_RETRIES = 16

MIN_COMMITTEE = 4


class ElectionFailed(Exception):
    """Raised when too few verified selectees exist to form a committee."""


@dataclass(frozen=True, slots=True)
class CommitteeAssignment:
    """Result of one election: three disjoint groups of verified selectees.

    ``consensus_nodes`` is ordered by descending reputation (ties by node id);
    master selection (``consensus.select_master``) indexes into this order.
    ``f``, floor((m-1)/3) of the consensus-node count m, is computed, not
    stored.
    """

    consensus_nodes: Tuple[int, ...]
    candidates: Tuple[int, ...]
    spares: Tuple[int, ...]

    @property
    def f(self) -> int:
        return committee_fault_budget(len(self.consensus_nodes))

    def validate(self) -> None:
        if len(self.consensus_nodes) < MIN_COMMITTEE:
            raise ValueError("consensus-node set smaller than the minimum committee")
        groups = (set(self.consensus_nodes), set(self.candidates), set(self.spares))
        if sum(len(g) for g in groups) != len(set().union(*groups)):
            raise ValueError("committee partitions overlap")


def _cutoff(count: int, percentile: float) -> int:
    # Epsilon guards against float artifacts like 0.85 * 20 = 16.999...
    return int(math.floor(count * percentile + 1e-9))


def eligible_nodes(table: BehaviorTable, eligibility_percentile: float) -> List[int]:
    """Ids in the top slice of BOTH rankings, by descending reputation.

    Each slice is cut by value, not by rank, so nodes tied with the keep-th
    value are all admitted: with identical scores a rank cut would exclude
    nodes purely by id, which no protocol rule justifies.
    """
    keep = _cutoff(len(table), eligibility_percentile)
    if keep <= 0:
        return []
    ranked = sorted(
        (-record.reputation_history[-1], node_id, record.growth_history[-1])
        for node_id, record in table.items()
    )
    reputation_cut = ranked[keep - 1][0]
    growth_cut = sorted((row[2] for row in ranked), reverse=True)[keep - 1]
    return [
        node_id
        for negated, node_id, growth in ranked
        if negated <= reputation_cut and growth >= growth_cut
    ]


def form_committee(
    eligible: List[int],
    seed: bytes,
    registry: KeyRegistry,
    *,
    omega: float,
    eligibility_percentile: float,
    consensus_percentile: float,
    corrupt_proofs: Set[int] = frozenset(),
) -> Tuple[CommitteeAssignment, List[Tuple[int, str]]]:
    """Run one election and return (assignment, misbehavior reports).

    Each node of ``eligible`` (``eligible_nodes`` at the same
    ``eligibility_percentile``), in rank order, draws a VRF value on
    ``seed`` and self-selects when it falls below ``omega`` of the VRF range;
    only a selectee makes a proof. The seed is framed once and each draw
    copies a state of the node's registered key pair. Reports are in id order.
    Draws are re-verified through the registry; selectees whose proofs fail
    verification are excluded and reported (``corrupt_proofs`` is the
    simulation hook that mangles specific nodes' proofs). Raises
    ElectionFailed when fewer than MIN_COMMITTEE verified selectees remain;
    the caller retries with a re-derived seed. A setting out of range raises
    ValueError.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must lie in (0, 1]")
    if not 0.0 < consensus_percentile <= eligibility_percentile <= 1.0:
        raise ValueError("need 0 < consensus_percentile <= eligibility_percentile <= 1")
    vrf = SimulatedVrf(registry)

    if len(eligible) < MIN_COMMITTEE:
        raise ElectionFailed(
            f"only {len(eligible)} eligible nodes; need at least {MIN_COMMITTEE}"
        )

    threshold = sortition_threshold(omega)
    framed = frame(seed)
    draw = vrf.draw
    reports: List[Tuple[int, str]] = []
    verified: List[int] = []
    for node_id in eligible:
        pair = registry.key_pair(node_id)
        value = draw(pair.value_state, framed)
        if value > threshold:
            continue
        proof = draw(pair.proof_state, framed)
        if node_id in corrupt_proofs:
            proof = bytes([proof[0] ^ 0xFF]) + proof[1:]
        ok, verified_value = vrf.verify(pair.public_key, seed, proof)
        if not ok or verified_value != int.from_bytes(value, "big"):
            reports.append((node_id, "invalid-sortition-proof"))
            continue
        verified.append(node_id)

    if len(verified) < MIN_COMMITTEE:
        raise ElectionFailed(
            f"{len(verified)} verified selectees; need at least {MIN_COMMITTEE}"
        )

    reports.sort()
    n_sel = len(verified)
    # The consensus slice is floored at 4 members: master selection and the
    # 2f+1 quorum rule presuppose a real committee.
    n_cons = min(n_sel, max(MIN_COMMITTEE, _cutoff(n_sel, consensus_percentile)))
    n_elig = max(n_cons, _cutoff(n_sel, eligibility_percentile))

    assignment = CommitteeAssignment(
        consensus_nodes=tuple(verified[:n_cons]),
        candidates=tuple(verified[n_cons:n_elig]),
        spares=tuple(verified[n_elig:]),
    )
    assignment.validate()
    return assignment, reports


def elect_committee(
    eligible: List[int],
    seed: bytes,
    registry: KeyRegistry,
    **options,
) -> Tuple[CommitteeAssignment, List[Tuple[int, str]], bytes]:
    """Run ``form_committee`` on one ranking, re-deriving the seed after each ElectionFailed.

    Returns (assignment, misbehavior reports, the seed that succeeded).
    ``options`` (the election settings and ``corrupt_proofs``) go to
    ``form_committee`` unchanged. The last ElectionFailed propagates after
    MAX_ELECTION_RETRIES + 1 failures.
    """
    retries = 0
    while True:
        try:
            assignment, reports = form_committee(eligible, seed, registry, **options)
            return assignment, reports, seed
        except ElectionFailed:
            retries += 1
            if retries > MAX_ELECTION_RETRIES:
                raise
            seed = derive_seed(seed)
