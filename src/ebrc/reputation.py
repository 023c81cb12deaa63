"""Multi-factor node reputation scoring.

Each node carries a behavior record; five normalized factors are derived from
it and aggregated into a reputation score in (0, 1]:

  margin_ratio      -- node deposit over total network deposit
  incomplete_rate   -- abandoned consensus rounds over total participations
  evil_rate         -- confirmed misbehavior reports over total participations
  activity_rate     -- latency level / 10, from the node's mean link latency
  magnitude_factor  -- h-index of processed-transaction sizes, normalized by
                       the epoch-wide maximum h-index

The weighting is 0.1/0.3/0.3/0.2/0.1. The two fault rates enter only
through their complements (1 - rate), so more misbehavior always lowers the
score. A per-epoch growth rate tracks the geometric-mean change of the score
since the node joined.

Every node starts with the same deposit, so deposit shares are equal at
genesis; a DepositSlash alongside a confirmed report is what moves them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Sequence, Union

# === CONSTANTS ===

#: Reputation scores are clamped into (REPUTATION_FLOOR, 1.0].
REPUTATION_FLOOR = 1e-6

#: Score and growth rate assigned to a node that has just joined.
INITIAL_REPUTATION = 0.5
INITIAL_GROWTH_RATE = 0.5

#: Share of the deposit a DepositSlash removes, alongside a confirmed
#: misbehavior report.
SLASH_FRACTION = 0.10

LATENCY_LEVELS = (2, 4, 6, 8, 10)

#: Aggregation weights of the five factors, in FactorVector order; they sum
#: to 1.
WEIGHTS = (0.1, 0.3, 0.3, 0.2, 0.1)


@dataclass(frozen=True, slots=True)
class FactorVector:
    """Normalized reputation factors for one node at one evaluation point."""

    margin_ratio: float
    incomplete_rate: float
    evil_rate: float
    activity_rate: float
    magnitude_factor: float


@dataclass(slots=True)
class BehaviorRecord:
    """Ledgered behavior of one node, the sole input to its reputation.

    ``reputation_history`` and ``growth_history`` start seeded with the
    join-time values and gain one entry per table update; the last entry of
    each is the node's current score and growth rate.
    """

    node_id: int
    deposit: float
    consensus_participations: int = 0
    incomplete_count: int = 0
    reported_evil_count: int = 0
    latency_level: int = 10
    tx_size_history: List[int] = field(default_factory=list)
    reputation_history: List[float] = field(default_factory=lambda: [INITIAL_REPUTATION])
    growth_history: List[float] = field(default_factory=lambda: [INITIAL_GROWTH_RATE])

    def __post_init__(self) -> None:
        if self.deposit < 0:
            raise ValueError(f"node {self.node_id}: deposit must be >= 0")
        if self.latency_level not in LATENCY_LEVELS:
            raise ValueError(f"node {self.node_id}: invalid latency level {self.latency_level}")
        if self.incomplete_count > self.consensus_participations:
            raise ValueError(f"node {self.node_id}: incomplete_count exceeds participations")
        if self.reported_evil_count > self.consensus_participations:
            raise ValueError(f"node {self.node_id}: reported_evil_count exceeds participations")

    @property
    def reputation(self) -> float:
        return self.reputation_history[-1]

    def copy(self) -> "BehaviorRecord":
        return replace(
            self,
            tx_size_history=list(self.tx_size_history),
            reputation_history=list(self.reputation_history),
            growth_history=list(self.growth_history),
        )


BehaviorTable = Dict[int, BehaviorRecord]


def new_record(node_id: int, deposit: float) -> BehaviorRecord:
    """Fresh record with join-time reputation and growth rate of 0.5 each."""
    return BehaviorRecord(node_id=node_id, deposit=deposit)


# === LATENCY LEVEL ===
# A node's mean link latency maps onto a discrete level; higher is better.

def latency_level_for(mean_latency_ms: float) -> int:
    """Level for the node's mean link latency in milliseconds."""
    if mean_latency_ms < 0:
        raise ValueError("latency must be >= 0")
    if mean_latency_ms <= 30:
        return 10
    if mean_latency_ms <= 50:
        return 8
    if mean_latency_ms <= 80:
        return 6
    if mean_latency_ms <= 100:
        return 4
    return 2


# === SCORING ===

def h_index(tx_size_history: Sequence[int]) -> int:
    """Largest j such that at least j entries are >= j; 0 for an empty list."""
    ordered = sorted(tx_size_history, reverse=True)
    h = 0
    for rank, size in enumerate(ordered, start=1):
        if size >= rank:
            h = rank
        else:
            break
    return h


def compute_factors(
    record: BehaviorRecord,
    total_deposit: float,
    epoch_max_hindex: int,
) -> FactorVector:
    """Derive the five normalized factors from a behavior record.

    ``total_deposit`` is the current network-wide deposit sum;
    ``epoch_max_hindex`` is the largest transaction-magnitude h-index held by
    any node this epoch (the normalization base for magnitude_factor).
    """
    if total_deposit < 0 or epoch_max_hindex < 0:
        raise ValueError("normalization bases must be >= 0")
    margin = record.deposit / total_deposit if total_deposit > 0 else 0.0
    participations = max(1, record.consensus_participations)
    incomplete = record.incomplete_count / participations
    evil = record.reported_evil_count / participations
    activity = record.latency_level / 10
    magnitude = h_index(record.tx_size_history) / max(1, epoch_max_hindex)
    return FactorVector(margin, incomplete, evil, activity, magnitude)


def compute_reputation(factors: FactorVector) -> float:
    """Aggregate of the factor vector under WEIGHTS, clamped into (0, 1].

    The incomplete and evil rates contribute through (1 - rate), so
    misbehavior strictly lowers the score.
    """
    w_margin, w_incomplete, w_evil, w_activity, w_magnitude = WEIGHTS
    # fsum keeps a perfect all-ones vector at exactly 1.0; naive summation of
    # the weights drifts one ulp below.
    score = math.fsum(
        (
            w_margin * factors.margin_ratio,
            w_incomplete * (1.0 - factors.incomplete_rate),
            w_evil * (1.0 - factors.evil_rate),
            w_activity * factors.activity_rate,
            w_magnitude * factors.magnitude_factor,
        )
    )
    return min(1.0, max(REPUTATION_FLOOR, score))


def compute_growth_rate(r_now: float, r_then: float, rounds_elapsed: int) -> float:
    """Per-round geometric growth of the score across ``rounds_elapsed`` rounds.

    Defined as (r_now / r_then) ** (1 / (rounds_elapsed - 1)) - 1. Fewer than
    two rounds of history means the node is new, which yields the
    initialization growth rate. Negative growth is meaningful and preserved.
    """
    if rounds_elapsed < 2:
        return INITIAL_GROWTH_RATE
    if not (0.0 < r_then <= 1.0) or not (0.0 < r_now <= 1.0):
        raise ValueError("reputation inputs must lie in (0, 1]")
    return (r_now / r_then) ** (1.0 / (rounds_elapsed - 1)) - 1.0


# === BEHAVIOR EVENTS ===

@dataclass(frozen=True, slots=True)
class Participation:
    node_id: int


@dataclass(frozen=True, slots=True)
class Incompletion:
    """Round the node joined but failed to complete (also counts participation)."""

    node_id: int


@dataclass(frozen=True, slots=True)
class ConfirmedReport:
    """Misbehavior report that reached the confirmation threshold."""

    node_id: int


@dataclass(frozen=True, slots=True)
class DepositSlash:
    """Removes SLASH_FRACTION of the node's deposit."""

    node_id: int


@dataclass(frozen=True, slots=True)
class TransactionsProcessed:
    node_id: int
    count: int


@dataclass(frozen=True, slots=True)
class ActivitySample:
    """A node's mean link latency over the observation window."""

    node_id: int
    mean_latency_ms: float


BehaviorEvent = Union[
    Participation,
    Incompletion,
    ConfirmedReport,
    DepositSlash,
    TransactionsProcessed,
    ActivitySample,
]


def update_behavior_table(
    table: BehaviorTable,
    events: Iterable[BehaviorEvent],
) -> BehaviorTable:
    """Apply one epoch's events and recompute every node's score and growth.

    Pure: the input table is never mutated. Events naming unknown nodes are
    skipped, not raised, so one malformed report cannot poison an epoch
    update; an event whose type is not a ``BehaviorEvent`` raises
    ``TypeError``. Histories always gain exactly one entry per node.
    """
    updated: BehaviorTable = {node_id: record.copy() for node_id, record in table.items()}

    for event in events:
        record = updated.get(event.node_id)
        if record is None:
            continue
        if isinstance(event, Participation):
            record.consensus_participations += 1
        elif isinstance(event, Incompletion):
            record.consensus_participations += 1
            record.incomplete_count += 1
        elif isinstance(event, ConfirmedReport):
            record.consensus_participations += 1
            record.reported_evil_count += 1
        elif isinstance(event, DepositSlash):
            record.deposit = record.deposit * (1.0 - SLASH_FRACTION)
        elif isinstance(event, TransactionsProcessed):
            record.tx_size_history.append(event.count)
        elif isinstance(event, ActivitySample):
            record.latency_level = latency_level_for(event.mean_latency_ms)
        else:
            raise TypeError(f"unknown behavior event type: {event!r}")

    total_deposit = sum(record.deposit for record in updated.values())
    epoch_max_h = max((h_index(r.tx_size_history) for r in updated.values()), default=0)

    for record in updated.values():
        factors = compute_factors(record, total_deposit, epoch_max_h)
        score = compute_reputation(factors)
        record.reputation_history.append(score)
        record.growth_history.append(
            compute_growth_rate(
                score, record.reputation_history[0], len(record.reputation_history)
            )
        )
    return updated
