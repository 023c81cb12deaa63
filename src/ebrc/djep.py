"""Dynamic membership: committee exits, candidate promotion, replacement.

Pure decision helpers plus the bookkeeping state the replicas carry. The
rule throughout: a committee of size m tolerates f = (m - 1) // 3 faults, and
no removal may drop the committee below 3f + 1 (f taken before it). The floor
is enforced when a transition is applied: every removal is planned with
``plan_removal`` against the committee the joins and earlier removals leave.
An exit that needs a promotion names that candidate in its ExitCommit and
waits, pending at every member, until the candidate's join is due; a
conviction may directly promote the best candidate that no pending exit names.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .messages import ExitCommit


def committee_fault_budget(size: int) -> int:
    if size < 1:
        raise ValueError("committee cannot be empty")
    return (size - 1) // 3


def exit_preserves_floor(size: int, f: int) -> bool:
    """True when one departure keeps the committee at 3f+1 or better."""
    return size - 1 >= 3 * f + 1


def promotion_candidate(candidates: Sequence[int], reputation: Dict[int, float]) -> Optional[int]:
    """Highest-reputation candidate; ties break toward the lower node id."""
    if not candidates:
        return None
    return min(candidates, key=lambda n: (-reputation.get(n, 0.0), n))


def committee_with_join(
    committee: Sequence[int], reputation: Dict[int, float], joiner: int
) -> Tuple[int, ...]:
    """Insert the joiner at its reputation rank (descending, id ascending)."""
    keyed = [((-reputation.get(n, 0.0), n), n) for n in committee]
    insort(keyed, ((-reputation.get(joiner, 0.0), joiner), joiner))
    return tuple(n for _, n in keyed)


def committee_without(committee: Sequence[int], leaver: int) -> Tuple[int, ...]:
    return tuple(n for n in committee if n != leaver)


@dataclass(frozen=True, slots=True)
class RemovalPlan:
    remove: bool
    promote: Optional[int]  # candidate to bring in first, if the floor needs it
    stalled: bool  # floor would break and no candidate exists


def plan_removal(
    *,
    committee: Sequence[int],
    f: int,
    candidates: Sequence[int],
    reputation: Dict[int, float],
    leaver: int,
) -> RemovalPlan:
    """Decide how a member leaves, by its own exit or by a conviction.

    The removal proceeds directly if the floor survives; otherwise the best
    candidate is promoted in the same transition. With no candidate the
    removal is held (stalled) rather than sacrificing the fault budget. A
    node outside the committee has nothing to leave.
    """
    if leaver not in committee:
        return RemovalPlan(remove=False, promote=None, stalled=False)
    if exit_preserves_floor(len(committee), f):
        return RemovalPlan(remove=True, promote=None, stalled=False)
    candidate = promotion_candidate(candidates, reputation)
    if candidate is None:
        return RemovalPlan(remove=False, promote=None, stalled=True)
    return RemovalPlan(remove=True, promote=candidate, stalled=False)


@dataclass(slots=True)
class MembershipState:
    """Per-replica record of in-flight membership transitions.

    A member holds each exit's ExitCommit; a candidate holds its own join:
    the members that confirmed it and, once 2f+1 have, its height. The round
    orchestrator applies both once the chain reaches that height, so every
    honest replica switches committees on the same round boundary.
    """

    pending_exits: Dict[int, ExitCommit] = field(default_factory=dict)  # leaver -> commit
    join_confirms: Set[int] = field(default_factory=set)
    join_height: Optional[int] = None

    def due_exits(self, height: int) -> List[int]:
        return sorted(
            n for n, c in self.pending_exits.items() if c.request.effective_height <= height
        )

    def join_due(self, height: int) -> bool:
        """Whether this candidate's confirmed join is due at ``height``."""
        return self.join_height is not None and self.join_height <= height

    def invited(self) -> Set[int]:
        """The candidates the pending exits wait on."""
        return {c for commit in self.pending_exits.values() for c in commit.candidate}

    def clear_applied(self, nodes: Sequence[int]) -> None:
        for n in nodes:
            self.pending_exits.pop(n, None)
