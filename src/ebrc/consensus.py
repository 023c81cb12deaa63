"""Replica state machines: the two-phase committee protocol (EBRC) and the
three-phase PBFT baseline.

Both replicas are deterministic event-driven state machines: ``step(now,
event)`` consumes one delivered message or timer tick and returns a
``StepResult``: the sends to make plus the timers to arm. Each send is one
``(targets, message)`` entry, so a broadcast is one entry whose targets are the
committee minus this node, in committee order, and a message to one node is
``((target,), message)``. Nothing here is random or faulty: latency and
jitter live in the network (``simnet``), and a Byzantine node runs this same
code while the runner rewrites its sends (``runner.byzantine_sends``).

Both run on one core, ``_ReplicaBase``: request intake and timer arming, the
leader's proposal, the vote path (sign, count and broadcast a node's own
vote; admit, count and tally a peer's), the quorum commit and the advance to
the next height, the 2f+1 ViewChange adoption with its f+1 straggler join,
and round-end announce adoption. A protocol states its voting group, who
votes, the leader of a (height, view), whether the view advances with every
block and which votes it builds. On top of that, EBRC adds a Report against
an invalid proposal and the DJEP exit/join flows; PBFT adds its prepare phase
and the prepared certificate. In DJEP the master answers an exit request at
once with an ExitCommit to every member, naming the candidate a ChangeNotice
invites when the floor needs one; the candidate alone counts the members'
confirmations of its join.

Quorum bookkeeping is keyed per view and keeps the signed votes, and a
committed ``Block`` carries its quorum's votes as its ``cert``. A vote tally
that ignored views could mix votes for the same digest across a view change
and double-commit under message loss; per-view tallies restore the standard
intersection argument (two 2f+1 quorums among 3f+1 nodes share an honest
voter, and an honest voter votes once per view).

Votes are most of what a replica handles (PBFT's prepares and commits are
all-to-all), and most complete nothing. A received vote is counted in place,
and the votes it joined decide at once whether it can: a Commit of the
current view whose digest is the view's only one, with at most 2f senders,
and a PBFT prepare of the current view for the current proposal with fewer
than 2f, return ``IDLE`` without the quorum or prepared check, which would
find nothing. Every other counted vote takes that check in full.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .crypto import ZERO_HASH, digest
from .messages import (
    BlockAnnounce,
    ChangeNotice,
    Commit,
    ExitCommit,
    ExitRequest,
    JoinCommit,
    JoinRequest,
    PbftPrepare,
    PrePrepare,
    Prepare,
    Reply,
    Report,
    Request,
    ViewChange,
    signed,
    signature_ok,
)
from . import djep

logger = logging.getLogger(__name__)

# A leader's batch window and a member's view timeout.
BATCH_WINDOW_US = 2_000
VIEW_TIMEOUT_US = 40_000


@dataclass(frozen=True, slots=True)
class TimerTick:
    """Self-addressed timer event; stale ticks are ignored by key mismatch."""

    kind: str  # "batch" or "round"
    height: int
    view: int


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    view: int
    batch_digests: Tuple[bytes, ...]
    block_digest: bytes  # commits to the parent's digest (block_digest_of)
    cert: Tuple[Commit, ...]  # in sender order; () at genesis and for an announced block

    @property
    def tx_count(self) -> int:
        return len(self.batch_digests)


def block_digest_of(previous_hash: bytes, height: int, batch_digests: Sequence[bytes]) -> bytes:
    # View and cert are deliberately excluded: honest replicas can record
    # different views and certs for the same block, and the election
    # seed chain needs a network-uniform hash.
    return digest(previous_hash, height.to_bytes(8, "big"), *batch_digests, domain=b"block")


GENESIS_BLOCK = Block(height=0, view=0, batch_digests=(), block_digest=ZERO_HASH, cert=())


class QuorumConflict(Exception):
    """Two digests reached quorum in one view: fault budget exceeded."""


def select_master(height: int, view: int, f: int) -> int:
    """Rotating master index: (height + view) mod (3f + 1)."""
    if f < 0:
        raise ValueError("f must be >= 0")
    return (height + view) % (3 * f + 1)


def check_quorum(tally: Dict[bytes, Collection[int]], f: int) -> Optional[bytes]:
    """Digest backed by >= 2f+1 distinct senders, or None.

    Raises QuorumConflict when two digests qualify simultaneously, which is
    impossible within the f fault budget and is surfaced as a safety fault.
    """
    threshold = 2 * f + 1
    winners = [d for d, senders in tally.items() if len(senders) >= threshold]
    if len(winners) > 1:
        raise QuorumConflict(f"{len(winners)} digests reached {threshold} votes")
    return winners[0] if winners else None


@lru_cache(maxsize=16)
def _member_set(committee: Tuple[int, ...]) -> FrozenSet[int]:
    """The committee as a set, for O(1) membership tests. Every replica is
    handed an equal committee, so they all share one set."""
    return frozenset(committee)


def tx_digest(payload: bytes) -> bytes:
    return digest(payload, domain=b"tx")


def canonical_batch(buffer: Dict[bytes, Request], cap: int) -> Tuple[Request, ...]:
    """Deterministic batch assembly: sort by (timestamp, client, digest), cap.

    Determinism here is what lets a post-view-change master reproduce the
    previous proposal from its own buffer.
    """
    ordered = sorted(buffer.values(), key=lambda r: (r.timestamp, r.client_id, r.digest))
    return tuple(ordered[:cap])


def batch_digest_of(batch: Sequence[Request]) -> bytes:
    return digest(*[r.digest for r in batch], domain=b"batch")


Send = Tuple[Tuple[int, ...], object]  # (targets, message)


class StepResult:
    """What one step asks of the runner, in order: ``sends`` holds one
    ``(targets, message)`` entry per send, ``timers`` one ``(delay_us, tick)``
    entry per timer to arm."""

    __slots__ = ("sends", "timers")

    def __init__(self) -> None:
        self.sends: List[Send] = []
        self.timers: List[Tuple[int, TimerTick]] = []


# What a step that asks nothing returns: one shared result, whose empty
# tuples cannot be appended to. Most steps are votes that complete nothing.
IDLE = StepResult()
IDLE.sends = IDLE.timers = ()


class _ReplicaBase:
    """The replica core both protocols share.

    A subclass states three things: its voting group (``committee``, which
    ``_install`` sets with ``is_member``, whether this node votes), the
    leader of the current (height, view) (``leader_id``) and whether the
    view advances with every block (``VIEW_PER_BLOCK``). It also names its
    proposal message (``PROPOSAL``), casts its votes on an accepted proposal
    (``_vote``) and routes messages to handlers by exact type
    (``_HANDLERS``). Every vote has one shape
    (height, view, digest, sender) and takes one path here: ``_cast`` sends
    the node's own, ``_admit`` counts every vote, the node's own or a
    peer's, and returns the sender -> vote dict it joined (None when it does
    not count), ``_on_commit`` and ``_send_commit`` serve the Commit vote both
    protocols send, and ``_commit`` makes a quorum's votes the block's cert.
    A step that asks nothing returns ``IDLE``: a vote that does not count
    or completes no quorum, a stale timer, an announce, a request that arms
    no timer, and every message a gate rejects.
    """

    PROPOSAL: type
    VIEW_PER_BLOCK: bool

    def __init__(
        self,
        node_id: int,
        registry,
        *,
        block_tx_cap: int,
    ) -> None:
        self.node_id = node_id
        self.registry = registry
        self.block_tx_cap = block_tx_cap

        self.committee: Tuple[int, ...] = ()
        self.members: FrozenSet[int] = frozenset()  # _member_set(committee)
        self.is_member = False  # whether this node votes: it is in the committee
        self.peers: Tuple[int, ...] = ()  # the committee minus this node: a broadcast's targets
        self.f = 0  # committee_fault_budget(len(committee)), set by _install
        self.height = 1  # next block height to commit; genesis occupies 0
        self.view = 0
        self.ledger: Dict[int, Block] = {0: GENESIS_BLOCK}
        self.request_buffer: Dict[bytes, Request] = {}
        self.seen_requests: Set[bytes] = set()
        # One armed watchdog/batch timer per (kind, view) of the current
        # height; without this, every buffered request would arm its own
        # timer and each expiry would fire a redundant view-change volley.
        self.timer_armed: Set[Tuple[str, int]] = set()
        # Observations drained by the orchestrator at round boundaries:
        # ("incompletion", node, height) / ("quorum_conflict", ...) / ...
        self.observations: List[Tuple] = []

        self.proposal = None
        self.commit_tallies: Dict[int, Dict[bytes, Dict[int, Commit]]] = {}
        # The reporters of each proposed view at the current height.
        self.viewchange_tallies: Dict[int, Set[int]] = {}

    # -- roles --

    @property
    def is_leader(self) -> bool:
        return self.is_member and self.leader_id() == self.node_id

    def _install(self, committee: Sequence[int]) -> None:
        """Set the committee and what derives from it: the member set, this
        node's membership, the peers every broadcast goes to and f."""
        self.committee = tuple(committee)
        self.members = _member_set(self.committee)
        self.is_member = self.node_id in self.members
        self.peers = tuple(peer for peer in self.committee if peer != self.node_id)
        self.f = djep.committee_fault_budget(len(self.committee))

    def _proposed(self) -> bool:
        """Whether this node has proposed in the current view."""
        proposal = self.proposal
        return proposal is not None and proposal.sender == self.node_id and proposal.view == self.view

    def _voted(self, tallies: Dict) -> bool:
        """Whether ``_cast`` has counted this node's own vote of the view."""
        by_digest = tallies.get(self.view)
        if by_digest:
            for votes in by_digest.values():
                if self.node_id in votes:
                    return True
        return False

    # -- timers --

    def _arm_once(self, result: StepResult, kind: str, delay_us: int) -> None:
        key = (kind, self.view)
        if key in self.timer_armed:
            return
        self.timer_armed.add(key)
        result.timers.append((delay_us, TimerTick(kind, self.height, self.view)))

    def _arm_for_pending(self, result: StepResult) -> None:
        """Buffered requests arm the leader's batch window, unless it has
        already proposed in this view, or every other member's watchdog."""
        if not self.is_member or not self.request_buffer:
            return
        if not self.is_leader:
            self._arm_once(result, "round", VIEW_TIMEOUT_US)
        elif not self._proposed():
            self._arm_once(result, "batch", BATCH_WINDOW_US)

    def _on_timer(self, now: int, tick: TimerTick) -> StepResult:
        if tick.height != self.height or tick.view != self.view:
            return IDLE  # stale timer
        if tick.kind == "batch":
            return self._propose()
        result = StepResult()
        self._start_view_change(self.view + 1, result)
        return result

    # -- requests and proposals --

    def _request_ok(self, request: Request) -> bool:
        """The digest matches the payload and the client signed the request.

        A broadcast request is one object at every replica, so a matching
        digest is memoized on it, as its signature is (see ``messages``).
        """
        if not getattr(request, "_digest_ok", False):
            if request.digest != tx_digest(request.payload):
                return False
            object.__setattr__(request, "_digest_ok", True)
        return signature_ok(request, self.registry, request.client_id)

    def _accept_request(self, request: Request) -> bool:
        if request.digest in self.seen_requests:
            return False
        if not self._request_ok(request):
            logger.debug("node %d: request with wrong digest or signature dropped", self.node_id)
            return False
        self.seen_requests.add(request.digest)
        self.request_buffer[request.digest] = request
        return True

    def _on_request(self, now: int, request: Request) -> StepResult:
        if self._accept_request(request):
            result = StepResult()
            self._arm_for_pending(result)
            if result.timers:
                return result
        return IDLE

    def _propose(self) -> StepResult:
        if not self.is_leader or self._proposed():
            return IDLE
        batch = canonical_batch(self.request_buffer, self.block_tx_cap)
        if not batch:
            return IDLE
        self.proposal = signed(
            self.PROPOSAL(
                height=self.height,
                view=self.view,
                batch=batch,
                digest=batch_digest_of(batch),
                sender=self.node_id,
            ),
            self.registry,
            self.node_id,
        )
        result = StepResult()
        result.sends.append((self.peers, self.proposal))
        # The leader also expects the round to finish; arm its own watchdog.
        self._arm_once(result, "round", VIEW_TIMEOUT_US)
        self._vote(result)
        return result

    def _validate_proposal_content(self, batch: Tuple[Request, ...], digest_field: bytes) -> bool:
        if not batch or len(batch) > self.block_tx_cap:
            return False
        seen: Set[bytes] = set()
        for request in batch:
            if request.digest in seen:
                return False
            seen.add(request.digest)
            if not self._request_ok(request):
                return False
        return digest_field == batch_digest_of(batch)

    def _on_proposal(self, now: int, proposal) -> StepResult:
        if (
            not self.is_member
            or proposal.height != self.height
            or proposal.view != self.view  # stale or future view: dropped silently
            or proposal.sender != self.leader_id()
            or proposal.sender == self.node_id
            or not signature_ok(proposal, self.registry, proposal.sender)
        ):
            return IDLE
        result = StepResult()
        if not self._validate_proposal_content(proposal.batch, proposal.digest):
            self._reject_proposal(proposal, result)
            return result
        self.proposal = proposal
        self._vote(result)
        return result

    def _reject_proposal(self, proposal, result: StepResult) -> None:
        """A provably bad proposal deposes its leader."""
        self._start_view_change(self.view + 1, result)

    # -- votes --

    def _cast(self, vote_type: type, tallies: Dict, result: StepResult) -> None:
        """Cast this node's one ``vote_type`` vote of the view on the current
        proposal: sign it, count it as its own and send it to every peer."""
        vote = signed(
            vote_type(
                height=self.height, view=self.view, digest=self.proposal.digest, sender=self.node_id
            ),
            self.registry,
            self.node_id,
        )
        self._admit(vote, tallies)  # a member's own vote always counts
        result.sends.append((self.peers, vote))

    def _admit(self, vote, tallies: Dict) -> Optional[Dict[int, object]]:
        """Count a vote in ``tallies`` (view -> digest -> sender -> vote) when
        this node votes, the vote is for the current height and a committee
        member signed it; return the sender -> vote dict it joined, or None
        when it does not count."""
        if not (
            self.is_member
            and vote.height == self.height
            and vote.sender in self.members
            and signature_ok(vote, self.registry, vote.sender)
        ):
            return None
        by_digest = tallies.get(vote.view)
        if by_digest is None:
            by_digest = tallies[vote.view] = {}
        votes = by_digest.get(vote.digest)
        if votes is None:
            votes = by_digest[vote.digest] = {}
        votes[vote.sender] = vote
        return votes

    def _on_commit(self, now: int, commit: Commit) -> StepResult:
        votes = self._admit(commit, self.commit_tallies)
        if votes is None:
            return IDLE
        # A vote of the current view, for the view's one digest, short of
        # 2f+1: no quorum and no conflict, so _quorum() would return None.
        if (
            len(votes) <= 2 * self.f
            and commit.view == self.view
            and len(self.commit_tallies[commit.view]) == 1
        ):
            return IDLE
        winner = self._quorum()
        if winner is None:
            return IDLE
        result = StepResult()
        self._commit(winner, result)
        return result

    def _send_commit(self, result: StepResult) -> None:
        """Cast this node's commit unless it has; commit on a quorum."""
        if not self._voted(self.commit_tallies):
            self._cast(Commit, self.commit_tallies, result)
        self._commit(self._quorum(), result)

    # -- commit and advance --

    def _next_block(self, batch_digests: Sequence[bytes], cert: Tuple[Commit, ...]) -> Block:
        # The digest covers chain position and contents only; view and
        # cert are this node's own record.
        previous = self.ledger[self.height - 1].block_digest
        return Block(
            height=self.height,
            view=self.view,
            batch_digests=tuple(batch_digests),
            block_digest=block_digest_of(previous, self.height, batch_digests),
            cert=cert,
        )

    def adopt_block(self, block: Block) -> None:
        """Append the block at the current height and move to the next one.
        The ledger holds every lower height, so nothing is overwritten."""
        if block.height != self.height:
            return
        self.ledger[block.height] = block
        for d in block.batch_digests:
            self.request_buffer.pop(d, None)
        self.height += 1

    def _reset_round(self) -> None:
        self.proposal = None
        self.commit_tallies.clear()

    def _advance(self, block: Block) -> None:
        """Adopt the block; a member also steps the view and resets the round.
        Every view-change tally and armed timer was of the old height."""
        self.adopt_block(block)
        if self.is_member:
            if self.VIEW_PER_BLOCK:
                self.view += 1
            self._reset_round()
        self.viewchange_tallies.clear()
        self.timer_armed.clear()

    def _reply(self, batch: Tuple[Request, ...], batch_digest: bytes, result: StepResult) -> None:
        """Send each client with a request in the committed batch one Reply."""
        reply = signed(Reply(digest=batch_digest, sender=self.node_id), self.registry, self.node_id)
        for client_id in sorted({r.client_id for r in batch}):
            result.sends.append(((client_id,), reply))

    def _quorum(self) -> Optional[bytes]:
        """The digest 2f+1 commits of the current view back, or None. Two such
        digests are observed as a quorum conflict, on every call that sees
        them, and neither commits."""
        tally = self.commit_tallies.get(self.view)
        if not tally:
            return None
        try:
            return check_quorum(tally, self.f)
        except QuorumConflict as exc:
            self.observations.append(("quorum_conflict", self.node_id, self.height, str(exc)))
            return None

    def _commit(self, winner: Optional[bytes], result: StepResult) -> None:
        """Commit the current proposal if ``winner``, the digest a quorum
        backs, is its digest."""
        if winner is None or self.proposal is None or self.proposal.digest != winner:
            return  # no quorum, or a quorum without the matching proposal payload
        batch = self.proposal.batch
        votes = self.commit_tallies[self.view][winner]
        cert = tuple(votes[sender] for sender in sorted(votes))
        self._advance(self._next_block([r.digest for r in batch], cert))
        self._reply(batch, winner, result)
        self._arm_for_pending(result)

    # -- view change --

    def _start_view_change(self, proposed_view: int, result: StepResult) -> None:
        # A repeated call for the same view re-broadcasts: the only caller
        # that can repeat is the watchdog chain (one tick per timeout
        # window), so under message loss this is the retry path.
        vc = signed(
            ViewChange(height=self.height, proposed_view=proposed_view, reporter=self.node_id),
            self.registry,
            self.node_id,
        )
        self.viewchange_tallies.setdefault(proposed_view, set()).add(self.node_id)
        result.sends.append((self.peers, vc))
        result.timers.append((VIEW_TIMEOUT_US, TimerTick("round", self.height, self.view)))
        self._maybe_adopt_view(proposed_view, result)

    def _on_viewchange(self, now: int, vc: ViewChange) -> StepResult:
        if (
            not self.is_member
            or vc.height != self.height
            or vc.proposed_view <= self.view
            or vc.reporter not in self.members
            or not signature_ok(vc, self.registry, vc.reporter)
        ):
            return IDLE
        result = StepResult()
        senders = self.viewchange_tallies.setdefault(vc.proposed_view, set())
        senders.add(vc.reporter)
        # Join a view change once f+1 peers vouch for it, even before our own
        # timer fires; prevents straggler deadlock.
        if len(senders) >= self.f + 1 and self.node_id not in senders:
            self._start_view_change(vc.proposed_view, result)
        self._maybe_adopt_view(vc.proposed_view, result)
        return result

    def _maybe_adopt_view(self, proposed_view: int, result: StepResult) -> None:
        senders = self.viewchange_tallies.get(proposed_view, set())
        if len(senders) < 2 * self.f + 1 or proposed_view <= self.view:
            return
        self.observations.append(("incompletion", self.leader_id(), self.height))
        self.view = proposed_view
        self.proposal = None
        # The pending request batch is retained in the buffer; the new leader
        # re-proposes it from there.
        if self.is_leader and self.request_buffer:
            self._arm_once(result, "batch", BATCH_WINDOW_US)
        else:
            self._arm_once(result, "round", VIEW_TIMEOUT_US)

    # -- round-end announce --

    def _on_announce(self, now: int, event: BlockAnnounce) -> StepResult:
        """Fill a ledger hole from a round-end announce of the next block."""
        if not signature_ok(event, self.registry, event.sender) or event.height != self.height:
            return IDLE
        block = self._next_block(event.batch_digests, ())
        if block.block_digest == event.block_digest:
            self._advance(block)
        return IDLE

    # Handlers every replica has; each subclass's table adds its own.
    _HANDLERS = {
        TimerTick: _on_timer,
        Request: _on_request,
        Commit: _on_commit,
        ViewChange: _on_viewchange,
        BlockAnnounce: _on_announce,
    }


class EbrcReplica(_ReplicaBase):
    """Two-phase committee replica with rotating master and membership flows.

    Per round: the master batches buffered requests after the batch window and
    broadcasts a Prepare; every consensus node validates and broadcasts a
    Commit; 2f+1 matching commits commit the block, each node replies to
    the clients, and (height, view) both advance, rotating the master.
    """

    PROPOSAL = Prepare
    VIEW_PER_BLOCK = True

    def __init__(self, node_id, registry, **settings) -> None:
        super().__init__(node_id, registry, **settings)
        self.candidates: Tuple[int, ...] = ()
        self.table_reputation: Dict[int, float] = {}
        self.membership = djep.MembershipState()

    # -- roles --

    def leader_id(self) -> int:
        return self.committee[select_master(self.height, self.view, self.f)]

    def set_committee(
        self,
        committee: Sequence[int],
        candidates: Sequence[int],
        *,
        table_reputation: Dict[int, float],
    ) -> StepResult:
        """Install a new epoch's committee, its candidates and the epoch's
        reputations, which the replica only reads (every replica holds the
        one dict); f follows the committee and views restart at 0."""
        self._install(committee)
        self.candidates = tuple(candidates)
        self.table_reputation = table_reputation
        self.view = 0
        self._reset_round()
        self.viewchange_tallies.clear()
        self.timer_armed.clear()
        self.membership = djep.MembershipState()
        result = StepResult()
        self._arm_for_pending(result)
        return result

    def apply_membership(
        self,
        committee: Sequence[int],
        candidates: Sequence[int],
        *,
        view_hint: Optional[int] = None,
    ) -> None:
        """Mid-epoch committee update (exit/join/replacement), same view chain;
        f follows the new committee.

        A node entering the committee has never tracked the members' view
        chain; ``view_hint`` hands it the current view so its commits count.
        Its join is done, and as a candidate it held no exit, so its
        membership record starts afresh.
        """
        joining = self.node_id in committee and not self.is_member
        self._install(committee)
        self.candidates = tuple(candidates)
        if joining:
            self.membership = djep.MembershipState()
            if view_hint is not None:
                self.view = view_hint

    def step(self, now: int, event) -> StepResult:
        handler = self._HANDLERS.get(type(event))
        return handler(self, now, event) if handler else IDLE

    # -- prepare and commit --

    def _report(self, accused: int, evidence_kind: str) -> Send:
        report = signed(
            Report(
                accused=accused,
                evidence_kind=evidence_kind,
                height=self.height,
                reporter=self.node_id,
            ),
            self.registry,
            self.node_id,
        )
        return self.peers, report

    def _reject_proposal(self, proposal: Prepare, result: StepResult) -> None:
        # Report the master as well as deposing it.
        result.sends.append(self._report(proposal.sender, "invalid-proposal"))
        super()._reject_proposal(proposal, result)

    _vote = _ReplicaBase._send_commit

    # -- membership flows --

    def _on_exit_request(self, now: int, request: ExitRequest) -> StepResult:
        if not self.is_leader:
            return IDLE
        if request.node_id not in self.members:
            return IDLE
        if not signature_ok(request, self.registry, request.node_id):
            logger.debug("node %d: forged exit request rejected", self.node_id)
            return IDLE
        plan = djep.plan_removal(
            committee=self.committee,
            candidates=self.candidates,
            reputation=self.table_reputation,
            leaver=request.node_id,
        )
        if plan.stalled:
            self.observations.append(("membership_stalled", request.node_id, self.height))
            return IDLE
        # Below the committee floor the exit names the candidate it waits on;
        # every member holds it until that candidate's join is due.
        commit = signed(
            ExitCommit(
                request=request,
                candidate=plan.promote,
                master_id=self.node_id,
            ),
            self.registry,
            self.node_id,
        )
        self.membership.pending_exits[request.node_id] = commit
        result = StepResult()
        result.sends.append((self.peers, commit))
        if plan.promote is not None:
            result.sends.append(self._invite(plan.promote, request.effective_height))
        return result

    def _invite(self, candidate: int, effective_height: int) -> Send:
        notice = signed(
            ChangeNotice(
                candidate_id=candidate,
                effective_height=effective_height,
                master_id=self.node_id,
            ),
            self.registry,
            self.node_id,
        )
        return (candidate,), notice

    def _on_exit_commit(self, now: int, event: ExitCommit) -> StepResult:
        # A member's commitment, carrying the leaver's own signed request. The
        # master is not checked against the current one: the master rotates
        # every block, so an honest commit can arrive after the rotation.
        if not self.is_member or event.master_id not in self.members:
            return IDLE
        if not signature_ok(event, self.registry, event.master_id):
            return IDLE
        request = event.request
        if not signature_ok(request, self.registry, request.node_id):
            return IDLE
        self.membership.pending_exits[request.node_id] = event
        return IDLE

    def _on_change(self, now: int, event: ChangeNotice) -> StepResult:
        if event.candidate_id != self.node_id:
            return IDLE
        if not signature_ok(event, self.registry, event.master_id):
            return IDLE
        claim = self.table_reputation.get(self.node_id, 0.0)
        join = signed(
            JoinRequest(
                node_id=self.node_id,
                reputation=claim,
                effective_height=event.effective_height,
            ),
            self.registry,
            self.node_id,
        )
        result = StepResult()
        result.sends.append((self.committee, join))
        return result

    def _on_join_request(self, now: int, event: JoinRequest) -> StepResult:
        if not self.is_member:
            return IDLE
        if not signature_ok(event, self.registry, event.node_id):
            return IDLE
        result = StepResult()
        expected = self.table_reputation.get(event.node_id)
        if event.node_id not in self.candidates or expected is None or expected != event.reputation:
            result.sends.append(self._report(event.node_id, "reputation-mismatch"))
            return result
        confirm = signed(
            JoinCommit(
                candidate_id=event.node_id,
                effective_height=event.effective_height,
                sender=self.node_id,
            ),
            self.registry,
            self.node_id,
        )
        result.sends.append(((event.node_id,), confirm))
        return result

    def _on_join_commit(self, now: int, event: JoinCommit) -> StepResult:
        # Only a member's confirmation counts toward the 2f+1.
        if event.candidate_id != self.node_id or event.sender not in self.members:
            return IDLE
        if not signature_ok(event, self.registry, event.sender):
            return IDLE
        membership = self.membership
        membership.join_confirms.add(event.sender)
        if len(membership.join_confirms) >= 2 * self.f + 1:
            membership.join_height = event.effective_height
        return IDLE

    # Replies and reports reach replicas but are tallied off-replica; they
    # fall through the table like any other unhandled type.
    _HANDLERS = {
        **_ReplicaBase._HANDLERS,
        Prepare: _ReplicaBase._on_proposal,
        ExitRequest: _on_exit_request,
        ExitCommit: _on_exit_commit,
        ChangeNotice: _on_change,
        JoinRequest: _on_join_request,
        JoinCommit: _on_join_commit,
    }


class PbftReplica(_ReplicaBase):
    """Classic three-phase baseline with a stable primary (p = v mod n).

    Pre-prepare from the primary, prepare echoes from the backups, commit
    votes from everyone; prepared = pre-prepare + 2f matching prepares,
    committed = 2f+1 matching commits. The whole group is the committee, and
    the primary only rotates on view change. No checkpointing, no NEW-VIEW
    certificate: the same 2f+1 ViewChange adoption rule as the committee
    protocol stands in for it.
    """

    PROPOSAL = PrePrepare
    VIEW_PER_BLOCK = False

    def __init__(self, node_id, registry, *, group: Sequence[int], **settings) -> None:
        super().__init__(node_id, registry, **settings)
        self._install(group)
        self.prepare_tallies: Dict[int, Dict[bytes, Dict[int, PbftPrepare]]] = {}

    def leader_id(self) -> int:
        return self.committee[self.view % len(self.committee)]

    def step(self, now: int, event) -> StepResult:
        handler = self._HANDLERS.get(type(event))
        return handler(self, now, event) if handler else IDLE

    def _reset_round(self) -> None:
        super()._reset_round()
        self.prepare_tallies.clear()

    def _vote(self, result: StepResult) -> None:
        # Backups echo the pre-prepare; the primary's own pre-prepare stands
        # in for its prepare.
        if not self.is_leader and not self._voted(self.prepare_tallies):
            self._cast(PbftPrepare, self.prepare_tallies, result)
        if self._commit_due():
            self._send_commit(result)

    def _on_prepare(self, now: int, prepare: PbftPrepare) -> StepResult:
        # Only the prepare that makes this node prepared asks anything. One of
        # the current view for the current proposal, short of 2f, cannot:
        # _commit_due() would return False.
        votes = self._admit(prepare, self.prepare_tallies)
        if votes is None:
            return IDLE
        proposal = self.proposal
        if (
            len(votes) < 2 * self.f
            and prepare.view == self.view
            and proposal is not None
            and prepare.digest == proposal.digest
        ):
            return IDLE
        if not self._commit_due():
            return IDLE
        result = StepResult()
        self._send_commit(result)
        return result

    def _commit_due(self) -> bool:
        """Whether this node is prepared and has not cast its commit."""
        proposal = self.proposal
        if proposal is None or proposal.view != self.view:
            return False
        by_digest = self.prepare_tallies.get(self.view)
        prepares = len(by_digest.get(proposal.digest, ())) if by_digest else 0
        # The primary never sends a prepare; it waits for 2f backup echoes.
        # Backups count their own echo, so the same threshold works for both.
        return prepares >= 2 * self.f and not self._voted(self.commit_tallies)

    _HANDLERS = {
        **_ReplicaBase._HANDLERS,
        PrePrepare: _ReplicaBase._on_proposal,
        PbftPrepare: _on_prepare,
    }
