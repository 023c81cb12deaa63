"""One deterministic scenario run: replicas + network + reputation + elections.

The runner owns the pieces the protocol itself distributes in a real
deployment: client traffic injection, round pacing, the shared behavior
table, epoch elections, round-end block announcements for stragglers, and
the accountability tally (report confirmation, silent-member detection).
A Byzantine node runs the honest replica code; the runner rewrites each
send made on its behalf (``byzantine_sends``) before the network carries it.
Every iteration is over sorted ids so a run is a pure function of the
scenario configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import djep, reputation
from .config import ScenarioConfig
from .consensus import EbrcReplica, PbftReplica, batch_digest_of, tx_digest
from .crypto import KeyRegistry, SimulatedVrf, derive_seed, digest, frame, pack
from .election import CommitteeAssignment, elect_committee, eligible_nodes
from .messages import (
    MEMBERSHIP_TYPES,
    BlockAnnounce,
    Commit,
    ExitRequest,
    PbftPrepare,
    PrePrepare,
    Prepare,
    Reply,
    Report,
    Request,
    VrfConnect,
    signed,
    signature_ok,
)
from .simnet import Counters, NetworkModel, Simulation, TraceRecord

US_PER_MS = 1_000

# A scripted exit becomes effective two blocks after the request so the full
# handshake (including a gating promotion) finishes before the boundary and
# both transitions land together.
EXIT_LEAD_BLOCKS = 2

# The window in which an epoch's selectees announce their draws before its
# rounds begin, and the size of each request's payload.
CONNECT_WINDOW_US = 5_000
PAYLOAD_BYTES = 64

# Every node's deposit at genesis.
GENESIS_DEPOSIT = 100.0

LAZY_LATENCY_FACTOR = 4.0  # a lazy node's deliveries take this many times as long

_PROPOSALS, _VOTES = (Prepare, PrePrepare), (Commit, PbftPrepare)


def _ms_to_us(value_ms: float) -> int:
    return int(round(value_ms * US_PER_MS))


def _skip(*_) -> None:
    pass


def byzantine_sends(
    behavior: str, sender: int, targets: Sequence[int], message, registry: KeyRegistry
) -> List[Tuple[Sequence[int], object]]:
    """The ``(targets, message)`` sends a faulty node makes in place of one
    honest send. ``silent`` makes none; ``corrupt_digest`` flips a proposal's
    or vote's first digest byte; ``equivocate`` sends a proposal of two or
    more requests to the sorted targets one at a time, alternating it with a
    copy whose batch lacks the last request, so only the digest differs. The
    node holds its own key, so each rewrite is re-signed and only content
    checks can catch it. Other sends go out as they are."""
    if behavior == "silent":
        return []
    if behavior == "corrupt_digest" and isinstance(message, _PROPOSALS + _VOTES):
        bad = bytes([message.digest[0] ^ 0xFF]) + message.digest[1:]
        return [(targets, signed(replace(message, digest=bad), registry, sender))]
    if behavior == "equivocate" and isinstance(message, _PROPOSALS) and len(message.batch) > 1:
        batch = message.batch[:-1]
        variant = replace(message, batch=batch, digest=batch_digest_of(batch))
        pair = (message, signed(variant, registry, sender))
        return [((target,), pair[i % 2]) for i, target in enumerate(sorted(targets))]
    return [(targets, message)]


def initial_table(
    node_count: int, events: Iterable[reputation.BehaviorEvent] = ()
) -> reputation.BehaviorTable:
    """Genesis behavior table: every node holds GENESIS_DEPOSIT, then one
    bootstrap update applies ``events`` so the first election reads realized
    scores."""
    table = {n: reputation.new_record(n, GENESIS_DEPOSIT) for n in range(node_count)}
    return reputation.update_behavior_table(table, events)


@dataclass(slots=True)
class RoundRecord:
    committed: bool
    latency_ms: Optional[float]  # None unless the client saw f+1 matching replies


@dataclass(slots=True)
class RunResult:
    """What a run leaves behind, each fact once; ``harness.build_report``
    derives the report's counts from it."""

    config: ScenarioConfig
    blocks: List[dict] = field(default_factory=list)
    rounds: List[RoundRecord] = field(default_factory=list)  # one per round, in order
    duration_ms: float = 0.0
    tps: Optional[float] = None
    counters: Counters = field(default_factory=Counters)
    trace: List[TraceRecord] = field(default_factory=list)  # one record per send
    in_flight: int = 0  # deliveries still queued at run end
    elections: List[CommitteeAssignment] = field(default_factory=list)  # one per epoch
    membership_log: List[dict] = field(default_factory=list)
    membership_flows: List[dict] = field(default_factory=list)
    confirmed_reports: List[dict] = field(default_factory=list)
    view_changes_total: int = 0
    max_view_changes_per_height: int = 0
    safety_details: List[str] = field(default_factory=list)
    stalled_memberships: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def committed_rounds(self) -> int:
        return sum(r.committed for r in self.rounds)

    @property
    def safety_violation(self) -> bool:
        return bool(self.safety_details)


class ScenarioRunner:
    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        # The network/key seed deliberately excludes protocol and name so a
        # paired comparison with the same seed sees identical link conditions.
        self.run_seed = digest(pack(config.seed), domain=b"run-seed")
        self.registry = KeyRegistry(digest(self.run_seed, domain=b"keys"))
        self.node_ids = list(range(config.node_count))
        self.client_id = config.node_count  # the one client follows the nodes
        for node in self.node_ids + [self.client_id]:
            self.registry.register(node)

        self.network = NetworkModel(
            base_latency_us=_ms_to_us(config.network.base_latency_ms),
            jitter_us=_ms_to_us(config.network.jitter_ms),
            drop_rate=config.network.drop_rate,
            partitions=tuple(
                (_ms_to_us(start), _ms_to_us(end), frozenset(nodes))
                for start, end, nodes in config.network.partitions
            ),
        )
        self.byz_ids: Set[int] = set(config.byzantine.node_ids)
        self.sim = Simulation(self.run_seed, self.network)

        cap = config.block_tx_cap
        # The one protocol seam. EBRC runs a committee lifecycle: an election
        # at each epoch start, DJEP transitions after each committed round and
        # a reputation update at each epoch end. PBFT's committee is its whole
        # group, fixed for the run, so it skips all three, and records no
        # behaviour events, which only EBRC's reputation update reads: it
        # shadows the class's hooks (at the end of the class) with a plain
        # function, which keeps the runner free of bound methods of itself.
        if config.protocol == "ebrc":
            self.replicas = {
                n: EbrcReplica(n, self.registry, block_tx_cap=cap) for n in self.node_ids
            }
        else:
            self.replicas = {
                n: PbftReplica(n, self.registry, group=self.node_ids, block_tx_cap=cap)
                for n in self.node_ids
            }
            self._open_epoch = self._after_commit = self._close_epoch = self._record = _skip
        # The runner installs each committee and its candidates in every
        # replica at once, so any one replica holds them, and f, for all.
        self._roster = self.replicas[0]

        self.honest_ids = [n for n in self.node_ids if n not in self.byz_ids]
        self.table = initial_table(config.node_count)

        self.result = RunResult(config=config)

        # Per-round client state: the senders of each reply digest, and when
        # f+1 of them first agreed.
        self._reply_senders: Dict[bytes, Set[int]] = {}
        self._client_done_at: Optional[int] = None

        # Accountability and membership state.
        self._report_tally: Dict[Tuple[int, str, int], Set[int]] = {}
        self._ousted: Dict[int, Set[int]] = {}  # height -> members a view change ousted
        self._epoch_events: List[reputation.BehaviorEvent] = []
        self._replacements: Set[int] = set()
        self._last_membership_delivery_us = 0
        self._view_hint = 0
        self._first_submit_us: Optional[int] = None
        self._last_completion_us: Optional[int] = None

    # -- state readers --

    def _next_height(self) -> int:
        """The height the most advanced honest replica is working on."""
        return max(self.replicas[n].height for n in self.honest_ids)

    def _reputations(self) -> Dict[int, float]:
        return {n: rec.reputation for n, rec in self.table.items()}

    # -- event plumbing --

    def _send(self, sender: int, targets: Sequence[int], message) -> None:
        """Send on a node's behalf, rewritten if it is faulty: a lazy node's
        deliveries take LAZY_LATENCY_FACTOR as long, other faults go through
        ``byzantine_sends``. Only ``_elect``'s connectivity proofs skip this:
        a node attacking the consensus phase still wants a committee seat."""
        sim = self.sim
        if sender not in self.byz_ids:
            sim.send(sender, targets, message)
            return
        behavior = self.config.byzantine.behavior
        if behavior == "lazy":
            sim.send(sender, targets, message, LAZY_LATENCY_FACTOR)
            return
        sends = byzantine_sends(behavior, sender, targets, message, self.registry)
        if not sends:
            # Nothing went out: the sender must not count as active.
            sim.counters.suppressed += len(targets)
        for faulty_targets, faulty_message in sends:
            sim.send(sender, faulty_targets, faulty_message)

    def _dispatch(self, sender: int, result) -> None:
        # One send per entry: a broadcast reaches a faulty node's rewrite with
        # its whole recipient set.
        send = self._send
        for targets, message in result.sends:
            send(sender, targets, message)
        sim = self.sim
        for delay_us, tick in result.timers:
            sim.schedule_timer(sender, delay_us, tick)

    def _deliver(self, target: int, now: int, event) -> None:
        """Hand a delivered message or a fired timer to its target."""
        cls = type(event)
        if cls in MEMBERSHIP_TYPES:
            self._last_membership_delivery_us = now
        replica = self.replicas.get(target)
        if replica is not None:
            if cls is Report:
                self._note_report(event)
            result = replica.step(now, event)
            if result.sends or result.timers:
                self._dispatch(target, result)
        else:
            self._client_receive(now, event)

    def _note_report(self, message: Report) -> None:
        if message.reporter in self.byz_ids:
            return
        if not signature_ok(message, self.registry, message.reporter):
            return
        key = (message.accused, message.evidence_kind, message.height)
        self._report_tally.setdefault(key, set()).add(message.reporter)

    def _client_receive(self, now: int, message) -> None:
        if not isinstance(message, Reply):
            return
        if not signature_ok(message, self.registry, message.sender):
            return
        senders = self._reply_senders.get(message.digest)
        if senders is None:
            senders = self._reply_senders[message.digest] = set()
        senders.add(message.sender)
        if self._client_done_at is None and len(senders) >= self._roster.f + 1:
            self._client_done_at = now

    # -- main entry --

    def run(self) -> RunResult:
        config = self.config
        sim = self.sim
        # The simulation calls back into the runner only while it runs. Once
        # unhooked, a finished runner and its simulation form no reference
        # cycle, so reference counting frees them with their last reference.
        sim.on_deliver = self._deliver
        try:
            round_index = 0
            for epoch in range(config.epochs):
                self._open_epoch(epoch)
                for _ in range(config.rounds_per_epoch):
                    round_index += 1
                    self._run_round(round_index)
                self._close_epoch()
            self._finalize()
        finally:
            sim.on_deliver = _skip
        return self.result

    # -- epochs --

    def _tip_block(self):
        holder = max(self.honest_ids, key=lambda n: (max(self.replicas[n].ledger), -n))
        ledger = self.replicas[holder].ledger
        return ledger[max(ledger)]

    def _elect(self, epoch: int) -> None:
        config = self.config
        corrupt = self.byz_ids if config.byzantine.behavior == "corrupt_proof" else set()
        assignment, proof_reports, seed = elect_committee(
            eligible_nodes(self.table, config.eligibility_percentile),
            derive_seed(self._tip_block().block_digest),
            self.registry,
            omega=config.omega,
            eligibility_percentile=config.eligibility_percentile,
            consensus_percentile=config.consensus_percentile,
            corrupt_proofs=corrupt,
        )

        for accused, kind in proof_reports:
            # An invalid sortition proof is publicly verifiable, so it convicts
            # without needing a reporter quorum.
            self._convict(accused, kind, epoch=epoch, reporters=[])

        self.result.elections.append(assignment)

        # Connectivity announcements: every verified selectee (and every
        # proof-corrupting impostor) broadcasts its draw during the connect
        # window before rounds begin. The groups and the impostors are
        # disjoint, so joining them lists each node once.
        framed = frame(seed)
        announcers = sorted(
            assignment.consensus_nodes
            + assignment.candidates
            + assignment.spares
            + tuple(accused for accused, _ in proof_reports)
        )
        for node in announcers:
            proof = SimulatedVrf.draw(self.registry.key_pair(node).proof_state, framed)
            connect = signed(
                VrfConnect(
                    epoch=epoch,
                    node_id=node,
                    public_key=self.registry.public_key(node),
                    proof=proof,
                ),
                self.registry,
                node,
            )
            self.sim.send(node, [n for n in self.node_ids if n != node], connect)
        self.sim.run_until(self.sim.now + CONNECT_WINDOW_US)

        table_reputation = self._reputations()
        for node in self.node_ids:
            step = self.replicas[node].set_committee(
                assignment.consensus_nodes,
                assignment.candidates,
                table_reputation=table_reputation,
            )
            self._dispatch(node, step)
        self._view_hint = 0

    def _end_epoch(self) -> None:
        self.table = reputation.update_behavior_table(self.table, self._epoch_events)
        self._epoch_events = []

    # -- rounds --

    def _run_round(self, round_index: int) -> None:
        config = self.config
        self.sim.round_index = round_index
        first_send = len(self.sim.trace)
        target_height = self._next_height()
        committee_at_start = self._roster.committee

        self._reply_senders = {}
        self._client_done_at = None
        submit_us = self.sim.now
        if self._first_submit_us is None and config.load > 0:
            self._first_submit_us = submit_us
        self._inject_load(round_index, submit_us)

        deadline = submit_us + _ms_to_us(config.round_deadline_ms)
        if config.load > 0:
            self.sim.run_until(deadline, stop=self._round_complete)
        holder = self._committed_holder(target_height)

        latency_ms: Optional[float] = None
        if holder is not None:
            block = self.replicas[holder].ledger[target_height]
            done = self._client_done_at
            if done is not None:
                latency_ms = (done - submit_us) / US_PER_MS
                self._last_completion_us = done
            self._announce(holder, target_height)
        # Drain first: a member ousted by a view change this round already has
        # its incompletion recorded, and the outcome tally must see that.
        self._drain_observations()
        if holder is not None:
            self._note_round_outcomes(committee_at_start, first_send, block)
            self.result.blocks.append(
                {
                    "height": block.height,
                    "view": block.view,
                    "digest": block.block_digest.hex(),
                    "tx_count": block.tx_count,
                    "committers": [vote.sender for vote in block.cert],
                }
            )
            self._after_commit()
            self._inject_scripted_exits(round_index)
        else:
            for script in config.exits:
                if script.round_index == round_index:
                    self._skip_exit(script, f"round {round_index} did not commit")
        self.result.rounds.append(RoundRecord(committed=holder is not None, latency_ms=latency_ms))

    def _inject_load(self, round_index: int, submit_us: int) -> None:
        config = self.config
        client = self.client_id
        targets = list(self._roster.committee)
        for k in range(config.load):
            payload = self._payload(round_index, k)
            request = signed(
                Request(
                    timestamp=submit_us + k,
                    payload=payload,
                    digest=tx_digest(payload),
                    client_id=client,
                ),
                self.registry,
                client,
            )
            self.sim.schedule_send(submit_us + k, client, targets, request)

    def _payload(self, round_index: int, k: int) -> bytes:
        base = digest(
            self.run_seed,
            round_index.to_bytes(8, "big"),
            k.to_bytes(8, "big"),
            domain=b"payload",
        )
        reps = (PAYLOAD_BYTES + len(base) - 1) // len(base)
        return (base * reps)[:PAYLOAD_BYTES]

    def _round_complete(self) -> bool:
        return self._client_done_at is not None

    def _committed_holder(self, height: int) -> Optional[int]:
        for node in self.honest_ids:
            if node in self._roster.members and height in self.replicas[node].ledger:
                return node
        for node in self.honest_ids:
            if height in self.replicas[node].ledger:
                return node
        return None

    def _announce(self, holder: int, height: int) -> None:
        block = self.replicas[holder].ledger[height]
        self._view_hint = self.replicas[holder].view
        behind = [
            n
            for n in self.node_ids
            if n != holder and height not in self.replicas[n].ledger
        ]
        if behind:
            announce = signed(
                BlockAnnounce(
                    height=height,
                    block_digest=block.block_digest,
                    batch_digests=block.batch_digests,
                    sender=holder,
                ),
                self.registry,
                holder,
            )
            self._send(holder, behind, announce)
        # Settle window: lets announces and trailing same-round traffic land
        # before the next round's clock starts.
        settle = self.network.base_latency_us + self.network.jitter_us + 500
        self.sim.run_until(self.sim.now + settle)

    def _note_round_outcomes(self, committee: Sequence[int], first_send: int, block) -> None:
        """A member with no trace record from ``first_send`` on failed the round."""
        senders = {record.sender for record in self.sim.trace[first_send:]}
        ousted = self._ousted.get(block.height, ())
        for member in committee:
            if member in ousted:
                continue  # the view change already recorded its incompletion
            if member not in senders:
                self._fail(member)
            else:
                self._record(
                    reputation.Participation(member),
                    reputation.TransactionsProcessed(member, block.tx_count),
                )

    # -- observations / accountability --

    def _drain_observations(self) -> None:
        for node in sorted(self.replicas):
            replica = self.replicas[node]
            observations = replica.observations
            replica.observations = []
            if node in self.byz_ids:
                continue
            for entry in observations:
                kind = entry[0]
                if kind == "quorum_conflict":
                    self.result.safety_details.append(
                        f"node {entry[1]} height {entry[2]}: {entry[3]}"
                    )
                elif kind == "incompletion":
                    ousted = self._ousted.setdefault(entry[2], set())
                    if entry[1] not in ousted:
                        ousted.add(entry[1])
                        self._fail(entry[1])
                elif kind == "membership_stalled":
                    self.result.stalled_memberships.append(
                        {"node": entry[1], "height": entry[2]}
                    )

        # Report confirmation: f+1 distinct honest reporters convict.
        for key in sorted(self._report_tally):
            reporters = self._report_tally[key]
            if len(reporters) >= self._roster.f + 1:
                accused, kind, at_height = key
                self._convict(accused, kind, height=at_height, reporters=sorted(reporters))
                self._plan_replacement(accused)
                del self._report_tally[key]

    def _convict(self, accused: int, kind: str, **row) -> None:
        """Record a confirmed misbehavior: a reputation penalty, a deposit
        slash and a ``confirmed_reports`` row locating it."""
        self._record(
            reputation.ConfirmedReport(accused),
            reputation.DepositSlash(accused),
        )
        self.result.confirmed_reports.append({"node": accused, "kind": kind, **row})

    def _fail(self, member: int) -> None:
        """Record a round the member joined but did not complete."""
        self._record(reputation.Incompletion(member))
        self._plan_replacement(member)

    def _record(self, *events: reputation.BehaviorEvent) -> None:
        """Add behaviour events to the epoch's reputation update."""
        self._epoch_events.extend(events)

    def _plan_replacement(self, accused: int) -> None:
        if self.config.replace_faulty and accused in self._roster.members:
            self._replacements.add(accused)

    # -- membership --

    def _skip_exit(self, script, reason: str) -> None:
        self.result.notes.append(
            f"scripted exit of node {script.node_id} after round {script.round_index} "
            f"skipped: {reason}"
        )

    def _inject_scripted_exits(self, round_index: int) -> None:
        for script in self.config.exits:
            if script.round_index != round_index:
                continue
            exiter = script.node_id
            if exiter not in self._roster.members:
                self._skip_exit(script, "not a consensus node")
                continue
            effective = self._next_height() + EXIT_LEAD_BLOCKS
            request = signed(
                ExitRequest(node_id=exiter, effective_height=effective),
                self.registry,
                exiter,
            )
            self.result.membership_flows.append(
                {
                    "node": exiter,
                    "requested_at_us": self.sim.now,
                    "effective_height": effective,
                    "messages_before": self._membership_message_count(),
                }
            )
            master = self._current_master()
            if master == exiter:
                # The master leaving processes its own request; no wire hop.
                self._dispatch(exiter, self.replicas[exiter].step(self.sim.now, request))
            else:
                self._send(exiter, (master,), request)

    def _current_master(self) -> int:
        for node in self.honest_ids:
            replica = self.replicas[node]
            if replica.is_member:
                return replica.leader_id()
        return self._roster.committee[0]

    def _membership_message_count(self) -> int:
        """Messages sent so far under the membership tags, read from the trace."""
        tags = {cls.TAG for cls in MEMBERSHIP_TYPES}
        return sum(len(r.targets) for r in self.sim.trace if r.tag in tags)

    def _apply_membership_transitions(self) -> None:
        """Apply every transition due at the next height, in one pass.

        Due joins enter first; each removal, in id order, is then planned
        against the committee the steps before it leave, so none breaks the
        3f+1 floor. Only a conviction may promote a candidate, and only one no
        exit has invited: an exit whose floor needs one stays pending until
        the candidate its ExitCommit names is due to join.
        """
        height = self._next_height()
        roster = self._roster
        table_reputation = self._reputations()
        joins = [
            n
            for n in self.node_ids
            if n not in roster.members and self.replicas[n].membership.join_due(height)
        ]
        candidates = [n for n in roster.candidates if n not in joins]
        committee = roster.committee
        for joiner in joins:
            committee = djep.committee_with_join(committee, table_reputation, joiner)
        exits: Set[int] = set()
        # Candidates a recorded exit waits on, from its ExitCommit until the
        # exit applies: no conviction may take them.
        invited: Set[int] = set()
        for node in self.honest_ids:
            replica = self.replicas[node]
            if replica.is_member:
                membership = replica.membership
                exits.update(membership.due_exits(height))
                invited |= membership.invited()
        forced, self._replacements = self._replacements, set()
        removed: List[int] = []
        for leaver in sorted(exits | forced):
            promotable = [c for c in candidates if c not in invited] if leaver in forced else ()
            plan = djep.plan_removal(
                committee=committee,
                candidates=promotable,
                reputation=table_reputation,
                leaver=leaver,
            )
            if plan.stalled and leaver in forced:
                self.result.stalled_memberships.append(
                    {"node": leaver, "height": height, "forced": True}
                )
            if not plan.remove:
                continue
            removed.append(leaver)
            committee = djep.committee_without(committee, leaver)
            if plan.promote is not None:
                joins.append(plan.promote)
                candidates.remove(plan.promote)
                committee = djep.committee_with_join(committee, table_reputation, plan.promote)
        if not removed and not joins:
            return

        joins.sort()
        for replica in self.replicas.values():
            replica.apply_membership(committee, candidates, view_hint=self._view_hint)
            replica.membership.clear_applied(removed + joins)
        changes = [("replace" if n in forced else "exit", n) for n in removed]
        for kind, node in changes + [("join", n) for n in joins]:
            self.result.membership_log.append(
                {"kind": kind, "node": node, "height": height, "applied_at_us": self.sim.now}
            )
        for flow in self.result.membership_flows:
            if "settle_ms" in flow or flow["node"] not in removed:
                continue
            flow["kind"] = "exit+join" if joins else "exit"
            flow["applied_at_us"] = self.sim.now
            flow["settle_ms"] = (
                self._last_membership_delivery_us - flow["requested_at_us"]
            ) / US_PER_MS
            flow["messages"] = self._membership_message_count() - flow["messages_before"]

    # -- finish --

    def _finalize(self) -> None:
        self._drain_observations()
        self._check_ledger_agreement()
        result = self.result
        result.counters = self.sim.counters
        result.trace = self.sim.trace
        result.in_flight = self.sim.in_flight()
        per_height = [len(ousted) for ousted in self._ousted.values()]
        result.view_changes_total = sum(per_height)
        result.max_view_changes_per_height = max(per_height, default=0)
        committed_tx = sum(b["tx_count"] for b in result.blocks)
        if (
            self._first_submit_us is not None
            and self._last_completion_us is not None
            and self._last_completion_us > self._first_submit_us
        ):
            duration_us = self._last_completion_us - self._first_submit_us
            result.duration_ms = duration_us / US_PER_MS
            result.tps = committed_tx / (duration_us / 1_000_000.0)
        # An exit whose master missed the request, or that the floor holds.
        result.notes += [
            f"scripted exit of node {flow['node']} (effective height "
            f"{flow['effective_height']}) never applied"
            for flow in result.membership_flows
            if "applied_at_us" not in flow
        ]

    def _check_ledger_agreement(self) -> None:
        digests: Dict[int, bytes] = {}
        for node in self.honest_ids:
            for height, block in sorted(self.replicas[node].ledger.items()):
                previous = digests.get(height)
                if previous is None:
                    digests[height] = block.block_digest
                elif previous != block.block_digest:
                    self.result.safety_details.append(
                        f"ledger divergence at height {height}: node {node}"
                    )

    # EBRC's committee lifecycle hooks; a PBFT runner shadows them (__init__).
    _open_epoch = _elect
    _after_commit = _apply_membership_transitions
    _close_epoch = _end_epoch
