"""One deterministic scenario run: replicas + network + reputation + elections.

The runner owns the pieces the protocol itself distributes in a real
deployment: client traffic injection, round pacing, the shared behavior
table, epoch elections, round-end block announcements for stragglers, and
the accountability tally (report confirmation, silent-member detection).
Every iteration is over sorted ids so a run is a pure function of the
scenario configuration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import djep, reputation
from .config import ScenarioConfig
from .consensus import EbrcReplica, PbftReplica, tx_digest
from .crypto import KeyRegistry, SimulatedVrf, derive_seed, digest, pack
from .election import (
    MAX_ELECTION_RETRIES,
    ElectionConfig,
    ElectionFailed,
    form_committee,
)
from .messages import (
    MEMBERSHIP_TAGS,
    BlockAnnounce,
    ExitRequest,
    Reply,
    Report,
    Request,
    VrfConnect,
    signed,
    signature_ok,
)
from .simnet import ByzantineProfile, Counters, NetworkModel, Simulation, TraceRecord

logger = logging.getLogger(__name__)

US_PER_MS = 1_000

# A scripted exit becomes effective two blocks after the request so the full
# handshake (including a gating promotion) finishes before the boundary and
# both transitions land together.
EXIT_LEAD_BLOCKS = 2


def _ms_to_us(value_ms: float) -> int:
    return int(round(value_ms * US_PER_MS))


@dataclass(slots=True)
class RoundRecord:
    round_index: int
    height: int
    committed: bool
    latency_ms: Optional[float]
    view_changes: int
    tx_count: int


@dataclass(slots=True)
class RunResult:
    config: ScenarioConfig
    blocks: List[dict] = field(default_factory=list)
    rounds: List[RoundRecord] = field(default_factory=list)
    committed_rounds: int = 0
    aborted_rounds: int = 0
    duration_ms: float = 0.0
    tps: Optional[float] = None
    latency_samples_ms: List[float] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    trace: List[TraceRecord] = field(default_factory=list)
    election_log: List[dict] = field(default_factory=list)
    election_counts: Dict[int, int] = field(default_factory=dict)
    membership_log: List[dict] = field(default_factory=list)
    membership_flows: List[dict] = field(default_factory=list)
    confirmed_reports: List[dict] = field(default_factory=list)
    view_changes_total: int = 0
    max_view_changes_per_height: int = 0
    safety_violation: bool = False
    safety_details: List[str] = field(default_factory=list)
    stalled_memberships: List[dict] = field(default_factory=list)
    final_reputation: Dict[int, float] = field(default_factory=dict)
    final_growth: Dict[int, float] = field(default_factory=dict)


class ScenarioRunner:
    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        # The network/key seed deliberately excludes protocol and name so a
        # paired comparison with the same seed sees identical link conditions.
        self.run_seed = digest(pack(config.seed), domain=b"run-seed")
        self.registry = KeyRegistry(digest(self.run_seed, domain=b"keys"))
        self.node_ids = list(range(config.node_count))
        self.client_ids = list(
            range(config.node_count, config.node_count + config.client_count)
        )
        for node in self.node_ids + self.client_ids:
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
        self.sim = Simulation(self.run_seed, self.network, self.registry)
        self.sim.on_deliver = self._deliver
        self.sim.on_timer = self._timer
        self.sim.round_provider = lambda: self.current_round

        batch_us = _ms_to_us(config.batch_window_ms)
        timeout_us = _ms_to_us(config.view_timeout_ms)
        self.replicas: Dict[int, object] = {}
        for node in self.node_ids:
            if config.protocol == "pbft":
                self.replicas[node] = PbftReplica(
                    node,
                    self.registry,
                    batch_window_us=batch_us,
                    view_timeout_us=timeout_us,
                    block_tx_cap=config.block_tx_cap,
                    group=self.node_ids,
                )
            else:
                self.replicas[node] = EbrcReplica(
                    node,
                    self.registry,
                    batch_window_us=batch_us,
                    view_timeout_us=timeout_us,
                    block_tx_cap=config.block_tx_cap,
                )

        self.byz_ids: Set[int] = set(config.byzantine.node_ids)
        self.honest_ids = [n for n in self.node_ids if n not in self.byz_ids]
        self.table = self._initial_table()
        self.committee: List[int] = list(self.node_ids)  # pbft: the whole group
        self.candidates: List[int] = []
        self.f = (config.node_count - 1) // 3

        self.current_round = 0
        self.result = RunResult(config=config)
        self.result.election_counts = {n: 0 for n in self.node_ids}

        # Per-round client completion state.
        self._expected_clients: Set[int] = set()
        self._reply_senders: Dict[int, Dict[bytes, Set[int]]] = {}
        self._client_done_at: Dict[int, int] = {}

        # Accountability and membership state.
        self._report_tally: Dict[Tuple[int, str, int], Set[int]] = {}
        self._conviction_seen: Set[Tuple[int, int]] = set()
        self._adoptions_per_height: Dict[int, int] = {}
        self._epoch_events: List[reputation.BehaviorEvent] = []
        self._served: Dict[int, int] = {}
        self._failed: Dict[int, int] = {}
        self._replacements: Set[int] = set()
        self._membership_flows: List[dict] = []
        self._last_membership_delivery_us = 0
        self._view_hint = 0
        self._first_submit_us: Optional[int] = None
        self._last_completion_us: Optional[int] = None

    # -- setup helpers --

    def _initial_table(self) -> reputation.BehaviorTable:
        deposits = {n: float(self.config.deposits.get(n, 100.0)) for n in self.node_ids}
        deposits = reputation.enforce_deposit_caps(deposits, self.config.deposit_cap)
        table: reputation.BehaviorTable = {}
        for node in self.node_ids:
            table[node] = reputation.new_record(
                node, self.registry.public_key(node), deposits[node]
            )
        poison = self.config.poison
        for node in poison.node_ids:
            record = table[node]
            record.consensus_participations = poison.participations
            record.reported_evil_count = poison.evil_count
            record.incomplete_count = poison.incomplete_count
        # Bootstrap pass: realize factor-derived scores (and any poisoning)
        # before the first election reads the table.
        return reputation.update_behavior_table(
            table,
            [],
            weights=self.config.weights,
            complement_fault_rates=self.config.complement_fault_rates,
        )

    def _election_config(self) -> ElectionConfig:
        return ElectionConfig(
            sortition_threshold=self.config.omega,
            target_committee_size=self.config.target_committee_size,
            eligibility_percentile=self.config.eligibility_percentile,
            consensus_percentile=self.config.consensus_percentile,
        )

    # -- event plumbing --

    def _dispatch(self, sender: int, result) -> None:
        sends = result.sends
        i = 0
        while i < len(sends):
            target, message = sends[i]
            targets = [target]
            j = i + 1
            # A broadcast arrives as consecutive rows sharing one message
            # object; regrouping it lets the Byzantine transform see the whole
            # recipient set (equivocation splits it into halves).
            while j < len(sends) and sends[j][1] is message:
                targets.append(sends[j][0])
                j += 1
            self.sim.send(sender, targets, message)
            i = j
        for delay_us, tick in result.timers:
            self.sim.schedule_timer(sender, delay_us, tick)

    def _deliver(self, target: int, now: int, message) -> None:
        tag = getattr(type(message), "TAG", "")
        if tag in MEMBERSHIP_TAGS:
            self._last_membership_delivery_us = now
        if target in self.replicas:
            if isinstance(message, Report):
                self._note_report(message)
            self._dispatch(target, self.replicas[target].step(now, message))
        elif target in self.client_ids:
            self._client_receive(target, now, message)

    def _timer(self, target: int, now: int, tick) -> None:
        replica = self.replicas.get(target)
        if replica is not None:
            self._dispatch(target, replica.step(now, tick))

    def _note_report(self, message: Report) -> None:
        if message.reporter in self.byz_ids:
            return
        if not signature_ok(message, self.registry, message.reporter):
            return
        key = (message.accused, message.evidence_kind, message.round_index)
        self._report_tally.setdefault(key, set()).add(message.reporter)

    def _client_receive(self, client: int, now: int, message) -> None:
        if not isinstance(message, Reply) or not message.valid:
            return
        if not signature_ok(message, self.registry, message.sender):
            return
        buckets = self._reply_senders.setdefault(client, {})
        senders = buckets.setdefault(message.digest, set())
        senders.add(message.sender)
        if client not in self._client_done_at and len(senders) >= self.f + 1:
            self._client_done_at[client] = now

    # -- main entry --

    def run(self) -> RunResult:
        config = self.config
        round_index = 0
        for epoch in range(config.epochs):
            self._begin_epoch(epoch)
            for _ in range(config.rounds_per_epoch):
                round_index += 1
                self._run_round(round_index)
            if config.protocol == "ebrc":
                self._end_epoch()
        self._finalize()
        return self.result

    # -- epochs --

    def _begin_epoch(self, epoch: int) -> None:
        config = self.config
        if config.byzantine.node_ids and config.byzantine.active(epoch):
            profile = ByzantineProfile(
                behavior=config.byzantine.behavior,
                latency_factor=config.byzantine.latency_factor,
            )
            self.sim.byzantine = {n: profile for n in config.byzantine.node_ids}
        else:
            self.sim.byzantine = {}
        if config.protocol == "ebrc":
            self._elect(epoch)

    def _tip_block(self):
        holder = max(self.honest_ids, key=lambda n: (max(self.replicas[n].ledger), -n))
        ledger = self.replicas[holder].ledger
        return ledger[max(ledger)]

    def _elect(self, epoch: int) -> None:
        config = self.config
        seed = derive_seed(self._tip_block().block_digest)
        corrupt: Set[int] = set()
        if config.byzantine.behavior == "corrupt_proof" and config.byzantine.active(epoch):
            corrupt = set(config.byzantine.node_ids)
        next_height = max(self.replicas[n].height for n in self.honest_ids)
        retries = 0
        while True:
            try:
                assignment, proof_reports = form_committee(
                    self.table,
                    self._election_config(),
                    seed,
                    self.registry,
                    corrupt_proofs=corrupt,
                    epoch=epoch,
                    initial_height=next_height,
                )
                break
            except ElectionFailed as exc:
                retries += 1
                if retries > MAX_ELECTION_RETRIES:
                    raise
                logger.debug("epoch %d election retry %d: %s", epoch, retries, exc)
                seed = derive_seed(seed)

        for accused, kind in proof_reports:
            # An invalid sortition proof is publicly verifiable, so it convicts
            # without needing a reporter quorum.
            self._epoch_events.append(reputation.ConfirmedReport(accused, kind))
            self._epoch_events.append(
                reputation.DepositSlash(accused, self.config.slash_fraction)
            )
            self.result.confirmed_reports.append(
                {"node": accused, "kind": kind, "epoch": epoch, "reporters": []}
            )

        self.committee = list(assignment.consensus_nodes)
        self.candidates = list(assignment.candidates)
        self.f = assignment.f
        for node in list(assignment.consensus_nodes) + list(assignment.candidates):
            self.result.election_counts[node] += 1
        self.result.election_log.append(
            {
                "epoch": epoch,
                "retries": retries,
                "seed": seed.hex(),
                "consensus_nodes": list(assignment.consensus_nodes),
                "candidates": list(assignment.candidates),
                "spares": list(assignment.spares),
                "f": assignment.f,
                "proof_reports": [list(r) for r in proof_reports],
            }
        )

        # Connectivity announcements: every verified selectee (and every
        # proof-corrupting impostor) broadcasts its draw during the connect
        # window before rounds begin.
        vrf = SimulatedVrf(self.registry)
        announcers = sorted(
            set(assignment.consensus_nodes)
            | set(assignment.candidates)
            | set(assignment.spares)
            | {accused for accused, _ in proof_reports}
        )
        for node in announcers:
            proof = vrf.evaluate(self.registry.secret_key(node), seed).proof
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
        self.sim.run_until(self.sim.now + _ms_to_us(config.connect_window_ms))

        table_reputation = {n: rec.reputation for n, rec in self.table.items()}
        for node in self.node_ids:
            step = self.replicas[node].set_committee(
                assignment.consensus_nodes,
                assignment.candidates,
                assignment.f,
                epoch=epoch,
                table_reputation=table_reputation,
                now=self.sim.now,
            )
            self._dispatch(node, step)
        self._view_hint = 0

    def _end_epoch(self) -> None:
        events: List[reputation.BehaviorEvent] = []
        for node in sorted(self._served):
            if self._served[node] > 0:
                events.append(reputation.Participation(node, rounds=self._served[node]))
        for node in sorted(self._failed):
            events.extend(reputation.Incompletion(node) for _ in range(self._failed[node]))
        events.extend(self._epoch_events)
        self.table = reputation.update_behavior_table(
            self.table,
            events,
            weights=self.config.weights,
            complement_fault_rates=self.config.complement_fault_rates,
        )
        self._served = {}
        self._failed = {}
        self._epoch_events = []

    # -- rounds --

    def _run_round(self, round_index: int) -> None:
        config = self.config
        self.current_round = round_index
        target_height = max(self.replicas[n].height for n in self.honest_ids)
        committee_at_start = list(self.committee)

        self._reply_senders = {}
        self._client_done_at = {}
        submit_us = self.sim.now
        if self._first_submit_us is None and config.load > 0:
            self._first_submit_us = submit_us
        self._inject_load(round_index, submit_us)

        deadline = submit_us + _ms_to_us(config.round_deadline_ms)
        if config.load > 0:
            self.sim.run_until(deadline, stop=self._round_complete)
        holder = self._committed_holder(target_height)

        latency_ms: Optional[float] = None
        tx_count = 0
        if holder is not None:
            block = self.replicas[holder].ledger[target_height]
            tx_count = block.tx_count
            if self._expected_clients and self._round_complete():
                done = max(self._client_done_at[c] for c in self._expected_clients)
                latency_ms = (done - submit_us) / US_PER_MS
                self.result.latency_samples_ms.append(latency_ms)
                self._last_completion_us = done
            self._announce(holder, target_height)
            self._note_round_outcomes(committee_at_start, round_index, block)
            self.result.committed_rounds += 1
            self.result.blocks.append(
                {
                    "height": block.height,
                    "view": block.view,
                    "digest": block.block_digest.hex(),
                    "tx_count": block.tx_count,
                    "committers": list(block.committers),
                }
            )
        else:
            self.result.aborted_rounds += 1
        view_changes = self._drain_observations(target_height)
        if holder is not None:
            self._apply_membership_transitions()
            self._inject_scripted_exits(round_index)
        self.result.rounds.append(
            RoundRecord(
                round_index=round_index,
                height=target_height,
                committed=holder is not None,
                latency_ms=latency_ms,
                view_changes=view_changes,
                tx_count=tx_count,
            )
        )

    def _inject_load(self, round_index: int, submit_us: int) -> None:
        config = self.config
        targets = list(self.committee)
        self._expected_clients = set()
        for k in range(config.load):
            client = self.client_ids[k % len(self.client_ids)]
            self._expected_clients.add(client)
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
        reps = (self.config.payload_bytes + len(base) - 1) // len(base)
        return (base * reps)[: self.config.payload_bytes]

    def _round_complete(self) -> bool:
        return self._expected_clients <= set(self._client_done_at)

    def _committed_holder(self, height: int) -> Optional[int]:
        for node in self.honest_ids:
            if node in self.committee and height in self.replicas[node].ledger:
                return node
        for node in self.honest_ids:
            if height in self.replicas[node].ledger:
                return node
        return None

    def _announce(self, holder: int, height: int) -> None:
        block = self.replicas[holder].ledger[height]
        self._view_hint = getattr(self.replicas[holder], "view", 0)
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
                    tx_count=block.tx_count,
                    sender=holder,
                ),
                self.registry,
                holder,
            )
            self.sim.send(holder, behind, announce)
        # Settle window: lets announces and trailing same-round traffic land
        # before the next round's clock starts.
        settle = self.network.base_latency_us + self.network.jitter_us + 500
        self.sim.run_until(self.sim.now + settle)

    def _note_round_outcomes(self, committee: Sequence[int], round_index: int, block) -> None:
        if self.config.protocol != "ebrc":
            return
        senders = self.sim.counters.round_senders.get(round_index, set())
        convicted = {node for (node, h) in self._conviction_seen if h == block.height}
        for member in committee:
            if member in convicted:
                continue  # the view change already recorded its incompletion
            if self.config.detect_silent and member not in senders:
                self._failed[member] = self._failed.get(member, 0) + 1
                if self.config.replace_faulty:
                    self._plan_replacement(member)
            else:
                self._served[member] = self._served.get(member, 0) + 1
                self._epoch_events.append(
                    reputation.TransactionsProcessed(member, block.tx_count)
                )

    # -- observations / accountability --

    def _drain_observations(self, height: int) -> int:
        for node in sorted(self.replicas):
            replica = self.replicas[node]
            observations = replica.observations
            replica.observations = []
            if node in self.byz_ids:
                continue
            for entry in observations:
                kind = entry[0]
                if kind == "quorum_conflict":
                    self.result.safety_violation = True
                    self.result.safety_details.append(
                        f"node {entry[1]} height {entry[2]}: {entry[3]}"
                    )
                elif kind == "incompletion":
                    ousted, at_height = entry[1], entry[2]
                    if (ousted, at_height) not in self._conviction_seen:
                        self._conviction_seen.add((ousted, at_height))
                        self._adoptions_per_height[at_height] = (
                            self._adoptions_per_height.get(at_height, 0) + 1
                        )
                        self.result.view_changes_total += 1
                        if self.config.protocol == "ebrc":
                            self._failed[ousted] = self._failed.get(ousted, 0) + 1
                            if self.config.replace_faulty:
                                self._plan_replacement(ousted)
                elif kind == "membership_stalled":
                    self.result.stalled_memberships.append(
                        {"node": entry[1], "height": entry[2]}
                    )

        # Report confirmation: f+1 distinct honest reporters convict.
        for key in sorted(self._report_tally):
            reporters = self._report_tally[key]
            if len(reporters) >= self.f + 1:
                accused, kind, at_height = key
                self._epoch_events.append(reputation.ConfirmedReport(accused, kind))
                self._epoch_events.append(
                    reputation.DepositSlash(accused, self.config.slash_fraction)
                )
                self.result.confirmed_reports.append(
                    {
                        "node": accused,
                        "kind": kind,
                        "height": at_height,
                        "reporters": sorted(reporters),
                    }
                )
                if self.config.replace_faulty:
                    self._plan_replacement(accused)
                del self._report_tally[key]
        return self._adoptions_per_height.get(height, 0)

    def _plan_replacement(self, accused: int) -> None:
        if self.config.protocol == "ebrc" and accused in self.committee:
            self._replacements.add(accused)

    # -- membership --

    def _inject_scripted_exits(self, round_index: int) -> None:
        for script in self.config.exits:
            if script.round_index != round_index:
                continue
            exiter = script.node_id
            if exiter not in self.committee:
                logger.warning("scripted exit for non-member %d skipped", exiter)
                continue
            height = max(self.replicas[n].height for n in self.honest_ids)
            effective = height + EXIT_LEAD_BLOCKS
            request = signed(
                ExitRequest(node_id=exiter, effective_height=effective),
                self.registry,
                exiter,
            )
            self._membership_flows.append(
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
                self.sim.send(exiter, [master], request)

    def _current_master(self) -> int:
        for node in self.honest_ids:
            replica = self.replicas[node]
            if isinstance(replica, EbrcReplica) and replica.is_member:
                return replica.master_id()
        return self.committee[0]

    def _membership_message_count(self) -> int:
        return sum(self.sim.counters.per_tag.get(tag, 0) for tag in MEMBERSHIP_TAGS)

    def _apply_membership_transitions(self) -> None:
        if self.config.protocol != "ebrc":
            return
        next_height = max(self.replicas[n].height for n in self.honest_ids)
        due_exits: Set[int] = set()
        for node in self.honest_ids:
            replica = self.replicas[node]
            if replica.is_member:
                due_exits.update(replica.membership.due_exits(next_height))
        # A join is due only once the joiner itself holds 2f+1 confirmations;
        # members also record the joins they confirm, so theirs do not count.
        due_joins: Set[int] = set()
        for node in self.node_ids:
            h = self.replicas[node].membership.pending_joins.get(node)
            if h is not None and h <= next_height:
                due_joins.add(node)

        table_reputation = {n: rec.reputation for n, rec in self.table.items()}
        forced: Set[int] = set()
        for accused in sorted(self._replacements):
            plan = djep.replace_faulty(
                committee=tuple(self.committee),
                f=self.f,
                candidates=tuple(self.candidates),
                reputation=table_reputation,
                accused=accused,
            )
            if plan.stalled:
                self.result.stalled_memberships.append(
                    {"node": accused, "height": next_height, "forced": True}
                )
            elif plan.expel:
                forced.add(accused)
                if plan.promote is not None:
                    due_joins.add(plan.promote)
        self._replacements = set()

        if not due_exits and not due_joins and not forced:
            return

        new_committee = tuple(self.committee)
        applied_exits: List[int] = []
        applied_joins: List[int] = []
        for leaver in sorted(due_exits | forced):
            if leaver in new_committee:
                new_committee = djep.committee_without(new_committee, leaver)
                applied_exits.append(leaver)
        new_candidates = list(self.candidates)
        for joiner in sorted(due_joins):
            if joiner in new_committee:
                continue
            new_committee = djep.committee_with_join(
                new_committee, table_reputation, joiner
            )
            if joiner in new_candidates:
                new_candidates.remove(joiner)
            applied_joins.append(joiner)
        if not applied_exits and not applied_joins:
            return
        new_f = djep.committee_fault_budget(len(new_committee))

        self.committee = list(new_committee)
        self.candidates = new_candidates
        self.f = new_f
        applied = applied_exits + applied_joins
        for node in sorted(self.replicas):
            replica = self.replicas[node]
            replica.apply_membership(
                new_committee, new_candidates, new_f, view_hint=self._view_hint
            )
            replica.membership.clear_applied(applied)

        for leaver in applied_exits:
            kind = "replace" if leaver in forced else "exit"
            self.result.membership_log.append(
                {
                    "kind": kind,
                    "node": leaver,
                    "height": next_height,
                    "applied_at_us": self.sim.now,
                }
            )
        for joiner in applied_joins:
            self.result.membership_log.append(
                {
                    "kind": "join",
                    "node": joiner,
                    "height": next_height,
                    "applied_at_us": self.sim.now,
                }
            )
        for flow in self._membership_flows:
            if "settle_ms" in flow or flow["node"] not in applied_exits:
                continue
            flow["kind"] = "exit+join" if applied_joins else "exit"
            flow["applied_at_us"] = self.sim.now
            flow["settle_ms"] = (
                self._last_membership_delivery_us - flow["requested_at_us"]
            ) / US_PER_MS
            flow["messages"] = self._membership_message_count() - flow["messages_before"]

    # -- finish --

    def _finalize(self) -> None:
        self._drain_observations(max(self.replicas[n].height for n in self.honest_ids))
        self._check_ledger_agreement()
        result = self.result
        result.counters = self.sim.counters
        result.trace = self.sim.trace
        result.membership_flows = list(self._membership_flows)
        if self._adoptions_per_height:
            result.max_view_changes_per_height = max(self._adoptions_per_height.values())
        committed_tx = sum(b["tx_count"] for b in result.blocks)
        if (
            self._first_submit_us is not None
            and self._last_completion_us is not None
            and self._last_completion_us > self._first_submit_us
        ):
            duration_us = self._last_completion_us - self._first_submit_us
            result.duration_ms = duration_us / US_PER_MS
            result.tps = committed_tx / (duration_us / 1_000_000.0)
        if self.config.protocol == "ebrc":
            result.final_reputation = {
                n: rec.reputation for n, rec in sorted(self.table.items())
            }
            result.final_growth = {
                n: rec.growth_rate for n, rec in sorted(self.table.items())
            }

    def _check_ledger_agreement(self) -> None:
        digests: Dict[int, bytes] = {}
        for node in self.honest_ids:
            for height, block in sorted(self.replicas[node].ledger.items()):
                previous = digests.get(height)
                if previous is None:
                    digests[height] = block.block_digest
                elif previous != block.block_digest:
                    self.result.safety_violation = True
                    self.result.safety_details.append(
                        f"ledger divergence at height {height}: node {node}"
                    )


def run(config: ScenarioConfig) -> RunResult:
    return ScenarioRunner(config).run()
