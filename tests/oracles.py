"""Independent reference implementations used to derive expected test values.

Everything here is written from the definitions alone, deliberately naive and
separate from the package code, so the tests compare two implementations that
share no logic.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ebrc.consensus import QuorumConflict, batch_digest_of, check_quorum
from ebrc.crypto import VRF_RANGE, KeyRegistry, SimulatedVrf, digest, pack
from ebrc.messages import Commit, PbftPrepare, Prepare, PrePrepare, signature_ok, signed
from ebrc.simnet import receiver_rows


def blake2b_digest(*parts: bytes, domain: bytes = b"msg") -> bytes:
    """The package's digest from its definition: one BLAKE2b-256 over the
    domain with its length as 2 big-endian bytes before it, then each part
    with its length as 4 big-endian bytes before it. The framed message is
    built whole and hashed in one go; no hash state is cached or copied."""
    message = len(domain).to_bytes(2, "big") + domain
    for part in parts:
        message += len(part).to_bytes(4, "big") + part
    return hashlib.blake2b(message, digest_size=32).digest()


def brute_force_h_index(history: Sequence[int]) -> int:
    """Largest j such that at least j entries are >= j, by direct scan."""
    best = 0
    for j in range(1, len(history) + 1):
        if sum(1 for c in history if c >= j) >= j:
            best = j
    return best


def weighted_reputation(
    margin: float,
    incomplete: float,
    evil: float,
    activity: float,
    magnitude: float,
    weights: Sequence[float] = (0.1, 0.3, 0.3, 0.2, 0.1),
    *,
    complement: bool = True,
    floor: float = 1e-6,
) -> float:
    w_m, w_i, w_e, w_a, w_g = weights
    inc = (1.0 - incomplete) if complement else incomplete
    ev = (1.0 - evil) if complement else evil
    score = math.fsum((w_m * margin, w_i * inc, w_e * ev, w_a * activity, w_g * magnitude))
    return min(1.0, max(floor, score))


def growth_rate(r_now: float, r_then: float, rounds: int) -> float:
    return (r_now / r_then) ** (1.0 / (rounds - 1)) - 1.0


# Tags that the per-round consensus message-count laws below cover. Requests,
# replies to clients, elections, membership, and block announces are traced
# and counted under their own tags.
CONSENSUS_TAGS = ("preprepare", "prepare", "commit", "reply")


def naive_message_counts(trace) -> Tuple[int, Dict[str, int], Dict[int, int]]:
    """A trace's messages recounted one receiver row at a time: the total,
    the count per tag and the count per round."""
    total, by_tag, by_round = 0, {}, {}
    for _, _, _, tag, _, round_index, _ in receiver_rows(trace):
        total += 1
        by_tag[tag] = by_tag.get(tag, 0) + 1
        by_round[round_index] = by_round.get(round_index, 0) + 1
    return total, by_tag, by_round


def ebrc_message_law(m: int) -> int:
    """Fault-free per-round protocol messages for the two-phase committee flow."""
    return (m - 1) + m * (m - 1) + m


def pbft_message_law(n: int) -> int:
    """Fault-free per-round protocol messages for the three-phase baseline."""
    return (n - 1) + (n - 1) ** 2 + n * (n - 1) + n


def analytic_empty_committee(omega: float, n: int) -> float:
    """Probability that no node of n self-selects at threshold omega."""
    return (1.0 - omega) ** n


def chi_square_uniform(counts: Dict[int, int]) -> float:
    """Pearson chi-square statistic against the uniform expectation."""
    values = list(counts.values())
    expected = sum(values) / len(values)
    return sum((v - expected) ** 2 / expected for v in values)


def exit_messages(m: int) -> int:
    """One exit request plus an exit confirmation to each remaining member."""
    return 1 + (m - 1)


def join_messages(m: int) -> int:
    """One change notice, a join request to every member, and a confirmation
    from every member; m is the committee size during the handshake."""
    return 1 + m + m


def rank_by_reputation(table) -> list:
    """Node ids by descending current reputation, ties toward the lower id."""
    return sorted(table, key=lambda node: (-table[node].reputation, node))


def rank_by_growth(table) -> list:
    """Node ids by descending growth rate, ties toward the lower id."""
    return sorted(table, key=lambda node: (-table[node].growth_history[-1], node))


def _naive_top_slice(table, key, keep: int) -> set:
    """Ids whose key value ties or beats the keep-th best value."""
    if keep <= 0:
        return set()
    values = sorted((key(table[node]) for node in table), reverse=True)
    boundary = values[min(keep, len(values)) - 1]
    return {node for node in table if key(table[node]) >= boundary}


def naive_form_committee(table, seed: bytes, registry, *, omega, eligibility_percentile,
                         consensus_percentile, corrupt_proofs=frozenset()):
    """One election by the definition, or None where it fails: every node in
    the top ``eligibility_percentile`` by reputation and by growth draws in
    full with ``SimulatedVrf.evaluate``, a draw at most ``omega`` of the VRF
    range selects its node, and each selectee's proof (flipped in its first
    byte for a ``corrupt_proofs`` node) goes to ``SimulatedVrf.verify``.
    Returns ``((consensus, candidates, spares, f), reports)``."""
    cutoff = lambda count, percentile: int(math.floor(count * percentile + 1e-9))  # noqa: E731
    keep = cutoff(len(table), eligibility_percentile)
    eligible = _naive_top_slice(table, lambda r: r.reputation, keep) & _naive_top_slice(
        table, lambda r: r.growth_history[-1], keep
    )
    if len(eligible) < 4:
        return None
    vrf = SimulatedVrf(registry)
    reports, verified = [], []
    for node in sorted(eligible):
        out = vrf.evaluate(registry.key_pair(node).secret_key, seed)
        if out.value > omega * VRF_RANGE:
            continue
        proof = out.proof
        if node in corrupt_proofs:
            proof = bytes([proof[0] ^ 0xFF]) + proof[1:]
        ok, value = vrf.verify(registry.public_key(node), seed, proof)
        if ok and value == out.value:
            verified.append(node)
        else:
            reports.append((node, "invalid-sortition-proof"))
    if len(verified) < 4:
        return None
    ranked = sorted(verified, key=lambda node: (-table[node].reputation, node))
    n_cons = min(len(ranked), max(4, cutoff(len(ranked), consensus_percentile)))
    n_elig = max(n_cons, cutoff(len(ranked), eligibility_percentile))
    consensus = tuple(ranked[:n_cons])
    return (consensus, tuple(ranked[n_cons:n_elig]), tuple(ranked[n_elig:]),
            (len(consensus) - 1) // 3), reports


def naive_empty_committee_count(node_count: int, omega: float, trials: int, seed: int) -> int:
    """Trials of ``harness.empty_committee_probability`` in which no node
    self-selects: trial t draws every node in full with
    ``SimulatedVrf.evaluate`` on ``digest(base, t.to_bytes(8, "big"),
    domain=b"trial")``, with the study's keys and ``base`` derived from
    ``seed`` as that function derives them."""
    registry = KeyRegistry(digest(pack(seed), domain=b"empty-committee-keys"))
    secrets = [registry.register(node).secret_key for node in range(node_count)]
    vrf = SimulatedVrf(registry)
    base = digest(pack(seed), domain=b"empty-committee-trials")
    empty = 0
    for trial in range(trials):
        trial_seed = digest(base, trial.to_bytes(8, "big"), domain=b"trial")
        if all(vrf.evaluate(sk, trial_seed).value > omega * VRF_RANGE for sk in secrets):
            empty += 1
    return empty


class NaiveNetwork:
    """Reference event loop for ``simnet.Simulation``: one heap entry per
    delivery, timer and deferred send, keyed (time, insertion number).

    Written from the network model's definition. Each directed link draws
    from its own ``random.Random``, seeded with the big-endian integer of
    ``digest(run_seed, sender, target, domain=b"link")``, ids as 8 bytes. A
    link partitioned at the send instant drops the message and draws nothing.
    Otherwise the link draws once for a drop when ``drop_rate`` > 0 and, if
    the message survives, once for jitter when ``jitter_us`` > 0. The latency
    is ``int((base_latency_us + draw * jitter_us) * latency_factor)``, the
    factor 1 for a deferred send. An ``equivocators`` sender of a proposal
    of two or more requests sends to its targets in sorted order,
    alternating the proposal and a re-signed copy whose batch lacks the last
    request.
    """

    def __init__(self, run_seed: bytes, registry, *, base_latency_us: int, jitter_us: int,
                 drop_rate: float = 0.0, partitions=(), equivocators=()) -> None:
        self.run_seed = run_seed
        self.registry = registry
        self.base_latency_us = base_latency_us
        self.jitter_us = jitter_us
        self.drop_rate = drop_rate
        self.partitions = partitions
        self.equivocators = set(equivocators)
        self.now = 0
        self.events = []
        self.inserted = 0
        self.rngs = {}
        self.on_deliver = lambda target, now, event: None

    def _add(self, at_us, event) -> None:
        heapq.heappush(self.events, (at_us, self.inserted, event))
        self.inserted += 1

    def _rng(self, sender: int, target: int) -> random.Random:
        if (sender, target) not in self.rngs:
            seed = digest(self.run_seed, sender.to_bytes(8, "big"), target.to_bytes(8, "big"),
                          domain=b"link")
            self.rngs[sender, target] = random.Random(int.from_bytes(seed, "big"))
        return self.rngs[sender, target]

    def schedule_timer(self, target: int, delay_us: int, tick) -> None:
        self._add(self.now + max(0, delay_us), ("timer", target, tick))

    def schedule_send(self, at_us: int, sender: int, targets, message) -> None:
        self._add(max(at_us, self.now), ("send", sender, list(targets), message))

    def send(self, sender: int, targets, message, latency_factor: float = 1.0) -> None:
        messages = [message]
        if (sender in self.equivocators and isinstance(message, (Prepare, PrePrepare))
                and len(message.batch) > 1):
            shorter = message.batch[:-1]
            copy = dataclasses.replace(message, batch=shorter, digest=batch_digest_of(shorter))
            messages.append(signed(copy, self.registry, sender))
            targets = sorted(targets)
        for i, target in enumerate(targets):
            rng = self._rng(sender, target)
            if any(start <= self.now < end and (sender in nodes or target in nodes)
                   for start, end, nodes in self.partitions):
                continue
            if self.drop_rate > 0 and rng.random() < self.drop_rate:
                continue
            latency = float(self.base_latency_us)
            if self.jitter_us > 0:
                latency += rng.random() * self.jitter_us
            at_us = self.now + int(latency * latency_factor)
            self._add(at_us, ("deliver", target, messages[i % len(messages)]))

    def step_one(self) -> bool:
        if not self.events:
            return False
        at_us, _, event = heapq.heappop(self.events)
        self.now = max(self.now, at_us)
        if event[0] in ("deliver", "timer"):
            self.on_deliver(event[1], self.now, event[2])
        else:
            self.send(*event[1:])
        return True

    def run_until(self, deadline_us: int, stop=None) -> None:
        while self.events and self.events[0][0] <= deadline_us:
            if stop is not None and stop():
                return
            self.step_one()

    def in_flight(self) -> int:
        return sum(1 for _, _, event in self.events if event[0] == "deliver")


def send_key(targets, message) -> tuple:
    """A send as plain values: its targets, its type's name and the fields a
    vote or a reply carries."""
    name = type(message).__name__
    if name == "Reply":
        return tuple(targets), name, message.digest
    return tuple(targets), name, message.height, message.view, message.digest, message.sender


@dataclasses.dataclass
class StepExpectation:
    idle: bool = True  # the step returns the shared idle result
    sends: List[tuple] = dataclasses.field(default_factory=list)  # send_key tuples, in order
    observed: List[tuple] = dataclasses.field(default_factory=list)  # (kind, node, height)


class NaiveVotePath:
    """A replica's handling of votes and proposals, written from the protocol
    rules, for comparison step by step.

    Every signed vote the replica counts, its own included, is kept in one
    list; the oracle signs the replica's own votes itself, and votes compare
    equal by their fields alone. Each step recounts the tally of the
    replica's (height, view) from that whole list, each sender's latest vote
    per digest, and asks ``check_quorum`` (a Commit: 2f+1 senders, two such digests are a
    quorum conflict) or the prepared rule (PBFT: the proposal of the view
    plus 2f matching prepares, and no commit of this node's in the view yet).
    A received vote counts when the replica is a member, the vote is for its
    height, and a member signed it. ``expect`` reads the committee, f,
    height, view and proposal the stream left on the replica, before the
    step; it records the blocks it expects committed in ``ledger`` (height ->
    (batch digests, committers)), their quorums' votes in sender order in
    ``certs`` (height -> votes) and every observation in ``observed``.
    """

    def __init__(self, pbft: bool) -> None:
        self.pbft = pbft
        self.votes: List = []  # Commit and PbftPrepare objects, in count order
        self.ledger: Dict[int, tuple] = {}
        self.certs: Dict[int, tuple] = {}
        self.observed: List[tuple] = []

    def _tally(self, kind: str, height: int, view: int) -> Dict[bytes, dict]:
        tally: Dict[bytes, dict] = {}
        for vote in self.votes:
            if (type(vote).__name__, vote.height, vote.view) == (kind, height, view):
                tally.setdefault(vote.digest, {})[vote.sender] = vote
        return tally

    def _leader(self, replica, height: int, view: int) -> int:
        committee = replica.committee
        if self.pbft:
            return committee[view % len(committee)]
        return committee[(height + view) % (3 * replica.f + 1)]

    def _cast(self, replica, kind: str, digest_: bytes, out: StepExpectation) -> None:
        node = replica.node_id
        vote_type = Commit if kind == "Commit" else PbftPrepare
        vote = vote_type(height=replica.height, view=replica.view, digest=digest_, sender=node)
        self.votes.append(signed(vote, replica.registry, node))
        peers = tuple(p for p in replica.committee if p != node)
        out.sends.append((peers, kind, replica.height, replica.view, digest_, node))

    def _voted(self, replica, kind: str) -> bool:
        tally = self._tally(kind, replica.height, replica.view)
        return any(replica.node_id in senders for senders in tally.values())

    def _commit_check(self, replica, proposal, out: StepExpectation) -> Optional[bytes]:
        tally = self._tally("Commit", replica.height, replica.view)
        try:
            winner = check_quorum(tally, replica.f)
        except QuorumConflict:
            out.observed.append(("quorum_conflict", replica.node_id, replica.height))
            return None
        if winner is not None and proposal is not None and proposal.digest == winner:
            batch = proposal.batch
            senders = sorted(tally[winner])
            self.ledger[replica.height] = (tuple(r.digest for r in batch), tuple(senders))
            self.certs[replica.height] = tuple(tally[winner][s] for s in senders)
            for client in sorted({r.client_id for r in batch}):
                out.sends.append(((client,), "Reply", winner))
        return winner

    def _prepared(self, replica, proposal) -> bool:
        if proposal is None or proposal.view != replica.view:
            return False
        prepares = self._tally("PbftPrepare", replica.height, replica.view).get(proposal.digest, ())
        return len(prepares) >= 2 * replica.f and not self._voted(replica, "Commit")

    def _send_commit(self, replica, proposal, out: StepExpectation) -> None:
        self._cast(replica, "Commit", proposal.digest, out)
        self._commit_check(replica, proposal, out)

    def expect(self, replica, event) -> StepExpectation:
        out = StepExpectation()
        kind = type(event).__name__
        if kind in ("Commit", "PbftPrepare"):
            sender = event.sender
            if not (
                replica.node_id in replica.committee
                and event.height == replica.height
                and sender in replica.committee
                and signature_ok(event, replica.registry, sender)
            ):
                return out
            self.votes.append(event)
            if kind == "Commit":
                out.idle = self._commit_check(replica, replica.proposal, out) is None
            elif self._prepared(replica, replica.proposal):
                out.idle = False
                self._send_commit(replica, replica.proposal, out)
        else:  # the leader's proposal
            proposal = event
            if (
                replica.node_id not in replica.committee
                or proposal.height != replica.height
                or proposal.view != replica.view
                or proposal.sender != self._leader(replica, replica.height, replica.view)
                or proposal.sender == replica.node_id
                or not signature_ok(proposal, replica.registry, proposal.sender)
                or proposal.digest != batch_digest_of(proposal.batch)
            ):
                return out
            out.idle = False
            if not self.pbft:
                if not self._voted(replica, "Commit"):
                    self._cast(replica, "Commit", proposal.digest, out)
                self._commit_check(replica, proposal, out)
            else:
                if not self._voted(replica, "PbftPrepare"):
                    self._cast(replica, "PbftPrepare", proposal.digest, out)
                if self._prepared(replica, proposal):
                    self._send_commit(replica, proposal, out)
        self.observed.extend(out.observed)
        return out
