"""Deterministic discrete-event message network.

Single integer microsecond clock and per-link latency/drop randomness
derived from the run seed and the link endpoints. Each directed link draws
from the stream of ``random.Random(int.from_bytes(link_seed, "big"))``, but
keeps only its next few draws, not a generator: at first use it takes a
block of 16 and drops the generator. When fewer than the two draws a target
may need remain, it seeds the generator again, skips the draws already
handed out and takes a block as long as its stream so far. A link that
draws a handful of values, the common case, costs a few hundred bytes, not
a 2.5 KB Mersenne Twister state. Every event has a key
(deliver_time, insertion_seq). Timers and deferred sends enter the event heap
one by one; a send enters it as one run of its deliveries sorted by key, and
the heap merges the runs, so events still come out in key order. Two runs
with the same seed and the same replica logic replay the exact same event
sequence.

Byzantine behavior is modeled as an outbound transform on the faulty sender's
messages (suppress, delay, split into signed variants, corrupt the digest and
re-sign). Faulty nodes control their own keys, so re-signed garbage carries a
valid signature; detection has to come from content validation, not from
signature checks.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from dataclasses import dataclass, field
from itertools import cycle, repeat
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .crypto import KeyRegistry, digest, hasher
from .messages import (
    Commit,
    PbftCommit,
    PbftPrepare,
    PrePrepare,
    Prepare,
    VrfConnect,
    signed,
)

_TIME = itemgetter(0)  # a delivery row's time
_FIRST_BLOCK = 16  # draws a link takes at first use; a target takes at most two

BYZANTINE_BEHAVIORS = ("silent", "equivocate", "corrupt_digest", "corrupt_proof", "lazy")
LAZY_LATENCY_FACTOR = 4.0  # a lazy node's deliveries take this many times as long


@dataclass(frozen=True, slots=True)
class ByzantineProfile:
    behavior: str

    def __post_init__(self) -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(f"unknown byzantine behavior {self.behavior!r}")


@dataclass(frozen=True, slots=True)
class NetworkModel:
    base_latency_us: int = 2_000
    jitter_us: int = 1_000
    drop_rate: float = 0.0
    # Partition windows: (start_us, end_us, nodes); traffic touching a
    # partitioned node inside its window is dropped (and logged as a drop).
    partitions: Tuple[Tuple[int, int, frozenset], ...] = ()

    def __post_init__(self) -> None:
        if self.base_latency_us < 0 or self.jitter_us < 0:
            raise ValueError("latency parameters must be >= 0")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        for start, end, nodes in self.partitions:
            if start < 0 or end < start:
                raise ValueError("partition window must satisfy 0 <= start <= end")

    def partitioned(self, now_us: int, sender: int, target: int) -> bool:
        for start, end, nodes in self.partitions:
            if start <= now_us < end and (sender in nodes or target in nodes):
                return True
        return False


class TraceRecord(NamedTuple):
    """One send that put anything on the wire.

    ``targets`` is in plan order: the order the send went out in, which is
    the order of the caller's target list except for an equivocating split,
    which goes out to the sorted targets. ``digest_prefix`` is one string,
    or one string per target when equivocation split the send into two
    variants. ``dropped`` holds the targets whose message the network
    dropped, in plan order.
    """

    time_us: int
    sender: int
    targets: Tuple[int, ...]
    tag: str
    digest_prefix: Union[str, Tuple[str, ...]]
    round_index: int
    dropped: Tuple[int, ...]


# One receiver's row of a trace; ``delivered`` is 1 when the network did not
# drop the message, else 0.
RECEIVER_ROW_FIELDS = (
    "time_us", "sender", "target", "tag", "digest_prefix", "round_index", "delivered",
)


def receiver_rows(trace: Iterable[TraceRecord]) -> Iterator[Tuple]:
    """Expand per-send records into one row per receiver, in plan order."""
    for time_us, sender, targets, tag, prefix, round_index, dropped in trace:
        prefixes = prefix if isinstance(prefix, tuple) else repeat(prefix)
        for target, target_prefix in zip(targets, prefixes):
            yield (
                time_us, sender, target, tag, target_prefix, round_index,
                0 if dropped and target in dropped else 1,
            )


@dataclass(slots=True)
class Counters:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    suppressed: int = 0
    per_tag: Dict[str, int] = field(default_factory=dict)
    per_round: Dict[int, int] = field(default_factory=dict)
    round_senders: Dict[int, Set[int]] = field(default_factory=dict)

    def note_sent(self, tag: str, round_index: int, sender: int, count: int) -> None:
        """Record one send that puts ``count`` messages on the wire."""
        self.sent += count
        self.per_tag[tag] = self.per_tag.get(tag, 0) + count
        self.per_round[round_index] = self.per_round.get(round_index, 0) + count
        self.round_senders.setdefault(round_index, set()).add(sender)

    def conserved(self, in_flight: int) -> bool:
        """Every sent message was delivered, dropped or is still in flight."""
        return self.sent == self.delivered + self.dropped + in_flight


def _digest_prefix(message) -> str:
    value = getattr(message, "digest", None)
    if isinstance(value, bytes):
        return value[:4].hex()
    return ""


def _equivocation_variant(message, registry: KeyRegistry):
    """Second proposal half the committee will see: the batch minus its tail.

    The shortened batch still contains only client-signed requests, so it
    survives content validation; only the digest differs. A single-request
    batch has no valid strict subset, so no variant exists for it.
    """
    if not isinstance(message, (Prepare, PrePrepare)) or len(message.batch) < 2:
        return None
    from .consensus import batch_digest_of  # local import avoids a cycle

    variant_batch = message.batch[:-1]
    variant = dataclasses.replace(
        message,
        batch=variant_batch,
        digest=batch_digest_of(variant_batch),
        signature=b"",
    )
    return signed(variant, registry, message.sender)


def _corrupted_digest(message, registry: KeyRegistry):
    """Flip a digest byte in a consensus message and re-sign it.

    The signature is regenerated so receivers face a content error, not a
    signature error: detection must come from digest validation.
    """
    if isinstance(message, (Prepare, PrePrepare, Commit, PbftPrepare, PbftCommit)):
        bad = bytes([message.digest[0] ^ 0xFF]) + message.digest[1:]
        mangled = dataclasses.replace(message, digest=bad, signature=b"")
        return signed(mangled, registry, message.sender)
    return message


class Simulation:
    """Event loop: deliveries, timers, and deferred sends in one heap.

    A heap entry is ``(time_us, seq, item)``, and no two entries share a key.
    A timer's or a deferred send's item is a tuple led by its kind. A send's
    item is ``("deliver", run)``: ``run`` holds the send's undelivered
    ``(time_us, seq, target, message)`` rows in descending key order, and the
    entry carries the key of its last row, the next to be delivered.
    """

    def __init__(
        self,
        run_seed: bytes,
        network: NetworkModel,
        registry: KeyRegistry,
        byzantine: Optional[Dict[int, ByzantineProfile]] = None,
    ) -> None:
        self.network = network
        self.registry = registry
        self.byzantine = dict(byzantine or {})
        self.now = 0
        self.counters = Counters()
        self.trace: List[TraceRecord] = []  # one record per send on the wire
        self.on_deliver: Callable[[int, int, object], None] = lambda target, now, event: None
        self.on_timer: Callable[[int, int, object], None] = lambda target, now, tick: None
        # Reported each send so trace rows carry the active round index.
        self.round_provider: Callable[[], int] = lambda: 0
        self._heap: List[Tuple[int, int, Tuple]] = []
        self._seq = 0
        self._link_draws: Dict[int, Dict[int, List]] = {}  # sender -> target -> block
        # Every link seed starts with the same domain and run seed.
        self._link_seed_prefix = hasher((run_seed,), b"link")

    # -- scheduling --

    def schedule_timer(self, target: int, delay_us: int, tick) -> None:
        at_us = self.now + max(0, delay_us)
        heapq.heappush(self._heap, (at_us, self._seq, ("timer", target, tick)))
        self._seq += 1

    def schedule_send(self, at_us: int, sender: int, targets: Sequence[int], message) -> None:
        """Defer a send to a future instant (client traffic injection)."""
        at_us = max(at_us, self.now)
        heapq.heappush(self._heap, (at_us, self._seq, ("send", sender, tuple(targets), message)))
        self._seq += 1

    def send(self, sender: int, targets: Sequence[int], message) -> None:
        profile = self.byzantine.get(sender)
        if profile and profile.behavior in ("silent", "lazy") and isinstance(message, VrfConnect):
            # Connectivity proofs are exempt from silence and laziness: a node
            # attacking the consensus phase still wants a committee seat.
            profile = None
        variants = self._outbound(profile, message)
        if not variants or not targets:
            # Nothing went out: the sender must not count as active.
            self.counters.suppressed += len(targets)
            return
        round_index = self.round_provider()
        # Variants keep the message type, so one tag serves the whole send.
        tag = getattr(type(message), "TAG", type(message).__name__.lower())
        latency_factor = LAZY_LATENCY_FACTOR if profile and profile.behavior == "lazy" else 1.0
        prefixes = [_digest_prefix(variant) for variant in variants]
        if len(variants) == 1:
            plan = tuple(targets)
            prefix = prefixes[0]
        else:
            # Equivocation: the sorted targets alternate between the variants.
            plan = tuple(sorted(targets))
            prefix = tuple(prefixes[i % 2] for i in range(len(plan)))
        if sender in plan:
            raise ValueError("self-delivery is not modeled")
        # Each link draws from its own stream: the drop draw (when the link is
        # not partitioned), then the jitter draw (when the message survives).
        now = self.now
        network = self.network
        partitions, drop_rate = network.partitions, network.drop_rate
        base_latency, jitter_us = float(network.base_latency_us), network.jitter_us
        link_draws = self._link_draws.get(sender)
        if link_draws is None:
            link_draws = self._link_draws[sender] = {}
        seq = self._seq
        dropped = []
        run = []
        for target, outgoing in zip(plan, cycle(variants)):
            draws = link_draws.get(target)
            if draws is None or len(draws) < 3:  # the position and two draws
                draws = link_draws[target] = self._next_draws(sender, target, draws)
            if (partitions and network.partitioned(now, sender, target)) or (
                drop_rate > 0.0 and draws.pop() < drop_rate
            ):
                dropped.append(target)
                continue
            latency = base_latency
            if jitter_us:
                latency += draws.pop() * jitter_us
            run.append((now + int(latency * latency_factor), seq, target, outgoing))
            seq += 1
        self._seq = seq
        if run:
            # Rows were made in seq order, and the sort is stable, so rows of
            # equal time stay in seq order: the run is sorted by key.
            run.sort(key=_TIME)
            run.reverse()
            heapq.heappush(self._heap, (run[-1][0], run[-1][1], ("deliver", run)))
        self.counters.dropped += len(dropped)
        self.counters.note_sent(tag, round_index, sender, len(plan))
        self.trace.append(
            TraceRecord(now, sender, plan, tag, prefix, round_index, tuple(dropped))
        )

    def _outbound(self, profile: Optional[ByzantineProfile], message) -> List[object]:
        """The message variants one send puts on the wire: none when it is
        suppressed, one shared by every target, or two when the sender
        equivocates."""
        # A corrupt proof fails the election's verification
        # (election.form_committee), not any check on the wire.
        if profile is None or profile.behavior in ("lazy", "corrupt_proof"):
            return [message]
        if profile.behavior == "silent":
            return []
        if profile.behavior == "corrupt_digest":
            return [_corrupted_digest(message, self.registry)]
        # equivocate, the one behavior left
        variant = _equivocation_variant(message, self.registry)
        return [message] if variant is None else [message, variant]

    def link_seed(self, sender: int, target: int) -> bytes:
        """Seed of the link's random stream:
        ``digest(run_seed, sender, target, domain=b"link")``, with both ids
        as 8 big-endian bytes. The stream is that of
        ``random.Random(int.from_bytes(seed, "big")).random()``; the link
        draws it in blocks (see ``_next_draws``)."""
        return digest(
            sender.to_bytes(8, "big"), target.to_bytes(8, "big"), prefix=self._link_seed_prefix
        )

    def _next_draws(self, sender: int, target: int, draws: Optional[List]) -> List:
        """The link's next block of draws, given what is left of its last one
        (None before its first).

        The list is ``[end, d[end - 1], ..., d[start]]``: ``end`` is how far
        into the stream the block reaches, and ``pop()`` hands out the next
        draw. The first block holds 16 draws. A later one starts at the first
        draw not handed out and holds as many draws as the last block reached
        (its ``end``), so ``end`` about doubles: a link re-seeds a logarithmic
        number of times in the draws it takes and holds at most about as many
        unused draws as it has handed out.
        """
        if draws is None:
            start, end = 0, _FIRST_BLOCK
        else:
            start = draws[0] - (len(draws) - 1)
            end = start + draws[0]
        draw = random.Random(int.from_bytes(self.link_seed(sender, target), "big")).random
        for _ in range(start):
            draw()
        block = [draw() for _ in range(end - start)]
        block.append(end)
        return block[::-1]  # a copy sized to fit, unlike the grown list

    # -- execution --

    def pending(self) -> bool:
        return bool(self._heap)

    def step_one(self) -> bool:
        """Process the single next event; False when the heap is empty."""
        heap = self._heap
        if not heap:
            return False
        at_us, _, item = heap[0]
        self.now = max(self.now, at_us)
        kind = item[0]
        if kind == "deliver":
            run = item[1]
            _, _, target, message = run.pop()
            # Advance the run first: while the callback runs, the heap must
            # hold this run's next key.
            if run:
                heapq.heapreplace(heap, (run[-1][0], run[-1][1], item))
            else:
                heapq.heappop(heap)
            self.counters.delivered += 1
            self.on_deliver(target, self.now, message)
            return True
        heapq.heappop(heap)
        if kind == "timer":
            _, target, tick = item
            self.on_timer(target, self.now, tick)
        elif kind == "send":
            _, sender, targets, message = item
            self.send(sender, targets, message)
        return True

    def run_until(self, deadline_us: int, stop: Optional[Callable[[], bool]] = None) -> None:
        """Drain events up to the deadline, optionally stopping early."""
        while self._heap and self._heap[0][0] <= deadline_us:
            if stop is not None and stop():
                return
            self.step_one()

    def in_flight(self) -> int:
        """Deliveries still queued: the rest of every send's run."""
        return sum(len(item[1]) for _, _, item in self._heap if item[0] == "deliver")

    def conservation_ok(self) -> bool:
        return self.counters.conserved(self.in_flight())
