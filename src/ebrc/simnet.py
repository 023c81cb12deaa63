"""Deterministic discrete-event message network.

Single integer microsecond clock, one global event heap ordered by
(deliver_time, insertion_seq), per-link latency/drop randomness derived from
the run seed and the link endpoints. Two runs with the same seed and the same
replica logic replay the exact same event sequence.

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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .crypto import KeyRegistry, digest
from .messages import (
    Commit,
    PbftCommit,
    PbftPrepare,
    PrePrepare,
    Prepare,
    VrfConnect,
    signed,
)

BYZANTINE_BEHAVIORS = ("silent", "equivocate", "corrupt_digest", "corrupt_proof", "lazy")


@dataclass(frozen=True, slots=True)
class ByzantineProfile:
    behavior: str
    latency_factor: float = 4.0  # lazy nodes multiply delivery latency by this

    def __post_init__(self) -> None:
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(f"unknown byzantine behavior {self.behavior!r}")
        if self.latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")


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


@dataclass(frozen=True, slots=True)
class TraceRecord:
    time_us: int
    sender: int
    target: int
    tag: str
    digest_prefix: str
    round_index: int
    delivered: bool


@dataclass(slots=True)
class Counters:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    suppressed: int = 0
    per_tag: Dict[str, int] = field(default_factory=dict)
    round_senders: Dict[int, Set[int]] = field(default_factory=dict)

    def note_sent(self, tag: str, round_index: int, sender: int, count: int) -> None:
        """Record one send that puts ``count`` messages on the wire."""
        self.sent += count
        self.per_tag[tag] = self.per_tag.get(tag, 0) + count
        self.round_senders.setdefault(round_index, set()).add(sender)


def _digest_prefix(message) -> str:
    value = getattr(message, "digest", None)
    if isinstance(value, bytes):
        return value[:4].hex()
    return ""


# What one send puts on a link: the message object, its tag, its digest
# prefix and the latency factor. Built once per distinct outbound object.
_Wire = Tuple[object, str, str, float]


def _wire(message, latency_factor: float = 1.0) -> _Wire:
    tag = getattr(type(message), "TAG", type(message).__name__.lower())
    return (message, tag, _digest_prefix(message), latency_factor)


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


def _corrupted_proof(message):
    """Mangle a connectivity proof so election-side verification rejects it."""
    if isinstance(message, VrfConnect):
        proof = bytes([message.proof[0] ^ 0xFF]) + message.proof[1:]
        return dataclasses.replace(message, proof=proof)
    return message


class Simulation:
    """Event loop: deliveries, timers, and deferred sends in one heap."""

    def __init__(
        self,
        run_seed: bytes,
        network: NetworkModel,
        registry: KeyRegistry,
        byzantine: Optional[Dict[int, ByzantineProfile]] = None,
    ) -> None:
        self.run_seed = run_seed
        self.network = network
        self.registry = registry
        self.byzantine = dict(byzantine or {})
        self.now = 0
        self.counters = Counters()
        self.trace: List[TraceRecord] = []
        self.on_deliver: Callable[[int, int, object], None] = lambda target, now, event: None
        self.on_timer: Callable[[int, int, object], None] = lambda target, now, tick: None
        # Reported each send so trace rows carry the active round index.
        self.round_provider: Callable[[], int] = lambda: 0
        self._heap: List[Tuple[int, int, Tuple]] = []
        self._seq = 0
        self._link_rngs: Dict[Tuple[int, int], random.Random] = {}

    # -- scheduling --

    def _push(self, at_us: int, item: Tuple) -> None:
        heapq.heappush(self._heap, (at_us, self._seq, item))
        self._seq += 1

    def schedule_timer(self, target: int, delay_us: int, tick) -> None:
        self._push(self.now + max(0, delay_us), ("timer", target, tick))

    def schedule_send(self, at_us: int, sender: int, targets: Sequence[int], message) -> None:
        """Defer a send to a future instant (client traffic injection)."""
        self._push(max(at_us, self.now), ("send", sender, tuple(targets), message))

    def send(self, sender: int, targets: Sequence[int], message) -> None:
        round_index = self.round_provider()
        plan = self._outbound_plan(self.byzantine.get(sender), targets, message)
        self.counters.suppressed += len(targets) - len(plan)
        if not plan:
            return  # nothing went out: the sender must not count as active
        # Every wire of one send has the same tag: variants keep the type.
        self.counters.note_sent(plan[0][1][1], round_index, sender, len(plan))
        for target, wire in plan:
            self._transmit(sender, target, wire, round_index)

    def _outbound_plan(
        self,
        profile: Optional[ByzantineProfile],
        targets: Sequence[int],
        message,
    ) -> List[Tuple[int, _Wire]]:
        """Pair each target with what goes out to it; a suppressed send
        pairs none.

        Each distinct outbound object gets one ``_Wire``, shared by all the
        targets that receive it.
        """
        if profile is None or (
            profile.behavior in ("silent", "lazy") and isinstance(message, VrfConnect)
        ):
            # Connectivity proofs are exempt from silence and laziness: a node
            # attacking the consensus phase still wants a committee seat.
            plain = _wire(message)
            return [(t, plain) for t in targets]
        if profile.behavior == "silent":
            return []
        if profile.behavior == "lazy":
            slow = _wire(message, profile.latency_factor)
            return [(t, slow) for t in targets]
        if profile.behavior == "corrupt_digest":
            mangled = _wire(_corrupted_digest(message, self.registry))
            return [(t, mangled) for t in targets]
        if profile.behavior == "corrupt_proof":
            mangled = _wire(_corrupted_proof(message))
            return [(t, mangled) for t in targets]
        # equivocate, the one behavior left
        original = _wire(message)
        variant = _equivocation_variant(message, self.registry)
        if variant is None:
            return [(t, original) for t in targets]
        other = _wire(variant)
        return [
            (t, original if i % 2 == 0 else other)
            for i, t in enumerate(sorted(targets))
        ]

    def _transmit(self, sender: int, target: int, wire: _Wire, round_index: int) -> None:
        if target == sender:
            raise ValueError("self-delivery is not modeled")
        message, tag, digest_prefix, latency_factor = wire
        rng = self._link_rng(sender, target)
        network = self.network
        dropped = bool(network.partitions) and network.partitioned(self.now, sender, target)
        if not dropped and network.drop_rate > 0.0:
            dropped = rng.random() < network.drop_rate
        self.trace.append(
            TraceRecord(
                time_us=self.now,
                sender=sender,
                target=target,
                tag=tag,
                digest_prefix=digest_prefix,
                round_index=round_index,
                delivered=not dropped,
            )
        )
        if dropped:
            self.counters.dropped += 1
            return
        latency = float(network.base_latency_us)
        if network.jitter_us:
            latency += rng.random() * network.jitter_us
        self._push(self.now + int(latency * latency_factor), ("deliver", target, sender, message))

    def _link_rng(self, sender: int, target: int) -> random.Random:
        key = (sender, target)
        rng = self._link_rngs.get(key)
        if rng is None:
            seed_bytes = digest(
                self.run_seed,
                sender.to_bytes(8, "big"),
                target.to_bytes(8, "big"),
                domain=b"link",
            )
            rng = random.Random(int.from_bytes(seed_bytes, "big"))
            self._link_rngs[key] = rng
        return rng

    # -- execution --

    def pending(self) -> bool:
        return bool(self._heap)

    def step_one(self) -> bool:
        """Process the single next event; False when the heap is empty."""
        if not self._heap:
            return False
        at_us, _, item = heapq.heappop(self._heap)
        self.now = max(self.now, at_us)
        kind = item[0]
        if kind == "deliver":
            _, target, sender, message = item
            self.counters.delivered += 1
            self.on_deliver(target, self.now, message)
        elif kind == "timer":
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

    def conservation_ok(self) -> bool:
        in_flight = sum(1 for _, _, item in self._heap if item[0] == "deliver")
        return self.counters.sent == self.counters.delivered + self.counters.dropped + in_flight
