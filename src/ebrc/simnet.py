"""Deterministic discrete-event message network.

Single integer microsecond clock and per-message latency/drop randomness
that is a pure function of the run seed, the link and the message's place
on it. The messages on each directed link (sender, target) that no
partition cut are numbered k = 0, 1, 2, ...; the k-th takes a drop draw
and a jitter draw from the hash of (run seed, sender, target, k) (see
``Simulation._block``). A simulation keeps only its own per-link counts
and the hash outputs it has read, and nothing outlives a run, so a run's
draws do not depend on what ran before it. Every event has a key
(instant, scheduling order). The queue holds each pending instant once, on
a heap of plain ints, and beside it the instant's events in the order they
were scheduled, flat, three slots apiece (kind, node, payload); a send
appends each delivery it does not drop to its instant's list. So a
broadcast costs one heap push per new instant it reaches, not one per
message, queues no object per message, and events still come out in key
order. Two runs with the same seed and the same replica logic replay the
exact same event sequence.

The network carries what it is given and models links alone: latency,
jitter, drops and partitions. A faulty node's misbehaviour is the runner's
rewrite of its sends (``runner._send``); a lazy node's sends pass ``send`` a
``latency_factor``.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

# simnet.digest is unused here; perfbench/test_perfbench.py checks that its tracer rebinds it.
from .crypto import digest, hasher  # noqa: F401

_WORD_RANGE = float(1 << 32)  # a draw is a 32-bit word over this
_BIG_ENDIAN_HOST = sys.byteorder == "big"  # draw words are little-endian


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

    ``targets`` is in the caller's order, the order the send went out in.
    ``dropped`` holds the targets whose message the network dropped, in that
    order.
    """

    time_us: int
    sender: int
    targets: Tuple[int, ...]
    tag: str
    digest_prefix: str
    round_index: int
    dropped: Tuple[int, ...]


# One receiver's row of a trace; ``delivered`` is 1 when the network did not
# drop the message, else 0.
RECEIVER_ROW_FIELDS = (
    "time_us", "sender", "target", "tag", "digest_prefix", "round_index", "delivered",
)


def receiver_rows(trace: Iterable[TraceRecord]) -> Iterator[Tuple]:
    """Expand per-send records into one row per receiver, in send order."""
    for time_us, sender, targets, tag, prefix, round_index, dropped in trace:
        for target in targets:
            yield (
                time_us, sender, target, tag, prefix, round_index,
                0 if dropped and target in dropped else 1,
            )


@dataclass(slots=True)
class Counters:
    """Live message totals. The counts by tag and by round come from the
    trace alone (``harness.count_messages``)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    suppressed: int = 0

    def conserved(self, in_flight: int) -> bool:
        """Every sent message was delivered, dropped or is still in flight."""
        return self.sent == self.delivered + self.dropped + in_flight


def _digest_prefix(message) -> str:
    value = getattr(message, "digest", None)
    if isinstance(value, bytes):
        return value[:4].hex()
    return ""


class Simulation:
    """Event loop: deliveries, timers and deferred sends, queued by instant.

    ``_heap`` holds each instant with pending events once, as a plain int,
    and ``_due[instant]`` holds that instant's events in scheduling order,
    flat, three slots apiece (kind, node, payload): ``"deliver", target,
    message``, ``"timer", target, tick`` or ``"send", sender, (targets,
    message)``. Nothing is scheduled before the present, so only the
    earliest instant's list is ever taken from: ``_taken`` counts the slots
    taken from it, and the instant leaves both when its last event is
    taken. An event scheduled for the instant being drained joins the end
    of its list, or starts a new list once the list is done.

    ``_sent[sender][target]`` counts the messages on the link that no
    partition cut, so it is the next message's k; ``_blocks[sender]`` holds
    the words of each of the sender's blocks read so far (``_block``).
    """

    def __init__(self, run_seed: bytes, network: NetworkModel) -> None:
        self.network = network
        self.now = 0
        self.counters = Counters()
        self.trace: List[TraceRecord] = []  # one record per send on the wire
        # The one event hook: ``on_deliver(target, now, event)`` takes each
        # delivered message and each fired timer's tick.
        self.on_deliver: Callable[[int, int, object], None] = lambda target, now, event: None
        # The round in progress, which each send's trace record carries.
        self.round_index = 0
        self._heap: List[int] = []  # pending instants, each once
        self._due: Dict[int, list] = {}  # instant -> its events' slots in scheduling order
        self._taken = 0  # slots taken from the earliest instant's list
        # Every link block's hash starts with the same domain and run seed.
        self._link_prefix = hasher((run_seed,), b"link", xof=True)
        self._sent: Dict[int, List[int]] = defaultdict(list)  # sender -> target -> k
        self._blocks: Dict[int, Dict[int, array]] = defaultdict(dict)  # sender -> block -> words

    # -- scheduling --

    def _schedule(self, at_us: int, kind: str, node: int, payload) -> None:
        events = self._due.get(at_us)
        if events is None:
            events = self._due[at_us] = []
            heappush(self._heap, at_us)
        events += kind, node, payload

    def schedule_timer(self, target: int, delay_us: int, tick) -> None:
        self._schedule(self.now + max(0, delay_us), "timer", target, tick)

    def schedule_send(self, at_us: int, sender: int, targets: Sequence[int], message) -> None:
        """Defer a send to a future instant (client traffic injection)."""
        self._schedule(max(at_us, self.now), "send", sender, (tuple(targets), message))

    def send(
        self, sender: int, targets: Sequence[int], message, latency_factor: float = 1.0
    ) -> None:
        """Put ``message`` on each target's link, its latency times ``latency_factor``."""
        if not targets:
            return
        tag = getattr(type(message), "TAG", type(message).__name__.lower())
        targets = tuple(targets)
        if sender in targets:
            raise ValueError("self-delivery is not modeled")
        now = self.now
        network = self.network
        partitions = network.partitions
        # Words below this drop: a word w is the draw w / 2**32.
        drop_below = network.drop_rate * _WORD_RANGE
        base_latency, jitter_scale = float(network.base_latency_us), network.jitter_us / _WORD_RANGE
        top = max(targets)
        counts, blocks = self._sent[sender], self._blocks[sender]
        if len(counts) <= top:
            counts.extend([0] * (top + 1 - len(counts)))
        heap, due = self._heap, self._due
        dropped = []
        block = -1  # the block ``words`` holds, up to ``top``; a broadcast's links mostly share one
        for target in targets:
            if partitions and network.partitioned(now, sender, target):
                dropped.append(target)
                continue
            k = counts[target]
            counts[target] = k + 1
            if k >> 3 != block:
                block = k >> 3
                words = blocks.get(block)
                if words is None or len(words) <= top << 4:
                    words = blocks[block] = self._block(sender, block, top)
            at = target << 4 | (k & 7) << 1
            if drop_below and words[at] < drop_below:
                dropped.append(target)
                continue
            at_us = now + int((base_latency + words[at + 1] * jitter_scale) * latency_factor)
            # _schedule, inlined: this loop runs once per message.
            events = due.get(at_us)
            if events is None:
                events = due[at_us] = []
                heappush(heap, at_us)
            events += "deliver", target, message
        self.counters.sent += len(targets)
        self.counters.dropped += len(dropped)
        self.trace.append(
            TraceRecord(
                now, sender, targets, tag, _digest_prefix(message), self.round_index,
                tuple(dropped),
            )
        )

    def _block(self, sender: int, block: int, top: int) -> array:
        """The draws of messages ``8 * block`` to ``8 * block + 7`` on the
        sender's links to targets 0 to ``top``: the first ``64 * (top + 1)``
        bytes of the SHAKE-128 output over the run seed, the sender and the
        block, both ids as 8 big-endian bytes (``hasher(..., xof=True)``
        under ``b"link"``). Target t's eight messages hold the 64 bytes from
        ``64 * t``, two little-endian 32-bit words apiece: the drop word,
        then the jitter word. A longer output starts with a shorter one, so no
        draw depends on how many targets the output covers."""
        ids = (sender.to_bytes(8, "big"), block.to_bytes(8, "big"))
        words = array("I", hasher(ids, prefix=self._link_prefix).digest((top + 1) << 6))
        if _BIG_ENDIAN_HOST:
            words.byteswap()
        return words

    # -- execution --

    def step_one(self) -> bool:
        """Process the single next event; False when nothing is queued."""
        heap = self._heap
        if not heap:
            return False
        self.now = now = heap[0]
        due = self._due
        events = due[now]
        taken = self._taken
        kind, node, payload = events[taken], events[taken + 1], events[taken + 2]
        taken += 3
        # Take the event off the queue before its callback schedules more.
        if taken == len(events):
            heappop(heap)
            del due[now]
            taken = 0
        self._taken = taken
        if kind == "deliver":
            self.counters.delivered += 1
            self.on_deliver(node, now, payload)
        elif kind == "timer":
            self.on_deliver(node, now, payload)
        else:
            self.send(node, *payload)
        return True

    def run_until(self, deadline_us: int, stop: Optional[Callable[[], bool]] = None) -> None:
        """Drain events up to the deadline, optionally stopping early."""
        heap, step = self._heap, self.step_one
        while heap and heap[0] <= deadline_us:
            if stop is not None and stop():
                return
            step()

    def _queued(self) -> Iterator[Tuple]:
        """Every event not yet taken, as a (kind, node, payload) tuple."""
        earliest = self._heap[0] if self._heap else None
        for at_us, events in self._due.items():
            slots = iter(events[self._taken :] if at_us == earliest else events)
            yield from zip(slots, slots, slots)

    def in_flight(self) -> int:
        """Deliveries still queued."""
        return sum(event[0] == "deliver" for event in self._queued())

    def conservation_ok(self) -> bool:
        return self.counters.conserved(self.in_flight())
