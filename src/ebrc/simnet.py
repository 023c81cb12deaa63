"""Deterministic discrete-event message network.

Single integer microsecond clock and per-link latency/drop randomness
derived from the run seed and the link endpoints. Each directed link draws
from the stream of ``random.Random(int.from_bytes(link_seed, "big"))``.
Every simulation of one run seed shares its links' streams: a module-level
cache holds the streams of the most recent run seed, one seed at a time,
each an array of the draws taken so far in stream order, and a simulation
keeps only an integer cursor per link. A stream starts with 16 draws. When
a cursor comes within two draws of its end, the generator is seeded again,
skips the draws the stream holds and appends as many again, so a stream
doubles and no link keeps a 2.5 KB Mersenne Twister state. Paired runs of
one seed (EBRC and PBFT, clean and Byzantine, each n of a sweep) seed each
link once between them, and the last seed's streams outlive its runs until
a run of another seed replaces them. Every event has a key
(instant, scheduling order). The queue holds each pending instant once, on
a heap of plain ints, and beside it the instant's events in the order they
were scheduled; a send appends each delivery it does not drop to its
instant's list. So a broadcast costs one heap push per new instant it
reaches, not one per message, and events still come out in key order. Two
runs with the same seed and the same replica logic replay the exact same
event sequence.

The network carries what it is given and models links alone: latency,
jitter, drops and partitions. A faulty node's misbehaviour is the runner's
rewrite of its sends (``runner._send``); a lazy node's sends pass ``send`` a
``latency_factor``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
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

_FIRST_DRAWS = 16  # draws a stream holds at first use; a target takes at most two


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


@lru_cache(maxsize=1)
def _link_streams(run_seed: bytes) -> Tuple[object, Dict[int, Dict[int, array]]]:
    """The link seed prefix of ``run_seed`` and the streams of its links so
    far (sender -> target -> draws), shared by every simulation of the seed.
    A simulation holds on to its seed's pair, so a run of another seed
    evicting it changes no draw: the next simulation of the seed starts
    its streams afresh. The last seed's streams outlive its simulations;
    ``_link_streams.cache_clear()`` frees them."""
    return hasher((run_seed,), b"link"), {}


def _digest_prefix(message) -> str:
    value = getattr(message, "digest", None)
    if isinstance(value, bytes):
        return value[:4].hex()
    return ""


class Simulation:
    """Event loop: deliveries, timers and deferred sends, queued by instant.

    ``_heap`` holds each instant with pending events once, as a plain int,
    and ``_due[instant]`` holds that instant's events in scheduling order,
    each a tuple led by its kind: ``("deliver", target, message)``,
    ``("timer", target, tick)`` or ``("send", sender, targets, message)``.
    Nothing is scheduled before the present, so only the earliest instant's
    list is ever taken from: ``_taken`` counts the events taken from it,
    and the instant leaves both when its last event is taken. An event
    scheduled for the instant being drained joins the end of its list, or
    starts a new list once the list is done.
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
        self._due: Dict[int, List[Tuple]] = {}  # instant -> its events in scheduling order
        self._taken = 0  # events taken from the earliest instant's list
        # Every link seed starts with the same domain and run seed; the
        # streams are the seed's, and the cursors this run's own.
        self._link_seed_prefix, self._streams = _link_streams(run_seed)
        self._cursors: Dict[int, Dict[int, int]] = {}  # sender -> target -> next draw

    # -- scheduling --

    def _schedule(self, at_us: int, event: Tuple) -> None:
        events = self._due.get(at_us)
        if events is None:
            events = self._due[at_us] = []
            heappush(self._heap, at_us)
        events.append(event)

    def schedule_timer(self, target: int, delay_us: int, tick) -> None:
        self._schedule(self.now + max(0, delay_us), ("timer", target, tick))

    def schedule_send(self, at_us: int, sender: int, targets: Sequence[int], message) -> None:
        """Defer a send to a future instant (client traffic injection)."""
        self._schedule(max(at_us, self.now), ("send", sender, tuple(targets), message))

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
        # Each link draws from its own stream: the drop draw (when the link is
        # not partitioned), then the jitter draw (when the message survives).
        now = self.now
        network = self.network
        partitions, drop_rate = network.partitions, network.drop_rate
        base_latency, jitter_us = float(network.base_latency_us), network.jitter_us
        streams = self._streams.get(sender)
        if streams is None:
            streams = self._streams[sender] = {}
        cursors = self._cursors.get(sender)
        if cursors is None:
            cursors = self._cursors[sender] = {}
        heap, due = self._heap, self._due
        dropped = []
        for target in targets:
            at = cursors.get(target, 0)
            draws = streams.get(target)
            if draws is None or len(draws) < at + 2:  # a target takes at most two
                draws = self._next_draws(sender, target, draws)
            if partitions and network.partitioned(now, sender, target):
                dropped.append(target)
                continue
            if drop_rate > 0.0:
                drop_draw = draws[at]
                at += 1
                if drop_draw < drop_rate:
                    cursors[target] = at
                    dropped.append(target)
                    continue
            latency = base_latency
            if jitter_us:
                latency += draws[at] * jitter_us
                at += 1
            cursors[target] = at
            at_us = now + int(latency * latency_factor)
            # _schedule, inlined: this loop runs once per message.
            events = due.get(at_us)
            if events is None:
                events = due[at_us] = []
                heappush(heap, at_us)
            events.append(("deliver", target, message))
        self.counters.sent += len(targets)
        self.counters.dropped += len(dropped)
        self.trace.append(
            TraceRecord(
                now, sender, targets, tag, _digest_prefix(message), self.round_index,
                tuple(dropped),
            )
        )

    def link_seed(self, sender: int, target: int) -> bytes:
        """Seed of the link's random stream:
        ``digest(run_seed, sender, target, domain=b"link")``, with both ids
        as 8 big-endian bytes. The stream is that of
        ``random.Random(int.from_bytes(seed, "big")).random()``, which the
        run seed's simulations share (see ``_next_draws``). It is finished
        from the seed's hasher state, not through ``digest``: a run seeds
        only the links no earlier run of its seed seeded, while ``digest``'s
        calls count the same protocol hashing on every run of a seed."""
        ids = (sender.to_bytes(8, "big"), target.to_bytes(8, "big"))
        return hasher(ids, prefix=self._link_seed_prefix).digest()

    def _next_draws(self, sender: int, target: int, draws: Optional[array]) -> array:
        """The link's stream, grown: its first 16 draws when the run seed's
        streams hold none of it (``draws`` is None), else ``draws`` with as
        many draws again appended in place. A stream doubles, so a link
        seeds a logarithmic number of times in the draws it takes, and the
        draws before a simulation's cursor never change.
        """
        rng = random.Random(int.from_bytes(self.link_seed(sender, target), "big"))
        if draws is None:
            draws = self._streams[sender][target] = array("d")
            count = _FIRST_DRAWS
        else:
            count = len(draws)
            # Skip the draws held: random() takes two 32-bit words, as does
            # each 64 bits of getrandbits.
            rng.getrandbits(64 * count)
        draw = rng.random
        draws.extend([draw() for _ in range(count)])
        return draws

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
        event = events[taken]
        taken += 1
        # Take the event off the queue before its callback schedules more.
        if taken == len(events):
            heappop(heap)
            del due[now]
            taken = 0
        self._taken = taken
        kind = event[0]
        if kind == "deliver":
            self.counters.delivered += 1
            self.on_deliver(event[1], now, event[2])
        elif kind == "timer":
            self.on_deliver(event[1], now, event[2])
        else:
            self.send(event[1], event[2], event[3])
        return True

    def run_until(self, deadline_us: int, stop: Optional[Callable[[], bool]] = None) -> None:
        """Drain events up to the deadline, optionally stopping early."""
        heap, step = self._heap, self.step_one
        while heap and heap[0] <= deadline_us:
            if stop is not None and stop():
                return
            step()

    def _queued(self) -> Iterator[Tuple]:
        """Every event not yet taken."""
        earliest = self._heap[0] if self._heap else None
        for at_us, events in self._due.items():
            yield from events[self._taken :] if at_us == earliest else events

    def in_flight(self) -> int:
        """Deliveries still queued."""
        return sum(event[0] == "deliver" for event in self._queued())

    def conservation_ok(self) -> bool:
        return self.counters.conserved(self.in_flight())
