"""Shared helpers for tests: key setup, a message pump and trace rows."""

from collections import Counter, deque, namedtuple

from ebrc.consensus import (
    BATCH_WINDOW_US as BATCH_US,
    VIEW_TIMEOUT_US as TIMEOUT_US,
    EbrcReplica,
    PbftReplica,
    StepResult,
    tx_digest,
)
from ebrc.crypto import KeyRegistry
from ebrc.messages import Request, signed
from ebrc.simnet import RECEIVER_ROW_FIELDS, receiver_rows

CLIENT = 100


Row = namedtuple("Row", RECEIVER_ROW_FIELDS)


def trace_rows(trace):
    """A trace's receiver rows, as ``trace.csv`` writes them, with named fields."""
    return [Row(*row) for row in receiver_rows(trace)]


def per_recipient(result: StepResult, cls):
    """The ``cls`` messages a step sends, as one ``(target, message)`` pair
    per recipient, in send order."""
    return [(t, m) for targets, m in result.sends if isinstance(m, cls) for t in targets]


def make_registry(n: int) -> KeyRegistry:
    reg = KeyRegistry(seed=b"consensus-tests")
    for node in range(n):
        reg.register(node)
    reg.register(CLIENT)
    return reg


def make_request(registry, payload=b"tx-1", ts=10, client=CLIENT) -> Request:
    req = Request(timestamp=ts, payload=payload, digest=tx_digest(payload), client_id=client)
    return signed(req, registry, client)


def make_committee(m: int, registry=None, candidates=(), reputation=None):
    registry = registry or make_registry(m)
    f = (m - 1) // 3
    table = reputation or {i: 0.5 for i in range(m)}
    replicas = {}
    for node in range(m):
        rep = EbrcReplica(node, registry, block_tx_cap=3)
        rep.set_committee(range(m), candidates, f, table_reputation=table)
        replicas[node] = rep
    return replicas, registry


def view_changes(replica) -> int:
    """The view changes a replica has adopted: one ``incompletion``
    observation each, until the runner drains them."""
    return sum(1 for entry in replica.observations if entry[0] == "incompletion")


def make_group(n: int, registry=None):
    registry = registry or make_registry(n)
    replicas = {
        node: PbftReplica(node, registry, block_tx_cap=3, group=range(n))
        for node in range(n)
    }
    return replicas, registry


class Pump:
    """Synchronous FIFO delivery between replicas, counting messages by type:
    one per recipient, so a broadcast to three peers counts three.

    Timers are collected but only fired explicitly, so tests control which
    watchdogs expire.
    """

    def __init__(self, replicas):
        self.replicas = replicas
        self.queue = deque()
        self.timers = []
        self.counts = Counter()

    def absorb(self, owner, result: StepResult) -> None:
        for targets, message in result.sends:
            self.counts[type(message).__name__] += len(targets)
            self.queue.extend((target, message) for target in targets)
        for _delay, tick in result.timers:
            self.timers.append((owner, tick))

    def deliver_all(self, now: int = 0) -> None:
        while self.queue:
            target, message = self.queue.popleft()
            replica = self.replicas.get(target)
            if replica is None:
                continue  # client address
            self.absorb(target, replica.step(now, message))

    def fire(self, owner: int, kind: str, now: int = 0) -> bool:
        for i, (oid, tick) in enumerate(self.timers):
            if oid == owner and tick.kind == kind:
                del self.timers[i]
                self.absorb(owner, self.replicas[owner].step(now, tick))
                return True
        return False
