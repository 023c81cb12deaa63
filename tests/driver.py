"""Shared helpers for tests: key setup, a message pump and trace rows."""

from collections import Counter, deque, namedtuple

from ebrc.consensus import (
    BATCH_WINDOW_US as BATCH_US,
    VIEW_TIMEOUT_US as TIMEOUT_US,
    EbrcReplica,
    PbftReplica,
    StepResult,
    batch_digest_of,
    tx_digest,
)
from ebrc.crypto import KeyRegistry
from ebrc.messages import Commit, Prepare, Request, VrfConnect, signed
from ebrc.runner import byzantine_sends
from ebrc.simnet import RECEIVER_ROW_FIELDS, NetworkModel, Simulation, receiver_rows

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


def make_prepare(registry, payloads=(b"a", b"b"), sender=0) -> Prepare:
    batch = tuple(make_request(registry, p, ts=10 + i) for i, p in enumerate(payloads))
    prepare = Prepare(
        height=1, view=0, timestamp=0,
        batch=batch, digest=batch_digest_of(batch), sender=sender,
    )
    return signed(prepare, registry, sender)


def make_commit(registry, sender=0, height=1) -> Commit:
    commit = Commit(height=height, view=0, digest=b"d" * 32, sender=sender)
    return signed(commit, registry, sender)


def make_connect(registry, sender=0) -> VrfConnect:
    connect = VrfConnect(
        epoch=1, node_id=sender,
        public_key=registry.public_key(sender), proof=b"p" * 32,
    )
    return signed(connect, registry, sender)


def make_sim(seed=b"simnet-tests", *, network=None, lazy=(), registry=None):
    """A simulation over four nodes, with the list its deliveries land in."""
    registry = registry or make_registry(4)
    network = network or NetworkModel(base_latency_us=2_000, jitter_us=0, drop_rate=0.0)
    sim = Simulation(seed, network, lazy)
    deliveries = []
    sim.on_deliver = lambda target, now, message: deliveries.append((target, now, message))
    return sim, deliveries, registry


def drain(sim) -> None:
    while sim.step_one():
        pass


FAN_OUT = (5, 1, 4, 2, 3)  # the receivers of node 0's sends in ``fan_out``


def counting_commit(registry) -> Commit:
    """Node 0's commit whose digest counts 0, 1, 2, ..."""
    commit = Commit(height=1, view=0, digest=bytes(range(32)), sender=0)
    return signed(commit, registry, 0)


def fan_out(seed, network, sends, behavior=None):
    """Node 0 sends each ``(at_us, message)`` of ``sends(registry)`` to
    ``FAN_OUT`` at its instant, in round 3; with a ``behavior``, each send is
    first rewritten as the runner rewrites a faulty node's.

    Returns the drained simulation, its trace rows as (time_us, target, tag,
    digest_prefix, round_index, delivered) and its deliveries as (target,
    time_us, tag, digest prefix of what arrived).
    """
    registry = make_registry(6)
    sim = Simulation(seed, network)
    sim.round_index = 3
    deliveries = []
    sim.on_deliver = lambda target, now, m: deliveries.append(
        (target, now, m.TAG, m.digest[:4].hex())
    )
    for at_us, message in sends(registry):
        planned = [(FAN_OUT, message)]
        if behavior is not None:
            planned = byzantine_sends(behavior, 0, FAN_OUT, message, registry)
        for targets, outgoing in planned:
            sim.schedule_send(at_us, 0, targets, outgoing)
    drain(sim)
    rows = [
        (r.time_us, r.target, r.tag, r.digest_prefix, r.round_index, r.delivered)
        for r in trace_rows(sim.trace)
    ]
    return sim, rows, deliveries


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
