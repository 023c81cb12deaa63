"""Deterministic network: ordering, drops, partitions, Byzantine transforms."""

import pytest

from ebrc.consensus import batch_digest_of, tx_digest
from ebrc.crypto import KeyRegistry, digest
from ebrc.messages import (
    Commit,
    Prepare,
    Request,
    VrfConnect,
    signature_ok,
    signed,
)
from ebrc.simnet import (
    BYZANTINE_BEHAVIORS,
    ByzantineProfile,
    NetworkModel,
    Simulation,
)

from ebrc.harness import count_messages

from driver import CLIENT, make_registry, make_request, trace_rows
from oracles import NaiveNetwork


def make_sim(seed=b"simnet-tests", *, network=None, byzantine=None, registry=None):
    registry = registry or make_registry(4)
    network = network or NetworkModel(base_latency_us=2_000, jitter_us=0, drop_rate=0.0)
    sim = Simulation(seed, network, registry, byzantine)
    deliveries = []
    sim.on_deliver = lambda target, now, message: deliveries.append((target, now, message))
    return sim, deliveries, registry


def drain(sim):
    while sim.step_one():
        pass


def make_prepare(registry, payloads=(b"a", b"b"), sender=0):
    batch = tuple(make_request(registry, p, ts=10 + i) for i, p in enumerate(payloads))
    prepare = Prepare(
        height=1, view=0, timestamp=0,
        batch=batch, digest=batch_digest_of(batch), sender=sender,
    )
    return signed(prepare, registry, sender)


def make_commit(registry, sender=0, sequence=1):
    commit = Commit(
        view=0, timestamp=0, digest=b"d" * 32, sequence=sequence, valid=True, sender=sender
    )
    return signed(commit, registry, sender)


def make_connect(registry, sender=0):
    connect = VrfConnect(
        epoch=1, node_id=sender,
        public_key=registry.public_key(sender), proof=b"p" * 32,
    )
    return signed(connect, registry, sender)


class TestModelValidation:
    def test_latency_bounds(self):
        with pytest.raises(ValueError):
            NetworkModel(base_latency_us=-1)
        with pytest.raises(ValueError):
            NetworkModel(jitter_us=-1)

    def test_drop_rate_bounds(self):
        with pytest.raises(ValueError):
            NetworkModel(drop_rate=1.0)
        with pytest.raises(ValueError):
            NetworkModel(drop_rate=-0.1)
        NetworkModel(drop_rate=0.0)

    def test_partition_window_order(self):
        with pytest.raises(ValueError):
            NetworkModel(partitions=((10, 5, frozenset({1})),))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ByzantineProfile("sleepy")
        for behavior in BYZANTINE_BEHAVIORS:
            ByzantineProfile(behavior)


class TestOrdering:
    def test_same_instant_delivers_in_insertion_order(self):
        sim, deliveries, reg = make_sim()
        first = make_commit(reg, sender=0)
        second = make_commit(reg, sender=2)
        sim.send(0, [1], first)
        sim.send(2, [1], second)
        drain(sim)
        assert [m.sender for _, _, m in deliveries] == [0, 2]
        assert deliveries[0][1] == deliveries[1][1] == 2_000

    def test_timer_fires_at_deadline(self):
        sim, _, _ = make_sim()
        fired = []
        sim.on_timer = lambda target, now, tick: fired.append((target, now, tick))
        sim.schedule_timer(3, 1_000, "tick")
        drain(sim)
        assert fired == [(3, 1_000, "tick")]

    def test_deferred_send_waits_for_its_instant(self):
        sim, deliveries, reg = make_sim()
        sim.schedule_send(5_000, 0, [1], make_commit(reg))
        drain(sim)
        assert deliveries[0][1] == 7_000  # 5000 submit + 2000 latency

    def test_self_delivery_rejected(self):
        sim, _, reg = make_sim()
        with pytest.raises(ValueError):
            sim.send(0, [0], make_commit(reg))
        with pytest.raises(ValueError):
            sim.send(0, [1, 0], make_commit(reg))
        # A rejected send puts nothing on the wire, not even to node 1.
        assert (sim.counters.sent, sim.trace, sim.pending()) == (0, [], False)


class TestDeterminism:
    def run_once(self, seed):
        network = NetworkModel(base_latency_us=2_000, jitter_us=1_000, drop_rate=0.3)
        sim, deliveries, reg = make_sim(seed, network=network, registry=make_registry(6))
        for sender in range(6):
            for target in range(6):
                if sender != target:
                    sim.send(sender, [target], make_commit(reg, sender=sender))
        drain(sim)
        observed = [(t, now, m.sender) for t, now, m in deliveries]
        return sim.trace, observed, sim.counters

    def test_same_seed_same_trace_and_deliveries(self):
        trace_a, seen_a, counters_a = self.run_once(b"seed-1")
        trace_b, seen_b, counters_b = self.run_once(b"seed-1")
        assert trace_a == trace_b
        assert seen_a == seen_b
        assert counters_a.sent == counters_b.sent
        assert counters_a.dropped == counters_b.dropped

    def test_different_seed_differs(self):
        trace_a, _, _ = self.run_once(b"seed-1")
        trace_b, _, _ = self.run_once(b"seed-2")
        assert trace_a != trace_b

    def test_conservation_after_drain(self):
        trace, _, counters = self.run_once(b"seed-3")
        assert counters.sent == counters.delivered + counters.dropped
        assert counters.dropped > 0  # drop_rate 0.3 over 30 sends


class TestConservation:
    def test_holds_with_messages_in_flight(self):
        sim, _, reg = make_sim()
        sim.send(0, [1, 2, 3], make_commit(reg))
        assert sim.counters.sent == 3
        assert sim.conservation_ok()
        drain(sim)
        assert sim.conservation_ok()
        assert sim.counters.delivered == 3

    def test_holds_part_way_through_a_broadcast(self):
        sim, deliveries, reg = make_sim()
        sim.send(0, [1, 2, 3], make_commit(reg))
        assert sim.step_one()
        assert len(deliveries) == 1
        assert sim.in_flight() == 2
        assert sim.conservation_ok()


class TestLinkSeeds:
    def test_link_seed_is_the_link_digest(self):
        for run_seed in (b"", b"simnet-tests", bytes(range(32))):
            sim, _, _ = make_sim(run_seed)
            for sender, target in ((0, 1), (1, 0), (3, 100), (2**40, 7)):
                expected = digest(
                    run_seed, sender.to_bytes(8, "big"), target.to_bytes(8, "big"), domain=b"link"
                )
                assert sim.link_seed(sender, target) == expected


class TestLinkStreams:
    """A link keeps blocks of its stream, not a generator; the draws must be
    those of ``random.Random(int.from_bytes(link_seed, "big"))``."""

    @pytest.mark.parametrize(
        "base_latency_us, jitter_us, drop_rate, partitions, sends",
        [
            # Partitioned sends draw nothing; the others draw for a drop, then jitter.
            (2_000, 1_000, 0.2, ((30_000, 45_000, frozenset({1})),), 200),
            # No drops and 2**53 µs of jitter: random() is k / 2**53, so each
            # delivery lands exactly k µs after its send and shows its draw.
            (0, 2**53, 0.0, (), 300),
        ],
        ids=["drops-and-partition", "exact-draws"],
    )
    def test_refills_match_the_oracle(
        self, monkeypatch, base_latency_us, jitter_us, drop_rate, partitions, sends
    ):
        refills = []
        next_draws = Simulation._next_draws

        def counted(sim, sender, target, draws):
            if draws is not None:
                refills.append((sender, target))
            return next_draws(sim, sender, target, draws)

        monkeypatch.setattr(Simulation, "_next_draws", counted)
        seed, reg = b"link-refills", make_registry(2)
        network = NetworkModel(base_latency_us, jitter_us, drop_rate, partitions)
        oracle = NaiveNetwork(seed, reg, base_latency_us=base_latency_us, jitter_us=jitter_us,
                              drop_rate=drop_rate, partitions=partitions)
        logs = []
        for net in (Simulation(seed, network, reg), oracle):
            log = []
            net.on_deliver = lambda target, now, message, log=log: log.append(
                (now, target, message.sequence))
            for sequence in range(sends):
                net.schedule_send(sequence * 300, 0, [1], make_commit(reg, sequence=sequence))
            drain(net)
            logs.append(log)
        assert logs[0] == logs[1]
        if drop_rate:
            assert 0 < len(logs[0]) < 0.75 * sends  # drops and the partition took their share
        else:
            assert len(logs[0]) == sends
        assert len(refills) >= 3 and set(refills) == {(0, 1)}


class TestDeliveryOrderOracle:
    """``Simulation`` against a naive queue with one heap entry per delivery."""

    NODES = tuple(range(6))
    LAZY, EQUIVOCATOR = 4, 5

    def script(self, sim, reg):
        """Drive ``sim`` through ties, callbacks, Byzantine senders and cut
        drains; return every delivery and timer in order, and the cuts."""
        log = []
        nodes = self.NODES

        def commit(sender, hop, now):
            return signed(
                Commit(view=0, timestamp=now, digest=b"d" * 32, sequence=hop, valid=True,
                       sender=sender),
                reg, sender,
            )

        def on_deliver(target, now, message):
            log.append((now, target, message))
            # Even nodes relay a commit once and arm a timer from inside the
            # callback; the timer defers one more send.
            if isinstance(message, Commit) and message.sequence == 0 and target % 2 == 0:
                sim.send(target, [n for n in nodes if n != target], commit(target, 1, now))
                sim.schedule_timer(target, 1_500, ("tick", now))

        def on_timer(target, now, tick):
            log.append((now, target, tick))
            peers = [n for n in nodes if n != target][:3]
            sim.schedule_send(now + 700, target, peers, commit(target, 2, now))

        sim.on_deliver, sim.on_timer = on_deliver, on_timer
        for sender in nodes:  # same instant, so equal delivery times without jitter
            sim.send(sender, [n for n in nodes if n != sender], commit(sender, 0, 0))
        prepare = make_prepare(reg, payloads=(b"a", b"b", b"c"), sender=self.EQUIVOCATOR)
        sim.send(self.EQUIVOCATOR, [3, 1, 4, 0, 2], prepare)
        sim.run_until(2_500)
        log.append(("deadline cut", sim.now, sim.in_flight()))
        sim.run_until(10**9, stop=lambda: len(log) >= 60)
        log.append(("stop cut", sim.now, sim.in_flight()))
        sim.run_until(10**9)
        log.append(("drained", sim.now, sim.in_flight()))
        return log

    def compare(self, seed, base_latency_us, jitter_us, drop_rate=0.0, partitions=()):
        reg = make_registry(6)
        network = NetworkModel(base_latency_us, jitter_us, drop_rate, partitions)
        byzantine = {
            self.LAZY: ByzantineProfile("lazy"),
            self.EQUIVOCATOR: ByzantineProfile("equivocate"),
        }
        sim = Simulation(seed, network, reg, byzantine)
        oracle = NaiveNetwork(
            seed, reg, base_latency_us=base_latency_us, jitter_us=jitter_us,
            drop_rate=drop_rate, partitions=partitions,
            lazy={self.LAZY: 4.0}, equivocators={self.EQUIVOCATOR},
        )
        log = self.script(sim, reg)
        assert log == self.script(oracle, reg)
        assert sim.conservation_ok()
        return log, sim

    @staticmethod
    def cuts(log):
        return [entry for entry in log if isinstance(entry[0], str)]

    @staticmethod
    def sends_across(log, cut):
        """The commit sends with deliveries on both sides of the cut entry,
        each named by its sender, hop and send time."""

        def sends(entries):
            return {
                (m.sender, m.sequence, m.timestamp)
                for _, _, m in entries
                if isinstance(m, Commit)
            }

        at = log.index(cut)
        return sends(log[:at]) & sends(log[at + 1:])

    def test_equal_time_ties_across_sends(self):
        log, sim = self.compare(b"oracle-ties", 2_000, 0)
        # Every first-hop message lands at 2 ms but the lazy node's, at 8 ms.
        assert {now for now, _, _ in log[:30]} == {2_000}
        assert [now for now, _, m in log if getattr(m, "sender", None) == self.LAZY
                and m.sequence == 0] == [8_000] * 5
        # The stop predicate cut a send's run part way: deliveries of one
        # message fall on both sides of it.
        assert self.sends_across(log, self.cuts(log)[1])
        assert self.cuts(log)[0][2] > 0 and self.cuts(log)[-1][2] == 0
        assert sim.counters.dropped == 0

    def test_drops_partition_and_jitter(self):
        partitions = ((0, 3_000, frozenset({3})),)
        log, sim = self.compare(b"oracle-lossy", 2_000, 1_000, 0.1, partitions)
        assert self.sends_across(log, self.cuts(log)[0])
        assert sim.counters.dropped > 0
        # The equivocator's two variants both arrive.
        proposals = {m.digest for _, _, m in log if isinstance(m, Prepare)}
        assert len(proposals) == 2


class TestPartitions:
    def test_window_drops_then_heals(self):
        network = NetworkModel(
            base_latency_us=2_000, jitter_us=0, drop_rate=0.0,
            partitions=((0, 10_000, frozenset({1})),),
        )
        sim, deliveries, reg = make_sim(network=network)
        sim.send(0, [1], make_commit(reg))  # inside the window: dropped
        sim.schedule_send(15_000, 0, [1], make_commit(reg))  # after: delivered
        drain(sim)
        assert sim.counters.dropped == 1
        assert len(deliveries) == 1
        assert deliveries[0][1] == 17_000
        assert [r.delivered for r in trace_rows(sim.trace)] == [False, True]

    def test_partition_isolates_both_directions(self):
        model = NetworkModel(partitions=((0, 100, frozenset({2})),))
        assert model.partitioned(50, 2, 0)
        assert model.partitioned(50, 0, 2)
        assert not model.partitioned(100, 0, 2)
        assert not model.partitioned(50, 0, 1)


class TestDropLogging:
    def test_drops_traced_not_delivered(self):
        network = NetworkModel(base_latency_us=2_000, jitter_us=0, drop_rate=0.5)
        sim, deliveries, reg = make_sim(network=network)
        for i in range(100):
            sim.send(0, [1], make_commit(reg))
        drain(sim)
        assert sim.counters.sent == 100
        assert 0 < sim.counters.dropped < 100
        assert sim.counters.delivered == 100 - sim.counters.dropped
        assert len(deliveries) == sim.counters.delivered
        traced_drops = sum(1 for r in trace_rows(sim.trace) if not r.delivered)
        assert traced_drops == sim.counters.dropped


class TestSilent:
    def test_consensus_messages_suppressed(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("silent")})
        sim.send(0, [1, 2, 3], make_commit(reg))
        drain(sim)
        assert deliveries == []
        assert sim.counters.suppressed == 3
        assert sim.counters.sent == 0
        assert sim.trace == []

    def test_connectivity_proof_still_sent(self):
        # A consensus-phase attacker still wants its committee seat.
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("silent")})
        sim.send(0, [1], make_connect(reg))
        drain(sim)
        assert len(deliveries) == 1
        assert deliveries[0][2].proof == b"p" * 32


class TestLazy:
    def test_latency_multiplied(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("lazy")})
        sim.send(0, [1], make_commit(reg))
        sim.send(2, [1], make_commit(reg, sender=2))
        drain(sim)
        by_sender = {m.sender: now for _, now, m in deliveries}
        assert by_sender[2] == 2_000
        assert by_sender[0] == 8_000

    def test_connectivity_proof_not_delayed(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("lazy")})
        sim.send(0, [1], make_connect(reg))
        drain(sim)
        assert deliveries[0][1] == 2_000


class TestEquivocate:
    def test_two_request_batch_splits_by_target_parity(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("equivocate")})
        prepare = make_prepare(reg, payloads=(b"a", b"b"))
        sim.send(0, [3, 1, 2], prepare)
        drain(sim)
        got = {target: m for target, _, m in deliveries}
        # Sorted targets (1, 2, 3): even positions see the original.
        assert got[1].digest == prepare.digest
        assert got[3].digest == prepare.digest
        assert got[2].digest != prepare.digest
        assert len(got[2].batch) == 1
        # Both variants carry valid signatures; only content differs.
        assert signature_ok(got[1], reg, 0)
        assert signature_ok(got[2], reg, 0)

    def test_single_request_batch_has_no_variant(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("equivocate")})
        prepare = make_prepare(reg, payloads=(b"a",))
        sim.send(0, [1, 2], prepare)
        drain(sim)
        assert all(m.digest == prepare.digest for _, _, m in deliveries)

    def test_non_proposal_messages_pass_through(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("equivocate")})
        commit = make_commit(reg)
        sim.send(0, [1, 2], commit)
        drain(sim)
        assert all(m == commit for _, _, m in deliveries)


class TestCorruptDigest:
    def test_consensus_digest_flipped_and_resigned(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("corrupt_digest")})
        prepare = make_prepare(reg)
        sim.send(0, [1], prepare)
        drain(sim)
        mangled = deliveries[0][2]
        assert mangled.digest != prepare.digest
        assert mangled.digest[1:] == prepare.digest[1:]
        # The signature covers the corrupted content, so the receiver's
        # signature check passes and digest validation must catch it.
        assert signature_ok(mangled, reg, 0)

    def test_commit_votes_also_corrupted(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("corrupt_digest")})
        commit = make_commit(reg)
        sim.send(0, [1], commit)
        drain(sim)
        assert deliveries[0][2].digest != commit.digest

    def test_connectivity_proof_untouched(self):
        # Digest corruption is an in-committee attack: the election proof
        # stays valid so the node keeps its seat.
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("corrupt_digest")})
        connect = make_connect(reg)
        sim.send(0, [1], connect)
        drain(sim)
        assert deliveries[0][2] == connect


class TestCorruptProof:
    def test_connectivity_proof_sent_unchanged(self):
        # A corrupt proof fails the election's verification, not a check
        # on the wire: the VrfConnect goes out as it was signed.
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("corrupt_proof")})
        connect = make_connect(reg)
        sim.send(0, [1], connect)
        drain(sim)
        assert deliveries[0][2] == connect

    def test_consensus_messages_untouched(self):
        sim, deliveries, reg = make_sim(byzantine={0: ByzantineProfile("corrupt_proof")})
        prepare = make_prepare(reg)
        sim.send(0, [1], prepare)
        drain(sim)
        assert deliveries[0][2] == prepare


class TestCounters:
    def test_per_tag_and_round_attribution(self):
        sim, _, reg = make_sim()
        current_round = {"value": 7}
        sim.round_provider = lambda: current_round["value"]
        sim.send(0, [1, 2], make_commit(reg))
        sim.send(1, [2], make_prepare(reg, sender=1))
        drain(sim)
        assert sim.counters.per_tag["commit"] == 2
        assert sim.counters.per_tag["prepare"] == 1
        assert sim.counters.round_senders[7] == {0, 1}
        assert sim.counters.per_round == {7: 3}
        assert all(r.round_index == 7 for r in trace_rows(sim.trace))

    def test_suppressed_sender_not_active_and_split_send_counted_per_target(self):
        # A silent member's send leaves no trace in the round's senders;
        # an equivocating broadcast counts one message per receiver.
        sim, _, reg = make_sim(byzantine={
            0: ByzantineProfile("silent"), 1: ByzantineProfile("equivocate"),
        })
        sim.round_provider = lambda: 3
        sim.send(0, [1, 2, 3], make_commit(reg))
        sim.send(1, [0, 2, 3], make_prepare(reg, sender=1))
        drain(sim)
        assert sim.counters.round_senders == {3: {1}}
        assert sim.counters.per_tag == {"prepare": 3}
        assert (sim.counters.sent, sim.counters.suppressed) == (3, 3)
        assert len({r.digest_prefix for r in trace_rows(sim.trace)}) == 2


class TestFanOut:
    """One broadcast, five receivers: trace rows and deliveries pinned in order.

    Rows are (time_us, target, tag, digest_prefix, round_index, delivered);
    deliveries are (target, time_us, tag, digest prefix of what arrived).
    """

    TARGETS = [5, 1, 4, 2, 3]
    JITTER = NetworkModel(base_latency_us=2_000, jitter_us=1_000)

    def simulate(self, seed, network, byzantine, sends):
        reg = make_registry(6)
        sim = Simulation(seed, network, reg, byzantine)
        sim.round_provider = lambda: 3
        deliveries = []
        sim.on_deliver = lambda target, now, m: deliveries.append(
            (target, now, m.TAG, m.digest[:4].hex())
        )
        for at_us, message in sends(reg):
            sim.schedule_send(at_us, 0, self.TARGETS, message)
        drain(sim)
        return sim, deliveries

    def run(self, seed, network, byzantine, sends):
        sim, deliveries = self.simulate(seed, network, byzantine, sends)
        rows = [
            (r.time_us, r.target, r.tag, r.digest_prefix, r.round_index, r.delivered)
            for r in trace_rows(sim.trace)
        ]
        return rows, deliveries

    @staticmethod
    def three_request_prepare(reg):
        return make_prepare(reg, payloads=(b"a", b"b", b"c"))

    @staticmethod
    def counting_commit(reg):
        commit = Commit(
            view=0, timestamp=0, digest=bytes(range(32)), sequence=1, valid=True, sender=0
        )
        return signed(commit, reg, 0)

    def test_equivocating_broadcast_two_variants(self):
        rows, deliveries = self.run(
            b"fan-out", self.JITTER, {0: ByzantineProfile("equivocate")},
            lambda reg: [(0, self.three_request_prepare(reg))],
        )
        assert rows == [
            (0, 1, "prepare", "169f6f1d", 3, True),
            (0, 2, "prepare", "fd62c4d1", 3, True),
            (0, 3, "prepare", "169f6f1d", 3, True),
            (0, 4, "prepare", "fd62c4d1", 3, True),
            (0, 5, "prepare", "169f6f1d", 3, True),
        ]
        assert deliveries == [
            (1, 2414, "prepare", "169f6f1d"),
            (3, 2496, "prepare", "169f6f1d"),
            (2, 2505, "prepare", "fd62c4d1"),
            (5, 2564, "prepare", "169f6f1d"),
            (4, 2699, "prepare", "fd62c4d1"),
        ]

    def test_corrupt_digest_broadcast(self):
        rows, deliveries = self.run(
            b"fan-out", self.JITTER, {0: ByzantineProfile("corrupt_digest")},
            lambda reg: [(0, self.three_request_prepare(reg)), (1_000, self.counting_commit(reg))],
        )
        assert rows == [
            (0, t, "prepare", "e99f6f1d", 3, True) for t in self.TARGETS
        ] + [
            (1_000, t, "commit", "ff010203", 3, True) for t in self.TARGETS
        ]
        assert deliveries == [
            (1, 2414, "prepare", "e99f6f1d"),
            (3, 2496, "prepare", "e99f6f1d"),
            (2, 2505, "prepare", "e99f6f1d"),
            (5, 2564, "prepare", "e99f6f1d"),
            (4, 2699, "prepare", "e99f6f1d"),
            (3, 3039, "commit", "ff010203"),
            (4, 3171, "commit", "ff010203"),
            (1, 3428, "commit", "ff010203"),
            (2, 3681, "commit", "ff010203"),
            (5, 3700, "commit", "ff010203"),
        ]

    def test_lossy_network_with_partition_window(self):
        # Node 3 is cut off for the first 12 ms; the 5% drops hit the links
        # to 4 (third send) and to 1 (fourth send). A partitioned link draws
        # nothing from its RNG, so node 3's first delivery time depends on it.
        network = NetworkModel(
            base_latency_us=2_000, jitter_us=1_000, drop_rate=0.05,
            partitions=((0, 12_000, frozenset({3})),),
        )
        rows, deliveries = self.run(
            b"fan-out-3", network, None,
            lambda reg: [(i * 5_000, self.counting_commit(reg)) for i in range(4)],
        )
        dropped = {(0, 3), (5_000, 3), (10_000, 4), (10_000, 3), (15_000, 1)}
        assert rows == [
            (at, t, "commit", "00010203", 3, (at, t) not in dropped)
            for at in (0, 5_000, 10_000, 15_000)
            for t in self.TARGETS
        ]
        assert deliveries == [
            (2, 2404, "commit", "00010203"),
            (1, 2436, "commit", "00010203"),
            (4, 2589, "commit", "00010203"),
            (5, 2618, "commit", "00010203"),
            (4, 7063, "commit", "00010203"),
            (1, 7089, "commit", "00010203"),
            (2, 7724, "commit", "00010203"),
            (5, 7829, "commit", "00010203"),
            (1, 12089, "commit", "00010203"),
            (2, 12608, "commit", "00010203"),
            (5, 12838, "commit", "00010203"),
            (3, 17307, "commit", "00010203"),
            (4, 17437, "commit", "00010203"),
            (5, 17638, "commit", "00010203"),
            (2, 17709, "commit", "00010203"),
        ]

    def test_one_record_per_send(self):
        # The records behind the pinned rows above: targets in plan order,
        # one digest prefix per target only when equivocation splits the
        # send, and the dropped targets in plan order.
        equivocating, _ = self.simulate(
            b"fan-out", self.JITTER, {0: ByzantineProfile("equivocate")},
            lambda reg: [(0, self.three_request_prepare(reg))],
        )
        assert equivocating.trace == [
            (0, 0, (1, 2, 3, 4, 5), "prepare",
             ("169f6f1d", "fd62c4d1", "169f6f1d", "fd62c4d1", "169f6f1d"), 3, ()),
        ]
        corrupt, _ = self.simulate(
            b"fan-out", self.JITTER, {0: ByzantineProfile("corrupt_digest")},
            lambda reg: [(0, self.three_request_prepare(reg))],
        )
        assert corrupt.trace == [(0, 0, (5, 1, 4, 2, 3), "prepare", "e99f6f1d", 3, ())]
        network = NetworkModel(
            base_latency_us=2_000, jitter_us=1_000, drop_rate=0.05,
            partitions=((0, 12_000, frozenset({3})),),
        )
        lossy, _ = self.simulate(
            b"fan-out-3", network, None,
            lambda reg: [(i * 5_000, self.counting_commit(reg)) for i in range(4)],
        )
        assert [(r.time_us, r.targets, r.digest_prefix, r.dropped) for r in lossy.trace] == [
            (0, (5, 1, 4, 2, 3), "00010203", (3,)),
            (5_000, (5, 1, 4, 2, 3), "00010203", (3,)),
            (10_000, (5, 1, 4, 2, 3), "00010203", (4, 3)),
            (15_000, (5, 1, 4, 2, 3), "00010203", (1,)),
        ]
        for sim in (equivocating, corrupt, lossy):
            counts = count_messages(sim.trace)
            counters = sim.counters
            assert counts.total == counters.sent == sum(len(r.targets) for r in sim.trace)
            assert counts.by_tag == counters.per_tag
            assert counts.by_round == counters.per_round
            assert counts.not_dropped == counters.delivered  # drained: none in flight
        assert lossy.counters.dropped == 5

