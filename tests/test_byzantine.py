"""Byzantine behaviour: the runner rewrites a faulty node's sends
(``runner.byzantine_sends``), and the network carries what it is given."""

import dataclasses
from types import SimpleNamespace

import pytest

from ebrc import presets
from ebrc.config import BYZANTINE_BEHAVIORS, ByzantineConfig, NetworkConfig
from ebrc.harness import count_messages
from ebrc.messages import Commit, ExitRequest, Prepare, VrfConnect, signature_ok, signed
from ebrc.runner import ScenarioRunner
from ebrc.simnet import NetworkModel, Simulation

from driver import (
    FAN_OUT,
    counting_commit,
    drain,
    fan_out,
    make_commit,
    make_connect,
    make_prepare,
    make_registry,
    make_sim,
    trace_rows,
)
from oracles import NaiveNetwork


def faulty_send(sim, registry, behavior, faulty=(0,)):
    """The runner's send path (``ScenarioRunner._send``) onto ``sim``, with
    the ``faulty`` nodes running ``behavior``; any other sender is honest."""
    runner = SimpleNamespace(
        sim=sim,
        registry=registry,
        byz_ids=set(faulty),
        config=SimpleNamespace(byzantine=ByzantineConfig(tuple(faulty), behavior)),
    )
    return lambda sender, targets, message: ScenarioRunner._send(runner, sender, targets, message)


def test_profile_validation():
    with pytest.raises(ValueError):
        ByzantineConfig(node_ids=(0,), behavior="sleepy").validate()
    for behavior in BYZANTINE_BEHAVIORS:
        ByzantineConfig(node_ids=(0,), behavior=behavior).validate()


class TestSilent:
    def test_consensus_messages_suppressed(self):
        sim, deliveries, reg = make_sim()
        faulty_send(sim, reg, "silent")(0, [1, 2, 3], make_commit(reg))
        drain(sim)
        assert deliveries == []
        assert sim.counters.suppressed == 3
        assert sim.counters.sent == 0
        assert sim.trace == []

    def test_connectivity_proof_still_sent(self):
        # A consensus-phase attacker still wants its committee seat: the
        # epoch's VrfConnect announcements skip the faulty send path.
        config = presets.load("safety_silent_m4")
        trace = ScenarioRunner(config).run().trace
        faulty = set(config.byzantine.node_ids)
        assert faulty <= {r.sender for r in trace if r.tag == VrfConnect.TAG}
        assert all(r.tag == VrfConnect.TAG for r in trace if r.sender in faulty)


class TestEquivocate:
    def test_two_request_batch_splits_by_target_parity(self):
        sim, deliveries, reg = make_sim()
        prepare = make_prepare(reg, payloads=(b"a", b"b"))
        faulty_send(sim, reg, "equivocate")(0, [3, 1, 2], prepare)
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
        sim, deliveries, reg = make_sim()
        prepare = make_prepare(reg, payloads=(b"a",))
        faulty_send(sim, reg, "equivocate")(0, [1, 2], prepare)
        drain(sim)
        assert all(m.digest == prepare.digest for _, _, m in deliveries)

    def test_non_proposal_messages_pass_through(self):
        sim, deliveries, reg = make_sim()
        commit = make_commit(reg)
        faulty_send(sim, reg, "equivocate")(0, [1, 2], commit)
        drain(sim)
        assert all(m == commit for _, _, m in deliveries)


class TestCorruptDigest:
    def test_consensus_digest_flipped_and_resigned(self):
        sim, deliveries, reg = make_sim()
        prepare = make_prepare(reg)
        faulty_send(sim, reg, "corrupt_digest")(0, [1], prepare)
        drain(sim)
        mangled = deliveries[0][2]
        assert mangled.digest != prepare.digest
        assert mangled.digest[1:] == prepare.digest[1:]
        # The signature covers the corrupted content, so the receiver's
        # signature check passes and digest validation must catch it.
        assert signature_ok(mangled, reg, 0)

    def test_commit_votes_also_corrupted(self):
        sim, deliveries, reg = make_sim()
        commit = make_commit(reg)
        faulty_send(sim, reg, "corrupt_digest")(0, [1], commit)
        drain(sim)
        assert deliveries[0][2].digest != commit.digest

    def test_connectivity_proof_untouched(self):
        # Digest corruption is an in-committee attack: the election proof
        # stays valid so the node keeps its seat.
        sim, deliveries, reg = make_sim()
        connect = make_connect(reg)
        faulty_send(sim, reg, "corrupt_digest")(0, [1], connect)
        drain(sim)
        assert deliveries[0][2] == connect


class TestCorruptProof:
    def test_connectivity_proof_sent_unchanged(self):
        # A corrupt proof fails the election's verification, not a check
        # on the wire: the VrfConnect goes out as it was signed.
        sim, deliveries, reg = make_sim()
        connect = make_connect(reg)
        faulty_send(sim, reg, "corrupt_proof")(0, [1], connect)
        drain(sim)
        assert deliveries[0][2] == connect

    def test_consensus_messages_untouched(self):
        sim, deliveries, reg = make_sim()
        prepare = make_prepare(reg)
        faulty_send(sim, reg, "corrupt_proof")(0, [1], prepare)
        drain(sim)
        assert deliveries[0][2] == prepare


class TestLazy:
    def test_connectivity_proof_not_delayed(self):
        # The runner slows every send made on a lazy node's behalf, and
        # _elect sends the epoch's connectivity proofs past that rewrite.
        config = presets.safety_preset(7, "lazy", 1)
        lazy = set(config.byzantine.node_ids)
        runner = ScenarioRunner(config)
        send, factors = runner.sim.send, {}

        def spy(sender, targets, message, latency_factor=1.0):
            key = (sender in lazy, isinstance(message, VrfConnect))
            factors.setdefault(key, set()).add(latency_factor)
            send(sender, targets, message, latency_factor)

        runner.sim.send = spy
        runner.run()
        assert factors == {
            (True, False): {4.0},
            (True, True): {1.0},
            (False, False): {1.0},
            (False, True): {1.0},
        }


class TestCounters:
    def test_suppressed_sender_not_active_and_split_send_counted_per_target(self):
        # A silent member's send leaves no trace in the round's senders;
        # an equivocating broadcast counts one message per receiver.
        sim, _, reg = make_sim()
        sim.round_index = 3
        faulty_send(sim, reg, "silent", (0,))(0, [1, 2, 3], make_commit(reg))
        faulty_send(sim, reg, "equivocate", (1,))(1, [0, 2, 3], make_prepare(reg, sender=1))
        drain(sim)
        assert {(r.round_index, r.sender) for r in sim.trace} == {(3, 1)}
        assert count_messages(sim.trace).by_tag == {"prepare": 3}
        assert (sim.counters.sent, sim.counters.suppressed) == (3, 3)
        assert len({r.digest_prefix for r in trace_rows(sim.trace)}) == 2


class TestFanOut:
    """A faulty node 0's sends to five receivers, pinned in order (see
    ``driver.fan_out``)."""

    JITTER = NetworkModel(base_latency_us=2_000, jitter_us=1_000)

    @staticmethod
    def three_request_prepare(reg):
        return make_prepare(reg, payloads=(b"a", b"b", b"c"))

    def test_equivocating_broadcast_two_variants(self):
        _, rows, deliveries = fan_out(
            b"fan-out", self.JITTER,
            lambda reg: [(0, self.three_request_prepare(reg))],
            "equivocate",
        )
        assert rows == [
            (0, 1, "prepare", "169f6f1d", 3, True),
            (0, 2, "prepare", "fd62c4d1", 3, True),
            (0, 3, "prepare", "169f6f1d", 3, True),
            (0, 4, "prepare", "fd62c4d1", 3, True),
            (0, 5, "prepare", "169f6f1d", 3, True),
        ]
        assert deliveries == [
            (3, 2032, "prepare", "169f6f1d"),
            (1, 2162, "prepare", "169f6f1d"),
            (4, 2194, "prepare", "fd62c4d1"),
            (2, 2195, "prepare", "fd62c4d1"),
            (5, 2257, "prepare", "169f6f1d"),
        ]

    def test_corrupt_digest_broadcast(self):
        _, rows, deliveries = fan_out(
            b"fan-out", self.JITTER,
            lambda reg: [(0, self.three_request_prepare(reg)), (1_000, counting_commit(reg))],
            "corrupt_digest",
        )
        assert rows == [
            (0, t, "prepare", "e99f6f1d", 3, True) for t in FAN_OUT
        ] + [
            (1_000, t, "commit", "ff010203", 3, True) for t in FAN_OUT
        ]
        assert deliveries == [
            (3, 2032, "prepare", "e99f6f1d"),
            (1, 2162, "prepare", "e99f6f1d"),
            (4, 2194, "prepare", "e99f6f1d"),
            (2, 2195, "prepare", "e99f6f1d"),
            (5, 2257, "prepare", "e99f6f1d"),
            (3, 3294, "commit", "ff010203"),
            (2, 3365, "commit", "ff010203"),
            (4, 3575, "commit", "ff010203"),
            (1, 3688, "commit", "ff010203"),
            (5, 3948, "commit", "ff010203"),
        ]

    def test_one_record_per_send(self):
        # The records behind the pinned rows above: an equivocating proposal
        # is one single-target send per sorted target, and a corrupted one
        # is one send to the targets in the caller's order.
        equivocating, _, _ = fan_out(
            b"fan-out", self.JITTER, lambda reg: [(0, self.three_request_prepare(reg))],
            "equivocate",
        )
        assert equivocating.trace == [
            (0, 0, (target,), "prepare", prefix, 3, ())
            for target, prefix in zip(
                (1, 2, 3, 4, 5), ("169f6f1d", "fd62c4d1", "169f6f1d", "fd62c4d1", "169f6f1d")
            )
        ]
        corrupt, _, _ = fan_out(
            b"fan-out", self.JITTER, lambda reg: [(0, self.three_request_prepare(reg))],
            "corrupt_digest",
        )
        assert corrupt.trace == [(0, 0, (5, 1, 4, 2, 3), "prepare", "e99f6f1d", 3, ())]
        for sim in (equivocating, corrupt):
            counts = count_messages(sim.trace)
            counters = sim.counters
            assert counts.total == counters.sent == sum(len(r.targets) for r in sim.trace)
            assert counts.by_tag == {"prepare": 5}
            assert counts.by_round == {3: 5}
            assert counts.not_dropped == counters.delivered  # drained: none in flight


class TestDeliveryOrderOracle:
    """``Simulation`` under the runner's faulty send path against a naive
    queue with one heap entry per delivery and its own equivocation model."""

    NODES = tuple(range(6))
    LAZY, EQUIVOCATOR = 4, 5

    def script(self, net, reg, send):
        """Drive ``net`` through ties, callbacks, Byzantine senders and cut
        drains, making each immediate send with ``send``; return every
        delivery and timer in order, and the cuts."""
        log = []
        nodes = self.NODES

        def commit(sender, hop, now):
            # The height carries the hop and the view the send time.
            return signed(
                Commit(height=hop, view=now, digest=b"d" * 32, sender=sender), reg, sender
            )

        def on_deliver(target, now, event):
            log.append((now, target, event))
            # Even nodes relay a commit once and arm a timer from inside the
            # callback; the timer defers one more send.
            if isinstance(event, Commit) and event.height == 0 and target % 2 == 0:
                send(target, [n for n in nodes if n != target], commit(target, 1, now))
                net.schedule_timer(target, 1_500, ("tick", now))
            elif isinstance(event, tuple):  # a fired timer's tick
                peers = [n for n in nodes if n != target][:3]
                net.schedule_send(now + 700, target, peers, commit(target, 2, now))

        net.on_deliver = on_deliver
        for sender in nodes:  # same instant, so equal delivery times without jitter
            send(sender, [n for n in nodes if n != sender], commit(sender, 0, 0))
        prepare = make_prepare(reg, payloads=(b"a", b"b", b"c"), sender=self.EQUIVOCATOR)
        send(self.EQUIVOCATOR, [3, 1, 4, 0, 2], prepare)
        net.run_until(2_500)
        log.append(("deadline cut", net.now, net.in_flight()))
        net.run_until(10**9, stop=lambda: len(log) >= 60)
        log.append(("stop cut", net.now, net.in_flight()))
        net.run_until(10**9)
        log.append(("drained", net.now, net.in_flight()))
        return log

    def lazy(self, send, other):
        """``other``, but the lazy node's sends go through ``send`` at four
        times the latency, as the runner makes them."""
        return lambda s, t, m: send(s, t, m, 4.0) if s == self.LAZY else other(s, t, m)

    def compare(self, seed, base_latency_us, jitter_us, drop_rate=0.0, partitions=()):
        reg = make_registry(6)
        network = NetworkModel(base_latency_us, jitter_us, drop_rate, partitions)
        sim = Simulation(seed, network)
        oracle = NaiveNetwork(
            seed, reg, base_latency_us=base_latency_us, jitter_us=jitter_us,
            drop_rate=drop_rate, partitions=partitions, equivocators={self.EQUIVOCATOR},
        )
        equivocating = faulty_send(sim, reg, "equivocate", (self.EQUIVOCATOR,))
        log = self.script(sim, reg, self.lazy(sim.send, equivocating))
        assert log == self.script(oracle, reg, self.lazy(oracle.send, oracle.send))
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
                (m.sender, m.height, m.view)
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
                and m.height == 0] == [8_000] * 5
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


class TestFaultyExits:
    """A scripted exit's ExitRequest is a send made on the leaver's behalf,
    so a faulty leaver's request takes its behaviour. No preset has one."""

    EXITER = 7  # churn_exit_m11 scripts node 7's exit after round 1

    def run(self, behavior):
        config = presets.load("churn_exit_m11")
        config = dataclasses.replace(
            config,
            byzantine=ByzantineConfig(node_ids=(self.EXITER,), behavior=behavior),
            network=NetworkConfig(base_latency_ms=2.0, jitter_ms=0.0),
        )
        runner = ScenarioRunner(config)
        inject, deliver = runner._inject_scripted_exits, runner._deliver
        seen = {}

        def injecting(round_index):
            suppressed = runner.sim.counters.suppressed
            master = runner._current_master()
            inject(round_index)
            if runner.result.membership_flows and "suppressed" not in seen:
                seen["master"] = master
                seen["suppressed"] = runner.sim.counters.suppressed - suppressed

        def delivering(target, now, event):
            if isinstance(event, ExitRequest):
                seen["arrived"] = now
            deliver(target, now, event)

        runner._inject_scripted_exits = injecting
        runner._deliver = delivering
        result = runner.run()
        (flow,) = result.membership_flows
        assert seen["master"] != self.EXITER  # the request goes over the wire
        return result, flow, seen

    def test_silent_exiters_request_is_suppressed(self):
        result, flow, seen = self.run("silent")
        assert seen["suppressed"] == 1
        assert "arrived" not in seen
        assert not any(r.tag == ExitRequest.TAG for r in result.trace)
        assert "applied_at_us" not in flow

    def test_lazy_exiters_request_arrives_four_times_later(self):
        result, flow, seen = self.run("lazy")
        assert seen["suppressed"] == 0
        assert seen["arrived"] - flow["requested_at_us"] == 4 * 2_000
        (record,) = [r for r in result.trace if r.tag == ExitRequest.TAG]
        assert (record.sender, record.targets) == (self.EXITER, (seen["master"],))
