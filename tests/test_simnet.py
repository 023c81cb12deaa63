"""Deterministic network: ordering, drops, partitions, slowed sends.

What a faulty node sends is the runner's concern; see ``test_byzantine.py``.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

from ebrc import crypto, harness, presets, simnet
from ebrc.config import NetworkConfig
from ebrc.runner import ScenarioRunner
from ebrc.simnet import NetworkModel, Simulation

from ebrc.harness import count_messages

from driver import (
    FAN_OUT,
    counting_commit,
    drain,
    fan_out,
    make_commit,
    make_prepare,
    make_registry,
    make_sim,
    trace_rows,
)
from oracles import NaiveNetwork, link_draws


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

    def test_same_instant_refills_match_the_oracle(self):
        # With no latency and no jitter every relay, and every 0-delay timer,
        # lands on the instant being drained: some join its list, and a
        # timer chain outlasts the rest, so its links land on an instant
        # whose list has emptied. Deferred sends share instants with timers.
        seed, reg = b"same-instant", make_registry(4)

        def wire(net, log):
            def on_deliver(target, now, event):
                if isinstance(event, tuple):  # a timer's tick: ("chain", links left)
                    log.append((now, target, event))
                    if event[1]:
                        net.schedule_timer(target, 0, ("chain", event[1] - 1))
                    else:
                        net.send(target, [(target + 1) % 4], make_commit(reg, target, height=9))
                    return
                log.append((now, target, event.sender, event.height))
                if event.height < 2:
                    others = [node for node in range(4) if node != target]
                    net.send(target, others, make_commit(reg, target, height=event.height + 1))
                elif event.sender == 1:
                    net.schedule_timer(target, 0, ("chain", target))
                    net.schedule_timer(target, 1_000 - now % 1_000, ("chain", 0))

            net.on_deliver = on_deliver
            for at_us in (0, 1_000, 2_000):
                net.schedule_send(at_us, 0, [1, 2, 3], make_commit(reg, 0, height=0))

        runs = []
        for net in (
            Simulation(seed, NetworkModel(base_latency_us=0, jitter_us=0)),
            NaiveNetwork(seed, reg, base_latency_us=0, jitter_us=0),
        ):
            log = []
            wire(net, log)
            net.run_until(1_000, stop=lambda: len(log) >= 60)  # cut mid-instant
            cut = (net.now, len(log), net.in_flight())
            net.run_until(1_000)
            deadline = (net.now, len(log), net.in_flight())
            drain(net)
            runs.append((cut, deadline, log))
        assert runs[0] == runs[1]
        (cut_now, _, cut_in_flight), _, log = runs[0]
        assert cut_now == 0 and cut_in_flight > 0
        assert {entry[0] for entry in log} == {0, 1_000, 2_000, 3_000}

    def test_timer_fires_at_deadline(self):
        sim, _, _ = make_sim()
        fired = []
        sim.on_deliver = lambda target, now, tick: fired.append((target, now, tick))
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
        assert (sim.counters.sent, sim.trace, sim.step_one()) == (0, [], False)


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


class TestLinkDraws:
    @pytest.mark.parametrize("drop_rate", [0.0, 0.5], ids=["no-drops", "half-drops"])
    def test_known_answers_for_a_links_kth_draws(self, drop_rate):
        # ``link_draws`` computes the k-th counted message's drop and jitter
        # draws with hashlib alone; three of them pinned as 32-bit words.
        seed = b"link-draws"
        assert [link_draws(seed, 0, 9, k) for k in (0, 8, 19)] == [
            (3664380670 / 2**32, 2492641508 / 2**32),
            (3394317953 / 2**32, 2709723471 / 2**32),
            (236671369 / 2**32, 3644503515 / 2**32),
        ]
        # Node 0 sends to 9, above the four nodes the registry holds, and to
        # 1 and 2 every 10 ms; node 2 is cut off for sends 3 to 5, which its
        # link does not count. With no base latency and 2**32 us of jitter a
        # message lands exactly its jitter word after its send.
        reg, sends = make_registry(4), 20  # k reaches a third block of eight
        window = (30_000, 60_000, frozenset({2}))
        sim = Simulation(seed, NetworkModel(0, 2**32, drop_rate, (window,)))
        arrivals = []
        sim.on_deliver = lambda target, now, message: arrivals.append(
            (message.height, target, now))
        for i in range(sends):
            sim.schedule_send(i * 10_000, 0, [9, 1, 2], make_commit(reg, height=i))
        drain(sim)
        expected, counted = [], {9: 0, 1: 0, 2: 0}
        for i in range(sends):
            for target in (9, 1, 2):
                if target == 2 and 3 <= i <= 5:
                    continue
                drop, jitter = link_draws(seed, 0, target, counted[target])
                counted[target] += 1
                if drop >= drop_rate:
                    expected.append((i, target, i * 10_000 + int(jitter * 2**32)))
        assert sorted(arrivals) == sorted(expected)
        random_drops = sim.counters.dropped - 3  # beside the window's three
        assert random_drops == 0 if drop_rate == 0 else 0 < random_drops < 3 * sends - 3

    def test_bytes_do_not_depend_on_the_runs_before(self):
        # One process runs the same configs in two orders: two seeds, two
        # sizes of one seed, both protocols, lossy and clean. Nothing a run
        # leaves behind may change another run's report or trace.
        lossy = dataclasses.replace(
            presets.load("safety_silent_m7"), network=NetworkConfig(drop_rate=0.05)
        )
        configs = [
            lossy,
            dataclasses.replace(lossy, seed=lossy.seed + 1),
            *presets.comparison_pair(4, byzantine=False),
            presets.comparison_pair(13, byzantine=False)[1],
        ]
        first = [report_and_trace(config) for config in configs]
        again = [report_and_trace(config) for config in reversed(configs)]
        assert first == again[::-1]
        assert len(set(first)) == len(configs)


def report_and_trace(config) -> str:
    """The run's report JSON and trace CSV, as ``ebrc run --trace`` writes them."""
    report, result = harness.run_scenario_with_result(config)
    return harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)


def count_block_reads(monkeypatch) -> list:
    """Patch ``Simulation._block`` to log each read as (sender, block)."""
    reads = []
    block = Simulation._block

    def counted(sim, sender, index, top):
        reads.append((sender, index))
        return block(sim, sender, index, top)

    monkeypatch.setattr(Simulation, "_block", counted)
    return reads


class TestLinkStreams:
    """A link's stream is read a block of eight messages at a time; its draws
    must be those of ``link_draws``, and each block is read once."""

    @pytest.mark.parametrize(
        "base_latency_us, jitter_us, drop_rate, partitions, sends",
        [
            # Partitioned sends draw nothing; the others draw for a drop, then jitter.
            (2_000, 1_000, 0.2, ((30_000, 45_000, frozenset({1})),), 200),
            # No drops and 2**32 µs of jitter: each delivery lands exactly its
            # jitter word after its send and shows its draw.
            (0, 2**32, 0.0, (), 300),
        ],
        ids=["drops-and-partition", "exact-draws"],
    )
    def test_refills_match_the_oracle(
        self, monkeypatch, base_latency_us, jitter_us, drop_rate, partitions, sends
    ):
        reads = count_block_reads(monkeypatch)
        seed, reg = b"link-refills", make_registry(2)
        network = NetworkModel(base_latency_us, jitter_us, drop_rate, partitions)
        oracle = NaiveNetwork(seed, reg, base_latency_us=base_latency_us, jitter_us=jitter_us,
                              drop_rate=drop_rate, partitions=partitions)
        sim = Simulation(seed, network)
        logs = []
        for net in (sim, oracle):
            log = []
            net.on_deliver = lambda target, now, message, log=log: log.append(
                (now, target, message.height))
            for sequence in range(sends):
                net.schedule_send(sequence * 300, 0, [1], make_commit(reg, height=sequence))
            drain(net)
            logs.append(log)
        assert logs[0] == logs[1]
        if drop_rate:
            assert 0 < len(logs[0]) < 0.75 * sends  # drops and the partition took their share
        else:
            assert len(logs[0]) == sends
        counted = sim.counters.sent - (sends - sim._sent[0][1])  # less the partitioned sends
        assert counted == sim._sent[0][1]
        assert reads == [(0, block) for block in range(-(-counted // 8))]


class TestSharedStreams:
    """Every simulation of one run seed reads the same link streams, each
    from its own blocks; a run's draws must not depend on what other runs of
    the seed read before it or beside it."""

    # Lossy, so that links draw for drops as well as for jitter.
    CONFIG = dataclasses.replace(
        presets.load("safety_silent_m7"), network=NetworkConfig(drop_rate=0.05)
    )
    LONGER = dataclasses.replace(CONFIG, rounds_per_epoch=3 * CONFIG.rounds_per_epoch)

    @staticmethod
    def blocks_read(monkeypatch, config) -> dict:
        """The words of each block the run of ``config`` read, by (sender, block)."""
        sims = []
        init = Simulation.__init__

        def tracked(sim, *args):
            init(sim, *args)
            sims.append(sim)

        with monkeypatch.context() as patch:
            patch.setattr(Simulation, "__init__", tracked)
            report_and_trace(config)
        (sim,) = sims
        return {
            (sender, index): list(words)
            for sender, blocks in sim._blocks.items()
            for index, words in blocks.items()
        }

    def test_digest_calls_do_not_depend_on_what_the_streams_hold(self, monkeypatch):
        # The benchmark counts crypto.digest calls as deterministic for a
        # seed, so reading a link's blocks must not call it, and neither may
        # anything a run of the seed before it left behind.
        calls = [0]
        original = crypto.digest

        def counted(*parts, **kwargs):
            calls[0] += 1
            return original(*parts, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ebrc") and getattr(module, "digest", None) is original:
                monkeypatch.setattr(module, "digest", counted)
        counts = []
        for config in (self.CONFIG, self.LONGER, self.CONFIG):
            calls[0] = 0
            report_and_trace(config)
            counts.append(calls[0])
        assert counts[0] == counts[2] > 0
        assert counts[1] > counts[0]

    def test_a_run_only_appends_to_the_streams(self, monkeypatch):
        # A longer run of the seed reads more of the same streams: every
        # block both runs read starts with the shorter run's words.
        before = self.blocks_read(monkeypatch, self.CONFIG)
        after = self.blocks_read(monkeypatch, self.LONGER)
        assert len(after) > len(before)
        shared = before.keys() & after.keys()
        assert shared
        for key in shared:
            shorter, longer = sorted((before[key], after[key]), key=len)
            assert longer[: len(shorter)] == shorter
        # And each block holds its links' draws, bit for bit.
        run_seed = crypto.digest(crypto.pack(self.CONFIG.seed), domain=b"run-seed")
        for (sender, index), words in sorted(after.items())[:6]:
            for target in range(len(words) // 16):
                for k in range(8 * index, 8 * index + 8):
                    at = 16 * target + 2 * (k % 8)
                    assert (words[at] / 2**32, words[at + 1] / 2**32) == link_draws(
                        run_seed, sender, target, k)

    def test_simulations_stepped_alternately_match_the_oracle(self, monkeypatch):
        # Two runs of one seed read the streams of links 0->1 and 0->2 in
        # turn; each must deliver what its own oracle delivers.
        reads = count_block_reads(monkeypatch)
        seed, reg = b"shared-streams", make_registry(3)
        model = dict(base_latency_us=2_000, jitter_us=1_000, drop_rate=0.2)
        schedules = (
            [(k * 500, [1, 2]) for k in range(120)],
            [(k * 300, [1]) for k in range(200)] + [(k * 700, [2]) for k in range(40)],
        )
        logs = []
        for net_pair in (
            [Simulation(seed, NetworkModel(**model)) for _ in schedules],
            [NaiveNetwork(seed, reg, **model) for _ in schedules],
        ):
            pair_logs = []
            for net, schedule in zip(net_pair, schedules):
                log = []
                net.on_deliver = lambda target, now, message, log=log: log.append(
                    (now, target, message.height))
                for sequence, (at_us, targets) in enumerate(schedule):
                    net.schedule_send(at_us, 0, targets, make_commit(reg, height=sequence))
                pair_logs.append(log)
            busy = list(net_pair)
            while busy:  # one event of each in turn
                busy = [net for net in busy if net.step_one()]
            logs.append(pair_logs)
        sims_logs, oracle_logs = logs
        assert sims_logs == oracle_logs
        assert all(log for log in sims_logs)
        # Each read the blocks it reads when run alone: none read for the other.
        alternated = sorted(reads)
        del reads[:]
        for schedule in schedules:
            sim = Simulation(seed, NetworkModel(**model))
            for sequence, (at_us, targets) in enumerate(schedule):
                sim.schedule_send(at_us, 0, targets, make_commit(reg, height=sequence))
            drain(sim)
        assert alternated == sorted(reads)
        assert alternated.count((0, 0)) == 3  # the second run widens block 0 to reach node 2


class TestEventCount:
    # An EBRC run drains its connectivity window and its rounds; a PBFT run
    # fires view-change timers.
    @pytest.mark.parametrize("name", ["safety_silent_m4", "pbft_viewchange_n26"])
    def test_step_one_runs_once_per_event(self, monkeypatch, name):
        # The benchmark counts calls of Simulation.step_one as the network's
        # events: every delivery, fired timer and deferred send is one call.
        calls, scheduled = [0], {"timer": 0, "send": 0}
        step_one = Simulation.step_one
        schedule_timer, schedule_send = Simulation.schedule_timer, Simulation.schedule_send

        def counted_step(sim):
            calls[0] += 1
            return step_one(sim)

        def counted_timer(sim, *args):
            scheduled["timer"] += 1
            schedule_timer(sim, *args)

        def counted_send(sim, *args):
            scheduled["send"] += 1
            schedule_send(sim, *args)

        monkeypatch.setattr(Simulation, "step_one", counted_step)
        monkeypatch.setattr(Simulation, "schedule_timer", counted_timer)
        monkeypatch.setattr(Simulation, "schedule_send", counted_send)
        runner = ScenarioRunner(presets.load(name))
        runner.run()
        sim = runner.sim
        left = {"timer": 0, "send": 0}
        for event in sim._queued():
            if event[0] in left:
                left[event[0]] += 1
        fired = {kind: scheduled[kind] - left[kind] for kind in scheduled}
        assert fired["timer"] > 0 and fired["send"] > 0 and sim.counters.delivered > 0
        assert calls[0] == sim.counters.delivered + fired["timer"] + fired["send"]


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


class TestLazy:
    def test_latency_multiplied(self):
        sim, deliveries, reg = make_sim()
        sim.send(0, [1], make_commit(reg), latency_factor=4.0)
        sim.send(2, [1], make_commit(reg, sender=2))
        drain(sim)
        by_sender = {m.sender: now for _, now, m in deliveries}
        assert by_sender[2] == 2_000
        assert by_sender[0] == 8_000


class TestCounters:
    def test_per_tag_and_round_attribution(self):
        sim, _, reg = make_sim()
        sim.round_index = 7
        sim.send(0, [1, 2], make_commit(reg))
        sim.send(1, [2], make_prepare(reg, sender=1))
        drain(sim)
        counts = count_messages(sim.trace)
        assert counts.by_tag["commit"] == 2
        assert counts.by_tag["prepare"] == 1
        assert {(r.round_index, r.sender) for r in sim.trace} == {(7, 0), (7, 1)}
        assert counts.by_round == {7: 3}
        assert all(r.round_index == 7 for r in trace_rows(sim.trace))

class TestFanOut:
    """Node 0's sends to five receivers: trace rows and deliveries pinned in
    order (see ``driver.fan_out``)."""

    LOSSY = NetworkModel(
        base_latency_us=2_000, jitter_us=1_000, drop_rate=0.05,
        partitions=((0, 12_000, frozenset({3})),),
    )

    @staticmethod
    def four_commits(reg):
        return [(i * 5_000, counting_commit(reg)) for i in range(4)]

    def test_lossy_network_with_partition_window(self):
        # Node 3 is cut off for the first 12 ms, and a partitioned link does
        # not count its messages: the fourth send is link 0->3's message
        # k = 0, and its drop draw is under 5%. No other draw drops.
        _, rows, deliveries = fan_out(b"fan-out-3", self.LOSSY, self.four_commits)
        assert rows == [
            (at, t, "commit", "00010203", 3, t != 3)
            for at in (0, 5_000, 10_000, 15_000)
            for t in FAN_OUT
        ]
        assert deliveries == [
            (5, 2140, "commit", "00010203"),
            (2, 2649, "commit", "00010203"),
            (4, 2922, "commit", "00010203"),
            (1, 2975, "commit", "00010203"),
            (5, 7200, "commit", "00010203"),
            (4, 7269, "commit", "00010203"),
            (2, 7384, "commit", "00010203"),
            (1, 7394, "commit", "00010203"),
            (2, 12042, "commit", "00010203"),
            (5, 12204, "commit", "00010203"),
            (4, 12490, "commit", "00010203"),
            (1, 12971, "commit", "00010203"),
            (4, 17032, "commit", "00010203"),
            (1, 17295, "commit", "00010203"),
            (2, 17722, "commit", "00010203"),
            (5, 17746, "commit", "00010203"),
        ]

    def test_one_record_per_send(self):
        # The records behind the pinned rows above: targets in the caller's
        # order, and the dropped targets in that order.
        lossy, _, _ = fan_out(b"fan-out-3", self.LOSSY, self.four_commits)
        assert [(r.time_us, r.targets, r.digest_prefix, r.dropped) for r in lossy.trace] == [
            (at, (5, 1, 4, 2, 3), "00010203", (3,)) for at in (0, 5_000, 10_000, 15_000)
        ]
        counts = count_messages(lossy.trace)
        counters = lossy.counters
        assert counts.total == counters.sent == sum(len(r.targets) for r in lossy.trace)
        assert counts.by_tag == {"commit": 20}
        assert counts.by_round == {3: 20}
        assert counts.not_dropped == counters.delivered  # drained: none in flight
        assert lossy.counters.dropped == 4


def test_simnet_imports_no_protocol_code():
    # The network carries what it is given: it knows no message class,
    # proposal, vote or consensus rule, and of the package it uses only the
    # hashing in crypto.
    tree = ast.parse(Path(simnet.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.name, None) for alias in node.names)
    assert not {m for m, _ in imported if m.lstrip(".") in ("messages", "ebrc.messages")}
    package = {
        m.lstrip(".").removeprefix("ebrc.") for m, _ in imported if m.startswith((".", "ebrc"))
    }
    assert package == {"crypto"}
