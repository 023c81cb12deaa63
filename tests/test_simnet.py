"""Deterministic network: ordering, drops, partitions, slowed sends.

What a faulty node sends is the runner's concern; see ``test_byzantine.py``.
"""

import ast
import dataclasses
import random
import sys
from pathlib import Path

import pytest

from ebrc import crypto, harness, presets, simnet
from ebrc.config import NetworkConfig
from ebrc.crypto import digest, pack
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
from oracles import NaiveNetwork


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
        simnet._link_streams.cache_clear()  # the seed's streams start cold in each case
        seed, reg = b"link-refills", make_registry(2)
        network = NetworkModel(base_latency_us, jitter_us, drop_rate, partitions)
        oracle = NaiveNetwork(seed, reg, base_latency_us=base_latency_us, jitter_us=jitter_us,
                              drop_rate=drop_rate, partitions=partitions)
        logs = []
        for net in (Simulation(seed, network), oracle):
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
        assert len(refills) >= 3 and set(refills) == {(0, 1)}


def run_seed_of(config) -> bytes:
    return digest(pack(config.seed), domain=b"run-seed")


def held_streams(run_seed: bytes) -> dict:
    """Copies of the streams held for ``run_seed``, by link. Call it while
    that seed is the cache's; for any other, it starts the seed afresh."""
    _, streams = simnet._link_streams(run_seed)
    return {
        (sender, target): list(draws)
        for sender, links in enumerate(streams)
        for target, draws in enumerate(links)
        if draws is not None
    }


def report_and_trace(config) -> str:
    """The run's report JSON and trace CSV, as ``ebrc run --trace`` writes them."""
    report, result = harness.run_scenario_with_result(config)
    return harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)


class TestSharedStreams:
    """Every simulation of one run seed reads the seed's streams, grown by
    whichever run needed more draws first; a run's draws must not depend on
    what earlier runs left in them."""

    # Lossy, so that links draw for drops as well as for jitter.
    CONFIG = dataclasses.replace(
        presets.load("safety_silent_m7"), network=NetworkConfig(drop_rate=0.05)
    )
    LONGER = dataclasses.replace(CONFIG, rounds_per_epoch=3 * CONFIG.rounds_per_epoch)
    RUN_SEED = run_seed_of(CONFIG)

    def test_bytes_do_not_depend_on_what_the_streams_hold(self):
        simnet._link_streams.cache_clear()
        cold = report_and_trace(self.CONFIG)
        cold_draws = sum(map(len, held_streams(self.RUN_SEED).values()))

        simnet._link_streams.cache_clear()
        report_and_trace(self.LONGER)
        grown = held_streams(self.RUN_SEED)
        assert sum(map(len, grown.values())) > cold_draws
        assert report_and_trace(self.CONFIG) == cold
        assert held_streams(self.RUN_SEED) == grown  # the shorter run appended nothing

        report_and_trace(dataclasses.replace(self.CONFIG, seed=self.CONFIG.seed + 1))
        misses = simnet._link_streams.cache_info().misses
        assert report_and_trace(self.CONFIG) == cold
        assert simnet._link_streams.cache_info().misses == misses + 1  # started afresh

    def test_digest_calls_do_not_depend_on_what_the_streams_hold(self, monkeypatch):
        # The benchmark counts crypto.digest calls as deterministic for a
        # seed, so seeding links, which a warm seed skips, must not call it.
        calls = [0]
        original = crypto.digest

        def counted(*parts, **kwargs):
            calls[0] += 1
            return original(*parts, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ebrc") and getattr(module, "digest", None) is original:
                monkeypatch.setattr(module, "digest", counted)
        counts = []
        for clear in (True, False):  # cold, then every link already seeded
            if clear:
                simnet._link_streams.cache_clear()
            calls[0] = 0
            report_and_trace(self.CONFIG)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0

    def test_a_run_only_appends_to_the_streams(self):
        simnet._link_streams.cache_clear()
        report_and_trace(self.CONFIG)
        before = held_streams(self.RUN_SEED)
        report_and_trace(self.LONGER)
        after = held_streams(self.RUN_SEED)
        assert any(len(after[link]) > len(draws) for link, draws in before.items())
        assert all(after[link][: len(draws)] == draws for link, draws in before.items())
        # And each stream is its link generator's, bit for bit.
        sim = Simulation(self.RUN_SEED, NetworkModel())
        for (sender, target), draws in after.items():
            rng = random.Random(int.from_bytes(sim.link_seed(sender, target), "big"))
            assert draws == [rng.random() for _ in draws]

    @pytest.mark.parametrize("protocol", [0, 1], ids=["ebrc", "pbft"])
    def test_lists_grow_once_and_stay_longer_than_needed(self, monkeypatch, protocol):
        # One seed at n=4, then n=31, then n=4 again: the streams grow to the
        # highest id named once and keep that length, and the last run's
        # cursors take the streams' length. No run's bytes depend on it.
        configs = [presets.comparison_pair(n, byzantine=False)[protocol] for n in (4, 31, 4)]
        cold = []
        for config in configs:
            simnet._link_streams.cache_clear()
            cold.append(report_and_trace(config))
        sims = []
        init = Simulation.__init__

        def tracked(sim, *args):
            init(sim, *args)
            sims.append(sim)

        monkeypatch.setattr(Simulation, "__init__", tracked)
        simnet._link_streams.cache_clear()
        lengths = []
        for config, expected in zip(configs, cold):
            assert report_and_trace(config) == expected
            _, streams = simnet._link_streams(run_seed_of(config))
            lengths.append([len(links) for links in streams])
        small, grown, again = lengths
        assert len(small) == 5 and max(small) == 5  # nodes 0-3 and the client, 4
        assert len(grown) == 32 and max(grown) == 32
        assert again == grown
        cursors = sims[-1]._cursors
        assert [len(links) for links in cursors] == [32] * 5  # 5 would do

    def test_simulations_stepped_alternately_match_the_oracle(self):
        # Two runs of one seed share the streams of links 0->1 and 0->2 and
        # grow them in turn; each must deliver what its own oracle delivers.
        simnet._link_streams.cache_clear()
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
        assert len(held_streams(seed)[0, 1]) > 2 * simnet._FIRST_DRAWS  # grown while shared


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
        # Node 3 is cut off for the first 12 ms; the 5% drops hit the links
        # to 4 (third send) and to 1 (fourth send). A partitioned link draws
        # nothing from its RNG, so node 3's first delivery time depends on it.
        _, rows, deliveries = fan_out(b"fan-out-3", self.LOSSY, self.four_commits)
        dropped = {(0, 3), (5_000, 3), (10_000, 4), (10_000, 3), (15_000, 1)}
        assert rows == [
            (at, t, "commit", "00010203", 3, (at, t) not in dropped)
            for at in (0, 5_000, 10_000, 15_000)
            for t in FAN_OUT
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
        # The records behind the pinned rows above: targets in the caller's
        # order, and the dropped targets in that order.
        lossy, _, _ = fan_out(b"fan-out-3", self.LOSSY, self.four_commits)
        assert [(r.time_us, r.targets, r.digest_prefix, r.dropped) for r in lossy.trace] == [
            (0, (5, 1, 4, 2, 3), "00010203", (3,)),
            (5_000, (5, 1, 4, 2, 3), "00010203", (3,)),
            (10_000, (5, 1, 4, 2, 3), "00010203", (4, 3)),
            (15_000, (5, 1, 4, 2, 3), "00010203", (1,)),
        ]
        counts = count_messages(lossy.trace)
        counters = lossy.counters
        assert counts.total == counters.sent == sum(len(r.targets) for r in lossy.trace)
        assert counts.by_tag == {"commit": 20}
        assert counts.by_round == {3: 20}
        assert counts.not_dropped == counters.delivered  # drained: none in flight
        assert lossy.counters.dropped == 5


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
