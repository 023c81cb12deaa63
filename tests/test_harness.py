"""Metrics, reports, fairness studies, serialization, and the CLI."""

import csv
import dataclasses
import gc
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ebrc
from ebrc import harness, presets
from ebrc.cli import main
from ebrc.config import ByzantineConfig, ExitScript, NetworkConfig, ScenarioConfig, save_scenario
from ebrc.consensus import EbrcReplica
from ebrc.crypto import KeyRegistry, SimulatedVrf
from ebrc.messages import ExitRequest, JoinRequest
from ebrc.harness import (
    ConsistencyError,
    compare_reports,
    compute_tps,
    count_messages,
    empty_committee_probability,
    fairness_experiment,
    fairness_stats,
    metrics_csv,
    report_json,
    run_scenario,
    run_scenario_with_result,
    trace_csv,
    verify_consistency,
)
from ebrc.reputation import SLASH_FRACTION
from ebrc.runner import GENESIS_DEPOSIT, ScenarioRunner, initial_table
from ebrc.simnet import RECEIVER_ROW_FIELDS, Simulation, TraceRecord, receiver_rows

from driver import trace_rows
from identity_sweep import fault_variants
from oracles import (
    CONSENSUS_TAGS,
    chi_square_uniform,
    naive_empty_committee_count,
    naive_message_counts,
)

FAST = NetworkConfig(base_latency_ms=2.0, jitter_ms=1.0, drop_rate=0.0)


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        protocol="ebrc",
        node_count=4,
        seed=1,
        omega=1.0,
        eligibility_percentile=1.0,
        consensus_percentile=1.0,
        epochs=1,
        rounds_per_epoch=2,
        block_tx_cap=3,
        load=3,
        network=FAST,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestElementaryOps:
    def test_tps(self):
        assert compute_tps(500, 10.0) == 50.0
        assert compute_tps(0, 10.0) == 0.0
        assert compute_tps(500, 0.0) is None
        with pytest.raises(ValueError):
            compute_tps(-1, 10.0)
        with pytest.raises(ValueError):
            compute_tps(1, -1.0)


class TestFairnessStats:
    def test_identical_counts_perfectly_uniform(self):
        stats = fairness_stats({0: 50, 1: 50, 2: 50, 3: 50})
        assert stats.chi_square == 0.0
        assert stats.p_value == 1.0
        assert stats.min_count == stats.max_count == 50

    def test_matches_reference_chi_square(self):
        counts = {0: 48, 1: 51, 2: 49, 3: 52}
        stats = fairness_stats(counts)
        assert stats.chi_square == pytest.approx(chi_square_uniform(counts))
        assert stats.p_value == pytest.approx(
            scipy.stats.chi2.sf(stats.chi_square, df=len(counts) - 1)
        )

    def test_skew_rejected(self):
        stats = fairness_stats({0: 1000, 1: 10, 2: 10, 3: 10})
        assert stats.p_value < 0.01

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fairness_stats({0: 5})
        with pytest.raises(ValueError):
            fairness_stats({0: 0, 1: 0})


class TestStdlibStatistics:
    """The report's statistics are plain Python; numpy and scipy, which
    computed them before, serve here as oracles only. Nor does the package
    log: importing logging (with string and traceback) costs each process
    about 0.6 MB of peak RSS."""

    def test_import_loads_no_numpy_scipy_or_logging(self):
        src = str(Path(ebrc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, ebrc, ebrc.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy', 'logging')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @staticmethod
    @st.composite
    def latencies(draw):
        # Lengths 1-600 run all three branches of the pairwise sum: plain
        # below 8 items, eight lanes up to 128, halving above.
        length = draw(st.integers(1, 600))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e7]))
        values = [rng.random() * scale for _ in range(length)]
        if draw(st.booleans()):  # ties, as whole-millisecond latencies give
            values = [round(v) for v in values]
        return [float(v) for v in values]

    @given(latencies())
    @settings(max_examples=150, deadline=None)
    @example([0.5] * 7)
    @example([float(i) * 0.1 for i in range(128)])
    @example([1.0 / (i + 1) for i in range(600)])
    @example([28.415936669394814, 64.0])  # numpy's hi - d*(1 - t) at t >= 0.5
    def test_latency_statistics_match_numpy_bit_for_bit(self, values):
        assert harness._mean(values).hex() == float(np.mean(values)).hex()
        assert statistics.median(values).hex() == float(np.median(values)).hex()
        assert harness._percentile_95(values).hex() == float(np.percentile(values, 95)).hex()

    @staticmethod
    @st.composite
    def election_counts(draw):
        # Up to 1000 nodes, so up to 999 degrees of freedom; from near-uniform
        # counts around a mean to heavily skewed ones.
        nodes = draw(st.integers(2, 1000))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        mean = draw(st.integers(1, 5_000))
        spread = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        width = int(mean * spread)
        return [1 + rng.randint(mean - width, mean + width) for _ in range(nodes)]

    @given(election_counts())
    @settings(max_examples=150, deadline=None)
    @example([48, 51, 49, 52])
    @example([1000, 10, 10, 10])
    @example([624, 9, 59286, 2, 621, 481, 10, 74379, 5])  # d ** 2 is one ulp off here
    def test_chi_square_matches_scipy(self, counts):
        stats = fairness_stats(dict(enumerate(counts)))
        reference = scipy.stats.chisquare(counts)
        assert stats.chi_square.hex() == float(reference.statistic).hex()
        assert math.isclose(
            stats.p_value, float(reference.pvalue), rel_tol=1e-11, abs_tol=sys.float_info.min
        )

    @given(st.integers(1, 999), st.floats(0.0, 3.0), st.floats(0.0, 60.0))
    @settings(max_examples=300, deadline=None)
    def test_p_value_matches_chi2_survival(self, df, spread, offset):
        # x from 0 to 3 df, and the far tail of the small-df cases.
        x = spread * df + offset
        reference = float(scipy.stats.chi2.sf(x, df))
        p_value = harness._upper_gamma_q(df / 2, x / 2)
        # Below the normal range a float keeps too few bits for a relative bound.
        assert math.isclose(p_value, reference, rel_tol=1e-11, abs_tol=sys.float_info.min)


class TestCountMessages:
    def row(self, tag, round_index, time_us=0):
        return TraceRecord(
            time_us=time_us, sender=0, targets=(1,), tag=tag,
            digest_prefix="", round_index=round_index, dropped=(),
        )

    def test_grouping(self):
        trace = [
            self.row("prepare", 1),
            self.row("commit", 1),
            self.row("commit", 1),
            self.row("commit", 2),
        ]
        counts = count_messages(trace)
        assert counts.total == 4
        assert counts.by_tag == {"prepare": 1, "commit": 3}
        assert counts.by_round == {1: 3, 2: 1}

    def test_empty_trace(self):
        counts = count_messages([])
        assert counts.total == 0 and counts.by_tag == {} and counts.by_round == {}


def recount_runs():
    """Every shipped preset at seed 1, and its 5%-drop and partition variants
    as ``identity_sweep.py`` builds them."""
    shipped = [(name, presets.load(name)) for name in presets.names()]
    lossy = [
        (label, config)
        for label, config in fault_variants(shipped)
        if label.endswith((" drop5", " partition"))
    ]
    return [
        pytest.param(dataclasses.replace(config, seed=1), id=label.replace(" ", "-"))
        for label, config in shipped + lossy
    ]


@pytest.mark.parametrize("config", recount_runs())
def test_report_message_counts_match_a_receiver_recount(config):
    # The report's counts and the live sent counter against a recount of
    # the trace's receiver rows, one message per row.
    report, result = run_scenario_with_result(config)
    total, by_tag, by_round = naive_message_counts(result.trace)
    assert report.total_messages == result.counters.sent == total
    assert report.messages_by_tag == by_tag
    assert report.messages_by_round == by_round


class TestReportPipeline:
    def test_run_produces_consistent_report(self):
        report, result = run_scenario_with_result(tiny_config())
        assert report.committed_rounds == 2
        assert report.aborted_rounds == 0
        assert not report.safety_violation
        assert report.tps is not None and report.tps > 0
        assert len(report.latency_ms) == 2
        verify_consistency(report, result)  # already ran inside; idempotent

    def test_doctored_tps_rejected(self):
        report, result = run_scenario_with_result(tiny_config())
        report.tps = (report.tps or 0.0) + 5.0
        with pytest.raises(ConsistencyError):
            verify_consistency(report, result)

    def test_truncated_trace_rejected(self):
        report, result = run_scenario_with_result(tiny_config())
        result.trace = result.trace[:-1]
        with pytest.raises(ConsistencyError):
            verify_consistency(report, result)

    def test_run_ending_with_deliveries_in_flight_passes(self):
        # A lazy member's slow messages are still on the heap when the run
        # ends: neither delivered nor dropped, and counted as in flight.
        config = dataclasses.replace(presets.safety_preset(7, "lazy", 1), name="lazy_m7")
        report, result = run_scenario_with_result(config)
        assert result.in_flight > 0
        assert not report.safety_violation
        counts = count_messages(result.trace)
        assert counts.not_dropped == result.counters.delivered + result.in_flight

    @pytest.mark.parametrize(
        "doctor",
        ["delivered", "in_flight", "dropped", "dropped_for_delivered", "report_total"],
    )
    def test_doctored_outcome_counts_rejected(self, doctor):
        config = dataclasses.replace(presets.safety_preset(7, "lazy", 1), name="lazy_m7")
        report, result = run_scenario_with_result(config)
        if doctor == "report_total":
            # The run agrees with itself; only the report is off.
            report.total_messages += 1
        elif doctor == "delivered":
            result.counters.delivered += 1
        elif doctor == "in_flight":
            result.in_flight += 1
        elif doctor == "dropped":
            # The trace agrees with the other counters; only conservation can tell.
            result.counters.dropped += 1
        else:
            # Conservation still holds; only the trace can tell.
            result.counters.delivered -= 1
            result.counters.dropped += 1
        with pytest.raises(ConsistencyError):
            verify_consistency(report, result)

    def test_doctored_latency_rejected(self):
        report, result = run_scenario_with_result(tiny_config())
        report.latency_ms = [v + 1.0 for v in report.latency_ms]
        with pytest.raises(ConsistencyError):
            verify_consistency(report, result)

    def test_to_dict_stringifies_numeric_keys(self):
        report, _ = run_scenario_with_result(tiny_config())
        payload = report.to_dict()
        assert all(isinstance(k, str) for k in payload["messages_by_round"])
        assert all(isinstance(k, str) for k in payload["election_counts"])
        json.dumps(payload)  # must be JSON-clean


class TestRunnerAccountability:
    def test_ousted_silent_member_has_one_incompletion_per_round(self):
        # Nodes 5 and 6 are silent in every one of the 6 committed rounds; a
        # round where a view change also ousts one must count it once.
        runner = ScenarioRunner(presets.load("safety_silent_m7"))
        result = runner.run()
        assert result.committed_rounds == 6
        assert [runner.table[n].incomplete_count for n in (5, 6)] == [6, 6]

    def test_genesis_table_gives_every_node_the_genesis_deposit(self):
        table = initial_table(7)
        assert [record.deposit for record in table.values()] == [GENESIS_DEPOSIT] * 7
        # Equal deposits and no events: every node starts on the same score.
        assert len({record.reputation for record in table.values()}) == 1

    def test_each_conviction_slashes_and_keeps_its_kind(self):
        # Node 5 forges its sortition proof twice; each confirmed report
        # names the evidence and takes SLASH_FRACTION of the deposit.
        runner = ScenarioRunner(presets.load("election_corrupt_proof_n6"))
        result = runner.run()
        rows = [(r["node"], r["kind"]) for r in result.confirmed_reports]
        assert rows == [(5, "invalid-sortition-proof")] * 2
        assert runner.table[5].deposit == pytest.approx(GENESIS_DEPOSIT * (1 - SLASH_FRACTION) ** 2)
        assert all(runner.table[n].deposit == GENESIS_DEPOSIT for n in range(5))

    def test_skipped_scripted_exit_is_noted(self):
        ebrc, _ = presets.comparison_pair(10, byzantine=False)
        config = dataclasses.replace(ebrc, exits=(ExitScript(round_index=1, node_id=7),))
        report, result = run_scenario_with_result(config)
        assert 7 in result.elections[0].candidates
        assert report.membership_flows == []
        assert report.notes == [
            "scripted exit of node 7 after round 1 skipped: not a consensus node"
        ]
        assert json.loads(report_json(report.to_dict()))["notes"] == report.notes

    def test_exit_after_an_aborted_round_is_noted(self):
        # The client (id 11) is cut off for the whole run, so no round commits.
        config = presets.load("churn_exit_m11")
        cut = dataclasses.replace(config.network, partitions=((0.0, 1e6, (11,)),))
        report, result = run_scenario_with_result(dataclasses.replace(config, network=cut))
        assert result.committed_rounds == 0
        assert report.membership_flows == []
        assert report.notes == [
            "scripted exit of node 7 after round 1 skipped: round 1 did not commit"
        ]

    def test_two_convictions_in_one_round_share_no_promotion(self):
        # Committee 7 (f=2) with one candidate, node 7: silent nodes 5 and 6
        # are both convicted at height 2. Only one of them can be replaced;
        # the other stalls, so the committee keeps its 3f+1 = 7 floor.
        config = dataclasses.replace(
            presets.load("churn_join_m7"),
            byzantine=ByzantineConfig(node_ids=(5, 6), behavior="silent"),
            replace_faulty=True,
            exits=(),
        )
        runner = ScenarioRunner(config)
        result = runner.run()
        at_two = [(e["kind"], e["node"]) for e in result.membership_log if e["height"] == 2]
        assert at_two == [("replace", 5), ("join", 7)]
        assert {"node": 6, "height": 2, "forced": True} in result.stalled_memberships
        assert len(runner.replicas[0].committee) == 7

    @pytest.mark.parametrize("name", ["pbft_viewchange_n26", "compare_byz_pbft_n10"])
    def test_pbft_run_records_no_behaviour_events(self, name):
        # Only EBRC's reputation update reads behaviour events.
        runner = ScenarioRunner(presets.load(name))
        runner.run()
        assert runner._epoch_events == []


def floor_variant(name, variant):
    """A churn or DJEP preset with node 3 Byzantine under ``replace_faulty``,
    or with its last node (the candidate, where it has one) silent."""
    config = presets.load(name)
    if variant == "silent_last":
        byzantine = ByzantineConfig(node_ids=(config.node_count - 1,), behavior="silent")
        return dataclasses.replace(config, byzantine=byzantine)
    byzantine = ByzantineConfig(node_ids=(3,), behavior=variant)
    return dataclasses.replace(config, byzantine=byzantine, replace_faulty=True)


def two_candidates(convicted, seed):
    """``churn_promote_m7`` (committee 0-6, candidates 7 and 8, ``replace_faulty``)
    with ``convicted`` the member that equivocates: node 4's exit invites
    candidate 7, and the conviction needs a candidate too."""
    return dataclasses.replace(
        presets.load("churn_promote_m7"),
        byzantine=ByzantineConfig(node_ids=(convicted,), behavior="equivocate"),
        seed=seed,
    )


def membership_changes(result):
    return [(e["kind"], e["node"], e["height"]) for e in result.membership_log]


class TestMembershipFloor:
    """No applied transition takes the committee below 3f+1, for the f in
    force before it; an exit the floor holds back is named in ``notes``."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("variant", ["equivocate", "corrupt_digest", "silent_last"])
    @pytest.mark.parametrize(
        "name", ["churn_exit_m11", "churn_join_m7", "djep_exit_m26", "djep_join_m25"]
    )
    def test_every_transition_keeps_the_floor(self, monkeypatch, name, variant, seed):
        sizes = []
        apply_membership = EbrcReplica.apply_membership

        def recording(replica, committee, candidates, **kwargs):
            sizes.append((len(replica.committee), replica.f, len(committee)))
            return apply_membership(replica, committee, candidates, **kwargs)

        monkeypatch.setattr(EbrcReplica, "apply_membership", recording)
        ScenarioRunner(dataclasses.replace(floor_variant(name, variant), seed=seed)).run()
        assert [s for s in sizes if s[2] < 3 * s[1] + 1] == []

    @pytest.mark.parametrize(
        "name, variant, leaver",
        [
            # The exit was planned before node 3's replacement took the spare
            # member: applying it too would leave 9 members with f=3.
            ("churn_exit_m11", "equivocate", 7),
            # The exit waits on candidate 7's join, which never comes.
            ("churn_join_m7", "silent_last", 4),
        ],
    )
    def test_exit_held_by_the_floor_is_noted(self, name, variant, leaver):
        result = ScenarioRunner(floor_variant(name, variant)).run()
        assert ("exit", leaver) not in [(e["kind"], e["node"]) for e in result.membership_log]
        assert result.notes == [
            f"scripted exit of node {leaver} (effective height 4) never applied"
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conviction_leaves_the_invited_candidate_to_the_exit(self, seed):
        # Node 7's join is pending at the members when node 3 is convicted.
        result = ScenarioRunner(two_candidates(3, seed)).run()
        assert membership_changes(result) == [
            ("replace", 3, 3), ("join", 8, 3), ("exit", 4, 4), ("join", 7, 4),
        ]
        assert result.notes == []

    def test_invitation_holds_its_candidate_before_the_join_request_lands(self, monkeypatch):
        # Node 7's JoinRequest is held back 70 ms, past node 5's conviction:
        # only the master's invitation marks 7 as the exit's.
        send, held = Simulation.send, set()

        def late_join_requests(sim, sender, targets, message):
            if isinstance(message, JoinRequest) and message not in held:
                held.add(message)
                sim.schedule_send(sim.now + 70_000, sender, targets, message)
            else:
                send(sim, sender, targets, message)

        monkeypatch.setattr(Simulation, "send", late_join_requests)
        result = ScenarioRunner(two_candidates(5, 1)).run()
        assert membership_changes(result) == [
            ("replace", 5, 4), ("join", 8, 4), ("exit", 4, 5), ("join", 7, 5),
        ]
        assert result.notes == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_byzantine_master_cannot_hide_its_invitation(self, monkeypatch, seed):
        # Master 3 equivocates and invites candidate 7 for node 4's exit; 7's
        # JoinRequest lands 70 ms late, after 3's conviction. The members hold
        # the ExitCommit that names 7, so the conviction promotes 8 instead.
        send, held = Simulation.send, set()

        def late_join_requests(sim, sender, targets, message):
            # The deferred send comes back through here; it goes out as is.
            if isinstance(message, JoinRequest) and message not in held:
                held.add(message)
                sim.schedule_send(sim.now + 70_000, sender, targets, message)
            else:
                send(sim, sender, targets, message)

        monkeypatch.setattr(Simulation, "send", late_join_requests)
        config = dataclasses.replace(
            presets.load("churn_join_m7"),
            node_count=9,
            consensus_percentile=7 / 9,
            byzantine=ByzantineConfig(node_ids=(3,), behavior="equivocate"),
            replace_faulty=True,
            seed=seed,
        )
        result = ScenarioRunner(config).run()
        assert 7 not in [r["node"] for r in result.confirmed_reports]
        assert membership_changes(result) == [
            ("replace", 3, 3), ("join", 8, 3), ("exit", 4, 5), ("join", 7, 5),
        ]
        assert result.notes == []

    def test_members_hold_an_exit_whose_candidate_is_cut_off(self, monkeypatch):
        # Candidate 7 never hears its ChangeNotice: every member holds node 4's
        # exit, which names 7, and it never applies.
        config = presets.load("churn_join_m7")
        network = dataclasses.replace(config.network, partitions=((0.0, 10_000.0, (7,)),))
        held = []
        close_epoch = ScenarioRunner._close_epoch

        def recording(runner):
            roster = runner._roster
            assert len(roster.committee) >= 3 * roster.f + 1
            memberships = [runner.replicas[n].membership for n in roster.committee]
            held.append([(m.due_exits(runner._next_height()), m.invited()) for m in memberships])
            close_epoch(runner)

        monkeypatch.setattr(ScenarioRunner, "_close_epoch", recording)
        result = ScenarioRunner(dataclasses.replace(config, network=network)).run()
        assert held[0] == [([4], {7})] * 7
        assert result.membership_log == []
        assert result.notes == ["scripted exit of node 4 (effective height 4) never applied"]

    def test_exit_lost_to_a_partitioned_master_is_noted(self):
        # Node 7's ExitRequest goes to master 3 while 3 is cut off.
        config = presets.load("churn_exit_m11")
        network = dataclasses.replace(config.network, partitions=((10.0, 60.0, (3,)),))
        report, _ = run_scenario_with_result(dataclasses.replace(config, network=network))
        assert [flow["node"] for flow in report.membership_flows] == [7]
        assert report.notes == ["scripted exit of node 7 (effective height 4) never applied"]

    def test_master_processes_its_own_exit(self, monkeypatch):
        # Which node a script names changes nothing before its round, so a
        # first run finds the master at the exit round and a second scripts
        # that node's exit: its ExitRequest takes no wire hop, and the exit
        # still applies.
        config = presets.load("churn_exit_m11")
        (script,) = config.exits
        masters = []
        inject = ScenarioRunner._inject_scripted_exits

        def injecting(runner, round_index):
            if round_index == script.round_index:
                masters.append(runner._current_master())
            inject(runner, round_index)

        monkeypatch.setattr(ScenarioRunner, "_inject_scripted_exits", injecting)
        ScenarioRunner(config).run()
        (master,) = masters
        assert master != script.node_id
        exit_script = dataclasses.replace(script, node_id=master)
        result = ScenarioRunner(dataclasses.replace(config, exits=(exit_script,))).run()
        assert masters == [master, master]
        assert not any(record.tag == ExitRequest.TAG for record in result.trace)
        (flow,) = result.membership_flows
        assert flow["node"] == master and "applied_at_us" in flow
        assert ("exit", master) in [(e["kind"], e["node"]) for e in result.membership_log]
        assert result.notes == []


class TestRunnerLifetime:
    @pytest.mark.parametrize("protocol", ["ebrc", "pbft"])
    def test_finished_run_freed_by_reference_counting(self, protocol):
        ebrc_config, pbft_config = presets.law_pair(4)
        config = ebrc_config if protocol == "ebrc" else pbft_config
        gc.disable()  # only reference counting may free the run
        try:
            runner = ScenarioRunner(config)
            result = runner.run()
            refs = [weakref.ref(runner), weakref.ref(runner.sim)]
            del runner
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert result.committed_rounds > 0


class TestCompare:
    def test_compare_reports_rows_and_traits(self):
        ebrc_cfg, pbft_cfg = presets.law_pair(4)
        table = compare_reports([run_scenario(ebrc_cfg), run_scenario(pbft_cfg)])
        assert {row["protocol"] for row in table["rows"]} == {"ebrc", "pbft"}
        assert set(table["traits"]) == {"ebrc", "pbft"}
        ebrc_row = next(r for r in table["rows"] if r["protocol"] == "ebrc")
        pbft_row = next(r for r in table["rows"] if r["protocol"] == "pbft")
        ebrc_law = sum(ebrc_row["messages_by_tag"].get(t, 0) for t in CONSENSUS_TAGS)
        pbft_law = sum(pbft_row["messages_by_tag"].get(t, 0) for t in CONSENSUS_TAGS)
        assert ebrc_law == 19 and pbft_law == 28

    def test_tampered_totals_rejected(self):
        report = run_scenario(presets.law_pair(4)[0])
        report.total_messages += 1
        with pytest.raises(ConsistencyError):
            compare_reports([report])


class TestClientStream:
    def test_zero_load_sends_no_requests(self):
        report, result = run_scenario_with_result(tiny_config(load=0, rounds_per_epoch=2))
        assert "request" not in report.messages_by_tag
        assert report.committed_rounds == 0
        assert report.aborted_rounds == 2
        assert report.blocks == []
        assert report.tps is None

    def test_stream_timestamps_strictly_increase(self):
        config = tiny_config(load=12, block_tx_cap=12, rounds_per_epoch=1)
        _, result = run_scenario_with_result(config)
        request_times = sorted(
            {r.time_us for r in trace_rows(result.trace) if r.tag == "request"}
        )
        assert len(request_times) == 12
        assert all(b - a == 1 for a, b in zip(request_times, request_times[1:]))

    def test_one_client_sends_every_request(self):
        config = tiny_config(load=12, block_tx_cap=12, rounds_per_epoch=1)
        _, result = run_scenario_with_result(config)
        senders = {r.sender for r in trace_rows(result.trace) if r.tag == "request"}
        assert senders == {4}  # the client id follows the node range

    def test_same_seed_identical_stream(self):
        config = tiny_config(load=6, rounds_per_epoch=1, block_tx_cap=6)
        _, result_a = run_scenario_with_result(config)
        _, result_b = run_scenario_with_result(config)
        rows_a = [r for r in trace_rows(result_a.trace) if r.tag == "request"]
        rows_b = [r for r in trace_rows(result_b.trace) if r.tag == "request"]
        assert rows_a == rows_b


class TestSerialization:
    def test_report_json_canonical(self):
        payload = {"b": 1, "a": {"z": True, "m": None}}
        text = report_json(payload)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == payload

    def test_metrics_csv_shape(self):
        report, _ = run_scenario_with_result(tiny_config())
        text = metrics_csv([report])
        lines = text.strip().split("\n")
        assert lines[0] == "name,protocol,node_count,seed,metric,value"
        assert {line.split(",")[0] for line in lines[1:]} == {"tiny"}
        metrics = {line.split(",")[4] for line in lines[1:]}
        assert {"tps", "mean_latency_ms", "total_messages"} <= metrics
        assert any(m.startswith("messages_") for m in metrics)
        row = next(line for line in lines[1:] if line.split(",")[4] == "tps")
        assert float(row.split(",")[5]) == report.tps

    def test_trace_csv_rows(self):
        report, result = run_scenario_with_result(tiny_config(rounds_per_epoch=1))
        text = trace_csv(result.trace)
        lines = text.strip().split("\n")
        assert lines[0].startswith("time_us,sender,target,tag")
        assert len(lines) == len(trace_rows(result.trace)) + 1

    def test_trace_csv_is_the_csv_writer_rendering(self):
        # Random drops, node 3 cut off for the first 20 ms, an equivocating
        # master's split and sends without a digest.
        config = tiny_config(
            node_count=7,
            rounds_per_epoch=4,
            byzantine=ByzantineConfig(node_ids=(1,), behavior="equivocate"),
            network=NetworkConfig(drop_rate=0.05, partitions=((0.0, 20.0, (3,)),)),
        )
        trace = ScenarioRunner(config).run().trace
        cut_off = [r for r in trace if r.time_us < 20_000 and 3 in r.targets]
        assert cut_off and all(3 in r.dropped for r in cut_off)
        assert any(r.dropped and r.time_us >= 20_000 for r in trace)
        # The equivocating master's proposal goes out under two digests at once.
        proposals = {}
        for r in trace:
            if r.sender == 1 and r.tag == "prepare":
                proposals.setdefault(r.time_us, set()).add(r.digest_prefix)
        assert 2 in {len(prefixes) for prefixes in proposals.values()}
        assert any(r.digest_prefix == "" for r in trace)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(RECEIVER_ROW_FIELDS)
        writer.writerows(receiver_rows(trace))
        assert trace_csv(trace) == buffer.getvalue()

    def test_reports_byte_identical_across_reruns(self):
        config = tiny_config()
        report_a, result_a = run_scenario_with_result(config)
        report_b, result_b = run_scenario_with_result(config)
        assert report_json(report_a.to_dict()) == report_json(report_b.to_dict())
        assert trace_csv(result_a.trace) == trace_csv(result_b.trace)


class TestFairnessExperiment:
    def test_uniform_counts_not_rejected(self):
        report = fairness_experiment(20, 300, seed=0)
        assert report["failed_epochs"] == 0
        assert report["p_value"] > 0.01
        assert set(report["membership_counts"]) == {str(n) for n in range(20)}

    def test_poisoned_odd_nodes_demoted(self):
        report = fairness_experiment(20, 300, poison_odd=True, seed=0)
        assert report["demotion_ratio"] is not None
        assert report["demotion_ratio"] < 0.5
        assert report["poisoned_mean_consensus"] < report["honest_mean_consensus"]

    def test_deterministic(self):
        assert fairness_experiment(12, 50, seed=3) == fairness_experiment(12, 50, seed=3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fairness_experiment(1, 10)
        with pytest.raises(ValueError):
            fairness_experiment(10, 0)

    @pytest.mark.parametrize("node_count", [2, 3])
    def test_too_few_nodes_for_a_committee_rejected(self, node_count):
        with pytest.raises(ValueError, match="needs at least 4 nodes"):
            fairness_experiment(node_count, 10)


class TestEmptyCommittee:
    def test_frequency_tracks_analytic(self):
        report = empty_committee_probability(node_count=10, omega=0.4, trials=3_000, seed=0)
        assert report["analytic"] == pytest.approx(0.6 ** 10)
        assert abs(report["frequency"] - report["analytic"]) < 0.005
        assert "0.01%" in report["note"]

    def test_deterministic(self):
        a = empty_committee_probability(trials=500, seed=1)
        b = empty_committee_probability(trials=500, seed=1)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            empty_committee_probability(trials=0)

    @pytest.mark.parametrize("node_count, omega", [(3, -0.5), (10, 1.5), (10, 0.0), (0, 0.4)])
    def test_rejects_what_an_election_rejects(self, node_count, omega):
        # (3, -0.5) would report an "analytic" 3.375; (10, 1.5) 0.00098
        # against a frequency of 0.
        with pytest.raises(ValueError):
            empty_committee_probability(node_count, omega, 200)

    def test_trials_make_no_proof(self, monkeypatch):
        # Registering takes every key's proof state, so count the draws on a
        # proof state instead: the pair's own or one derived anew, which
        # holds the same bytes.
        pairs, drawn = [], []
        register, draw = KeyRegistry.register, SimulatedVrf.draw

        def registering(self, owner_id):
            pairs.append(register(self, owner_id))
            return pairs[-1]

        def counting(state, framed_seed):
            drawn.append(state)
            return draw(state, framed_seed)

        monkeypatch.setattr(KeyRegistry, "register", registering)
        monkeypatch.setattr(SimulatedVrf, "draw", staticmethod(counting))
        report = empty_committee_probability(10, 0.4, 500)
        assert report["trials"] == 500
        assert len(pairs) == 10 and drawn
        proof_states = {pair.proof_state.digest() for pair in pairs}
        assert sum(state.digest() in proof_states for state in drawn) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        node_count=st.integers(1, 12),
        omega=st.floats(0.01, 1.0),
        trials=st.integers(1, 120),
        seed=st.integers(0, 2**64),
    )
    def test_empty_count_matches_naive_trials(self, node_count, omega, trials, seed):
        report = empty_committee_probability(node_count, omega, trials, seed)
        assert report["empty_count"] == naive_empty_committee_count(node_count, omega, trials, seed)


class TestCli:
    def scenario_file(self, tmp_path, config=None):
        config = config or tiny_config()
        path = tmp_path / f"{config.name}.json"
        save_scenario(config, path)
        return str(path)

    def test_run_writes_artifacts(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--scenario", scenario, "--out", str(out), "--trace"])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "trace.csv").exists()
        summary = capsys.readouterr().out
        assert "safety=ok" in summary

    def test_rerun_byte_identical(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", scenario, "--out", str(out_a), "--trace"]) == 0
        assert main(["run", "--scenario", scenario, "--out", str(out_b), "--trace"]) == 0
        for name in ("report.json", "metrics.csv", "trace.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", scenario, "--out", str(out_a), "--trace"]) == 0
        assert main(
            ["run", "--scenario", scenario, "--seed", "7", "--out", str(out_b), "--trace"]
        ) == 0
        assert (out_a / "trace.csv").read_bytes() != (out_b / "trace.csv").read_bytes()

    def test_compare_writes_comparison(self, tmp_path, capsys):
        ebrc_cfg, pbft_cfg = presets.law_pair(4)
        files = [self.scenario_file(tmp_path, c) for c in (ebrc_cfg, pbft_cfg)]
        out = tmp_path / "cmp"
        code = main(["compare", "--scenarios", *files, "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["comparison"]["rows"]) == 2
        assert len(payload["reports"]) == 2

    def test_run_trace_without_out_is_usage_error(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        assert main(["run", "--scenario", scenario, "--trace"]) == 1
        captured = capsys.readouterr()
        assert "error: --trace" in captured.err and not captured.out

    def test_compare_trace_without_out_is_usage_error(self, tmp_path, capsys):
        files = [self.scenario_file(tmp_path, c) for c in presets.law_pair(4)]
        assert main(["compare", "--scenarios", *files, "--trace"]) == 1
        captured = capsys.readouterr()
        assert "error: --trace" in captured.err and not captured.out

    def test_compare_trace_with_repeated_name_is_usage_error(self, tmp_path, capsys):
        # Both files take the default name, so both traces would be written
        # to trace_scenario.csv.
        files = []
        for seed in (1, 2):
            path = tmp_path / f"seed{seed}.json"
            path.write_text(json.dumps({"seed": seed, "rounds_per_epoch": 2}), encoding="utf-8")
            files.append(str(path))
        out = tmp_path / "cmp"
        assert main(["compare", "--scenarios", *files, "--out", str(out), "--trace"]) == 1
        captured = capsys.readouterr()
        assert "'scenario' repeats" in captured.err and not captured.out
        assert not out.exists()
        # Without --trace no file is shared, so the same scenarios compare.
        assert main(["compare", "--scenarios", *files, "--out", str(out)]) == 0
        assert len(json.loads((out / "report.json").read_text())["reports"]) == 2

    def test_fairness_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fair"
        code = main(
            ["fairness", "--nodes", "8", "--epochs", "40", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "fairness.json").read_text())
        assert payload["node_count"] == 8
        assert "p_value" in payload

    def test_fairness_with_too_few_nodes_is_usage_error(self, capsys):
        assert main(["fairness", "--nodes", "3", "--epochs", "10"]) == 1
        assert "needs at least 4 nodes" in capsys.readouterr().err

    def test_fairness_where_every_election_fails_says_so(self, capsys):
        assert main(["fairness", "--nodes", "20", "--epochs", "10", "--omega", "0.01"]) == 1
        captured = capsys.readouterr()
        assert "all 10 elections failed" in captured.err and not captured.out

    @pytest.mark.parametrize("omega", ["0", "1.5"])
    def test_fairness_rejects_omega_outside_its_range(self, omega, capsys):
        assert main(["fairness", "--nodes", "20", "--epochs", "10", "--omega", omega]) == 1
        err = capsys.readouterr().err
        assert "omega must lie in (0, 1]" in err and "sortition_threshold" not in err

    def test_fairness_prints_failed_epochs(self, capsys):
        assert main(["fairness", "--nodes", "4", "--epochs", "20"]) == 0
        assert "failed_epochs=13/20" in capsys.readouterr().out

    def test_missing_required_argument_is_usage_error(self, tmp_path, capsys):
        assert main(["run"]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_scenario_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "absent.json")]) == 1

    def test_invalid_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"node_count": 2}\n', encoding="utf-8")
        assert main(["run", "--scenario", str(bad)]) == 1

    def test_bad_seed_override_is_usage_error(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        assert main(["run", "--scenario", scenario, "--seed", "-3"]) == 1

    def test_scenario_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_out_existing_file_is_usage_error(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(["run", "--scenario", scenario, "--out", str(taken)]) == 1
        assert "error: " in capsys.readouterr().err
