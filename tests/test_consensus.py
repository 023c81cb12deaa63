"""Replica state machines: master rotation, quorums, round flow, view change."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebrc import consensus, crypto, presets
from ebrc.consensus import (
    EbrcReplica,
    QuorumConflict,
    TimerTick,
    batch_digest_of,
    block_digest_of,
    canonical_batch,
    check_quorum,
    select_master,
    tx_digest,
)
from ebrc.messages import (
    BlockAnnounce,
    Commit,
    PbftPrepare,
    PrePrepare,
    Prepare,
    Report,
    Reply,
    Request,
    ViewChange,
    signature_ok,
    signed,
)
from ebrc.runner import ScenarioRunner

from driver import (
    BATCH_US,
    CLIENT,
    TIMEOUT_US,
    Pump,
    make_committee,
    make_group,
    make_prepare,
    make_registry,
    make_request,
    per_recipient,
    view_changes,
)
from oracles import NaiveVotePath, send_key


class TestSelectMaster:
    def test_examples(self):
        assert select_master(5, 2, 1) == 3
        assert select_master(0, 0, 1) == 0
        assert select_master(3, 1, 2) == 4

    def test_rotation_covers_all_slots(self):
        # With f=1 (4 slots), four consecutive heights at a fixed view touch
        # every slot exactly once.
        seen = {select_master(h, 7, 1) for h in range(4)}
        assert seen == {0, 1, 2, 3}

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            select_master(1, 0, -1)

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 8))
    def test_in_range(self, h, v, f):
        assert 0 <= select_master(h, v, f) < 3 * f + 1


class TestCheckQuorum:
    def test_examples(self):
        a, b = b"a" * 32, b"b" * 32
        assert check_quorum({a: {0, 1, 2}}, 1) == a
        assert check_quorum({a: {0, 1}}, 1) is None
        assert check_quorum({a: {0, 1, 2, 3, 4}, b: {5}}, 2) == a
        assert check_quorum({}, 1) is None

    def test_conflict_raises(self):
        # An equivocating voter can push two digests past 2f+1 only by
        # exceeding the fault budget; that must surface, not resolve.
        a, b = b"a" * 32, b"b" * 32
        with pytest.raises(QuorumConflict):
            check_quorum({a: {0, 1, 2}, b: {0, 3, 4}}, 1)

    def test_quorum_intersection_exhaustive(self):
        # Any two 2f+1 quorums among 3f+1 nodes overlap in >= f+1 nodes, so
        # at least one honest voter links them (f=1 and f=2 checked fully).
        for f in (1, 2):
            nodes = range(3 * f + 1)
            for size_a in (2 * f + 1, 3 * f + 1):
                for quorum_a in itertools.combinations(nodes, size_a):
                    for quorum_b in itertools.combinations(nodes, 2 * f + 1):
                        assert len(set(quorum_a) & set(quorum_b)) >= f + 1

    @given(
        st.dictionaries(
            st.binary(min_size=4, max_size=4),
            st.sets(st.integers(0, 12), max_size=13),
            max_size=4,
        ),
        st.integers(0, 3),
    )
    def test_winner_is_unique_threshold_holder(self, tally, f):
        threshold = 2 * f + 1
        heavy = [d for d, senders in tally.items() if len(senders) >= threshold]
        if len(heavy) > 1:
            with pytest.raises(QuorumConflict):
                check_quorum(tally, f)
        else:
            winner = check_quorum(tally, f)
            assert winner == (heavy[0] if heavy else None)


class TestBatching:
    def test_canonical_order_and_cap(self):
        reg = make_registry(1)
        r_late = make_request(reg, b"z", ts=30)
        r_early = make_request(reg, b"a", ts=10)
        r_mid = make_request(reg, b"m", ts=20)
        buffer = {r.digest: r for r in (r_late, r_early, r_mid)}
        batch = canonical_batch(buffer, cap=2)
        assert [r.payload for r in batch] == [b"a", b"m"]

    def test_timestamp_tie_breaks_on_client_then_digest(self):
        reg = make_registry(1)
        reg.register(CLIENT + 1)
        r_a = make_request(reg, b"a", ts=10, client=CLIENT + 1)
        r_b = make_request(reg, b"b", ts=10, client=CLIENT)
        batch = canonical_batch({r.digest: r for r in (r_a, r_b)}, cap=5)
        assert [r.client_id for r in batch] == [CLIENT, CLIENT + 1]

    def test_batch_digest_order_sensitive(self):
        reg = make_registry(1)
        r1, r2 = make_request(reg, b"a"), make_request(reg, b"b")
        assert batch_digest_of([r1, r2]) != batch_digest_of([r2, r1])
        assert batch_digest_of([r1, r2]) == batch_digest_of([r1, r2])


class TestRoundWalkthrough:
    """One full two-phase round with m=4, f=1, a single client request."""

    def run_round(self):
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        # Initial master is committee[(height=1 + view=0) mod 4] = node 1.
        assert replicas[0].leader_id() == 1
        assert replicas[1].is_leader
        fired = pump.fire(1, "batch", now=BATCH_US)
        assert fired
        pump.deliver_all(now=BATCH_US)
        return replicas, pump, request

    def test_all_replicas_commit_identical_block(self):
        replicas, _, request = self.run_round()
        digests = {rep.ledger[1].block_digest for rep in replicas.values()}
        assert len(digests) == 1
        block = replicas[0].ledger[1]
        assert block.batch_digests == (request.digest,)
        assert block.tx_count == 1
        assert block.block_digest == block_digest_of(
            replicas[0].ledger[0].block_digest, 1, block.batch_digests
        )

    def test_height_and_view_both_advance(self):
        # Master rotation depends on history: view does not reset per round,
        # so the next master index is (2 + 1) mod 4 = 3.
        replicas, _, _ = self.run_round()
        for rep in replicas.values():
            assert rep.height == 2
            assert rep.view == 1
            assert rep.leader_id() == 3

    def test_per_round_message_counts(self):
        # (m-1) proposals + m(m-1) commit votes + m replies = 3 + 12 + 4.
        _, pump, _ = self.run_round()
        assert pump.counts["Prepare"] == 3
        assert pump.counts["Commit"] == 12
        assert pump.counts["Reply"] == 4
        assert pump.counts["ViewChange"] == 0

    def test_every_member_replies_to_client(self):
        replicas, pump, _ = self.run_round()
        assert pump.counts["Reply"] == len(replicas)

    def test_request_buffer_drained(self):
        replicas, _, _ = self.run_round()
        assert all(not rep.request_buffer for rep in replicas.values())


class TestBadProposal:
    def test_wrong_digest_triggers_report_and_viewchange(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        bad = signed(
            Prepare(
                height=1, view=0,
                batch=(request,), digest=tx_digest(b"other"), sender=1,
            ),
            reg, 1,
        )
        result = replicas[0].step(0, bad)
        reports = per_recipient(result, Report)
        vcs = per_recipient(result, ViewChange)
        assert len(reports) == 3 and len(vcs) == 3
        assert [t for t, _ in reports] == [t for t, _ in vcs] == [1, 2, 3]
        assert all(r.accused == 1 for _, r in reports)
        assert all(r.evidence_kind == "invalid-proposal" for _, r in reports)
        assert all(vc.proposed_view == 1 for _, vc in vcs)

    def test_prepare_from_non_master_dropped(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        rogue = signed(
            Prepare(
                height=1, view=0,
                batch=(request,), digest=batch_digest_of((request,)), sender=2,
            ),
            reg, 2,
        )
        assert not replicas[0].step(0, rogue).sends

    def test_stale_view_prepare_dropped(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        stale = signed(
            Prepare(
                height=1, view=5,
                batch=(request,), digest=batch_digest_of((request,)), sender=1,
            ),
            reg, 1,
        )
        assert not replicas[0].step(0, stale).sends

    def test_forged_prepare_signature_dropped(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        forged = signed(
            Prepare(
                height=1, view=0,
                batch=(request,), digest=batch_digest_of((request,)), sender=1,
            ),
            reg, 2,  # signed with the wrong key
        )
        assert not replicas[0].step(0, forged).sends


class TestSilentMaster:
    def test_view_change_deposes_and_new_master_commits(self):
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        # Master (node 1) never proposes; the slaves' watchdogs expire.
        for node in (0, 2, 3):
            assert pump.fire(node, "round", now=TIMEOUT_US)
        pump.deliver_all(now=TIMEOUT_US)
        for rep in replicas.values():
            assert rep.view == 1
            assert view_changes(rep) == 1
            assert ("incompletion", 1, 1) in rep.observations
        # New master is committee[(1 + 1) mod 4] = node 2.
        assert replicas[0].leader_id() == 2
        assert pump.fire(2, "batch", now=TIMEOUT_US + BATCH_US)
        pump.deliver_all(now=TIMEOUT_US + BATCH_US)
        digests = {rep.ledger[1].block_digest for rep in replicas.values()}
        assert len(digests) == 1
        # Liveness bound: committed within f+1 = 2 view changes.
        assert all(view_changes(rep) <= 2 for rep in replicas.values())

    def test_straggler_joins_at_f_plus_1_votes(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[3].step(0, request)
        vc_a = signed(ViewChange(height=1, proposed_view=1, reporter=0), reg, 0)
        vc_b = signed(ViewChange(height=1, proposed_view=1, reporter=2), reg, 2)
        first = replicas[3].step(0, vc_a)
        assert all(not isinstance(m, ViewChange) for _, m in first.sends)
        second = replicas[3].step(0, vc_b)
        own = per_recipient(second, ViewChange)
        assert len(own) == 3  # f+1 peers vouched; broadcast without a timeout
        assert [t for t, _ in own] == [0, 1, 2]
        # Own vote was the third: the 2f+1 adoption happens in the same step.
        assert replicas[3].view == 1

    def test_viewchange_from_outsider_ignored(self):
        replicas, reg = make_committee(4)
        reg.register(77)
        vc = signed(ViewChange(height=1, proposed_view=1, reporter=77), reg, 77)
        assert not replicas[0].step(0, vc).sends
        assert replicas[0].viewchange_tallies == {}


class TestAnnounceAdoption:
    def finished_round(self):
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        pump.fire(1, "batch", now=BATCH_US)
        pump.deliver_all(now=BATCH_US)
        return replicas, reg, replicas[0].ledger[1]

    def outsider(self, reg, m=4):
        rep = EbrcReplica(9, reg, block_tx_cap=3)
        rep.set_committee(range(m), [], table_reputation={i: 0.5 for i in range(m)})
        return rep

    def test_outsider_adopts_announced_block(self):
        replicas, reg, block = self.finished_round()
        outsider = self.outsider(reg)
        announce = signed(
            BlockAnnounce(
                height=1, block_digest=block.block_digest,
                batch_digests=block.batch_digests, sender=0,
            ),
            reg, 0,
        )
        outsider.step(0, announce)
        assert outsider.ledger[1].block_digest == block.block_digest
        assert outsider.height == 2

    def test_tampered_announce_rejected(self):
        replicas, reg, block = self.finished_round()
        outsider = self.outsider(reg)
        announce = signed(
            BlockAnnounce(
                height=1, block_digest=b"\x00" * 32,
                batch_digests=block.batch_digests, sender=0,
            ),
            reg, 0,
        )
        outsider.step(0, announce)
        assert 1 not in outsider.ledger

    def test_future_height_announce_ignored(self):
        replicas, reg, block = self.finished_round()
        outsider = self.outsider(reg)
        announce = signed(
            BlockAnnounce(
                height=5, block_digest=block.block_digest,
                batch_digests=block.batch_digests, sender=0,
            ),
            reg, 0,
        )
        outsider.step(0, announce)
        assert outsider.height == 1

    def test_adopt_block_never_overwrites(self):
        replicas, _, block = self.finished_round()
        committed = replicas[0].ledger[1]
        fake = committed.__class__(
            height=1, view=9, batch_digests=(), block_digest=b"\x11" * 32, cert=(),
        )
        replicas[0].adopt_block(fake)
        assert replicas[0].ledger[1] == committed


class TestRequestGates:
    @pytest.fixture
    def digest_calls(self, monkeypatch):
        """The payloads the replicas hash to check a Request's digest."""
        calls = []
        monkeypatch.setattr(
            consensus, "tx_digest", lambda payload: calls.append(payload) or tx_digest(payload)
        )
        return calls

    def test_wrong_digest_dropped(self):
        # One Request object reaches every replica, as a broadcast delivers
        # it; a failed digest check leaves no memo behind for the next one.
        replicas, reg = make_committee(4)
        bad = signed(
            Request(timestamp=1, payload=b"x", digest=tx_digest(b"y"), client_id=CLIENT),
            reg, CLIENT,
        )
        for rep in replicas.values():
            rep.step(0, bad)
            assert rep.request_buffer == {}

    def test_request_digest_checked_once_per_object(self, digest_calls):
        replicas, reg = make_committee(4)
        req = make_request(reg)
        for rep in replicas.values():
            rep.step(0, req)
            assert req.digest in rep.request_buffer
        assert digest_calls == [req.payload]

    def test_changed_copy_of_checked_request_rejected(self, digest_calls):
        replicas, reg = make_committee(4)
        req = make_request(reg)
        replicas[0].step(0, req)
        copy = dataclasses.replace(req, payload=b"tx-2")
        replicas[1].step(0, copy)
        # The copy carries no memo: its digest is checked in full.
        assert digest_calls == [req.payload, b"tx-2"]
        assert replicas[1].request_buffer == {}

    def test_bad_signature_dropped(self):
        replicas, reg = make_committee(4)
        req = make_request(reg)
        # Equal fields, built by hand: no memo, so no signature.
        forged = req.__class__(
            timestamp=req.timestamp, payload=req.payload,
            digest=req.digest, client_id=req.client_id,
        )
        replicas[0].step(0, forged)
        assert replicas[0].request_buffer == {}

    def test_duplicate_ignored(self):
        replicas, reg = make_committee(4)
        req = make_request(reg)
        replicas[0].step(0, req)
        before = dict(replicas[0].request_buffer)
        result = replicas[0].step(0, req)
        assert not result.sends and not result.timers
        assert replicas[0].request_buffer == before

    def test_non_member_buffers_request_without_sending(self):
        # Clients send requests to the committee only; a node outside it
        # keeps one it is handed, sends nothing and arms no timer.
        replicas, reg = make_committee(4)
        reg.register(9)
        outsider = EbrcReplica(9, reg, block_tx_cap=3)
        outsider.set_committee(range(4), [], table_reputation={i: 0.5 for i in range(4)})
        req = make_request(reg)
        result = outsider.step(0, req)
        assert not result.sends and not result.timers
        assert list(outsider.request_buffer) == [req.digest]
        assert not outsider.step(0, req).sends


class TestCommitGates:
    def test_commit_from_outsider_ignored(self):
        replicas, reg = make_committee(4)
        reg.register(77)
        commit = signed(Commit(height=1, view=0, digest=b"d" * 32, sender=77), reg, 77)
        replicas[0].step(0, commit)
        assert replicas[0].commit_tallies == {}

    def test_one_commit_counts_at_both_replicas(self):
        # Both protocols send and count the one Commit vote.
        ebrc, reg = make_committee(4)
        pbft, _ = make_group(4, reg)
        commit = signed(Commit(height=1, view=0, digest=b"d" * 32, sender=2), reg, 2)
        for replica in (ebrc[0], pbft[0]):
            replica.step(0, commit)
            assert replica.commit_tallies == {0: {b"d" * 32: {2: commit}}}

    def test_quorum_without_proposal_does_not_commit(self):
        # 2f+1 votes for a digest the node never saw proposed must not
        # commit a block it cannot reconstruct.
        replicas, reg = make_committee(4)
        ghost = b"g" * 32
        for sender in (1, 2, 3):
            commit = signed(Commit(height=1, view=0, digest=ghost, sender=sender), reg, sender)
            replicas[0].step(0, commit)
        assert 1 not in replicas[0].ledger

    def test_reply_event_is_inert(self):
        replicas, reg = make_committee(4)
        reply = signed(Reply(digest=b"d" * 32, sender=2), reg, 2)
        result = replicas[0].step(0, reply)
        assert not result.sends and not result.timers

    def test_vote_that_completes_nothing_returns_the_idle_result(self):
        replicas, reg = make_committee(4)
        commit = signed(Commit(height=1, view=0, digest=b"d" * 32, sender=2), reg, 2)
        result = replicas[0].step(0, commit)  # one vote of the three a quorum needs
        assert result is consensus.IDLE
        with pytest.raises(AttributeError):
            result.sends.append(((1,), commit))
        with pytest.raises(AttributeError):
            result.timers.append((0, TimerTick("round", 1, 0)))

    def test_every_commit_seeing_two_quorums_observes_the_conflict(self):
        # Three votes each for two digests: no quorum at f=2, two at f=1.
        replicas, reg = make_committee(7)
        node = replicas[0]
        for sender in range(1, 7):
            digest = b"a" * 32 if sender <= 3 else b"b" * 32
            node.step(0, signed(Commit(height=1, view=0, digest=digest, sender=sender), reg, sender))
        assert node.observations == []
        node.apply_membership(tuple(range(7)), ())
        node.f = 1  # below the committee's own f of 2, so both digests reach quorum
        for _ in range(2):
            repeat = signed(Commit(height=1, view=0, digest=b"a" * 32, sender=1), reg, 1)
            assert node.step(0, repeat) is consensus.IDLE
        assert [entry[:3] for entry in node.observations] == [("quorum_conflict", 0, 1)] * 2
        # A commit of another view checks the current view's tally too.
        later = signed(Commit(height=1, view=1, digest=b"a" * 32, sender=1), reg, 1)
        assert node.step(0, later) is consensus.IDLE
        assert [entry[:3] for entry in node.observations] == [("quorum_conflict", 0, 1)] * 3

    def test_the_2f_plus_1th_commit_commits(self):
        # f=2. Node 0 counts its own commit on the proposal; the 2f-th
        # commit asks nothing and the (2f+1)-th commits the block.
        replicas, reg = make_committee(7)
        node = replicas[0]
        proposal = make_prepare(reg, sender=1)  # node 1 leads (height 1, view 0)
        assert [m.sender for _, m in per_recipient(node.step(0, proposal), Commit)] == [0] * 6

        def commit(sender):
            vote = Commit(height=1, view=0, digest=proposal.digest, sender=sender)
            return node.step(0, signed(vote, reg, sender))

        for sender in (2, 3, 4):
            assert commit(sender) is consensus.IDLE
        result = commit(5)
        assert [type(m) for _, m in result.sends] == [Reply]
        assert [vote.sender for vote in node.ledger[1].cert] == [0, 2, 3, 4, 5]
        assert node.height == 2

    def test_commit_from_member_that_left_ignored(self):
        replicas, reg = make_committee(5)
        for replica in replicas.values():
            replica.apply_membership((0, 1, 2, 3), ())
        commit = signed(Commit(height=1, view=0, digest=b"d" * 32, sender=4), reg, 4)
        replicas[0].step(0, commit)
        assert replicas[0].commit_tallies == {}
        assert not replicas[4].is_member

    def test_replicas_share_one_member_set(self):
        ebrc, _ = make_committee(7)
        pbft, _ = make_group(7)
        for replicas in (ebrc, pbft):
            assert replicas[0].members == frozenset(range(7))
            assert all(r.members is replicas[0].members for r in replicas.values())


class TestCert:
    """A committed block carries its quorum: 2f+1 signed commits for its
    height, view and batch, one per committee member, in sender order."""

    # The first lossy, partitioned case of test_divergence.py: its honest
    # ledgers diverge, yet each block is still committed on a real quorum.
    LOSSY = (presets.comparison_pair(4, byzantine=False, seed=41, rounds=4)[0], (34.0, 42.0, (3,)))

    @pytest.mark.parametrize(
        "config, window",
        [(presets.comparison_pair(7, byzantine=False)[p], None) for p in (0, 1)] + [LOSSY],
        ids=["ebrc-n7", "pbft-n7", "ebrc-n4-lossy"],
    )
    def test_every_committed_block_carries_a_verified_quorum(self, config, window):
        if window is not None:
            network = dataclasses.replace(config.network, drop_rate=0.05, partitions=(window,))
            config = dataclasses.replace(config, network=network)
        runner = ScenarioRunner(config)
        result = runner.run()
        assert result.safety_violation == (window is not None)
        held, certified = set(), set()
        for node in runner.honest_ids:
            replica = runner.replicas[node]
            for height, block in replica.ledger.items():
                if height:
                    held.add((height, block.block_digest))
                if not block.cert:
                    continue  # genesis, or a block adopted from an announce
                certified.add((height, block.block_digest))
                senders = [vote.sender for vote in block.cert]
                assert senders == sorted(set(senders))
                assert len(senders) >= 2 * replica.f + 1
                assert set(senders) <= set(replica.committee)
                batch = crypto.digest(*block.batch_digests, domain=b"batch")
                for vote in block.cert:
                    assert type(vote) is Commit
                    assert (vote.height, vote.view, vote.digest) == (height, block.view, batch)
                    assert signature_ok(vote, runner.registry, vote.sender)
        # Every block an honest replica holds, one of them committed on a cert.
        assert held and certified == held


class TestMultiRoundRotation:
    def test_master_index_advances_by_two_per_commit(self):
        # Committing bumps height and view together, so the pattern over an
        # epoch starting at (h=1, v=0) visits indices 1, 3, 1, 3, ...
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        masters = []
        for round_index in range(4):
            request = make_request(reg, payload=b"tx-%d" % round_index, ts=10 + round_index)
            masters.append(replicas[0].leader_id())
            for node, rep in replicas.items():
                pump.absorb(node, rep.step(0, request))
            assert pump.fire(masters[-1], "batch", now=BATCH_US)
            pump.deliver_all(now=BATCH_US)
        assert masters == [1, 3, 1, 3]
        for rep in replicas.values():
            assert rep.height == 5
            assert sorted(rep.ledger) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("name", presets.names())
def test_every_ledger_chains_block_digests(name):
    # A block's digest commits to its parent's: at the end of each shipped
    # preset's run, every block on every replica, announced ones included,
    # recomputes from the block below it.
    runner = ScenarioRunner(presets.load(name))
    runner.run()
    for node, replica in runner.replicas.items():
        ledger = replica.ledger
        assert sorted(ledger) == list(range(len(ledger)))
        for height in range(1, len(ledger)):
            block = ledger[height]
            expected = block_digest_of(ledger[height - 1].block_digest, height, block.batch_digests)
            assert block.block_digest == expected, (node, height)


class TestPbftRound:
    def run_round(self):
        replicas, reg = make_group(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        assert replicas[0].is_leader  # view 0: primary = group[0]
        assert pump.fire(0, "batch", now=BATCH_US)
        pump.deliver_all(now=BATCH_US)
        return replicas, pump, request

    def test_all_replicas_execute_identical_block(self):
        replicas, _, request = self.run_round()
        digests = {rep.ledger[1].block_digest for rep in replicas.values()}
        assert len(digests) == 1
        assert replicas[0].ledger[1].batch_digests == (request.digest,)

    def test_primary_is_stable_across_commits(self):
        replicas, _, _ = self.run_round()
        for rep in replicas.values():
            assert rep.height == 2
            assert rep.view == 0
            assert rep.leader_id() == 0

    def test_per_round_message_counts(self):
        # (n-1) pre-prepares + (n-1)^2 prepare echoes + n(n-1) commits
        # + n replies = 3 + 9 + 12 + 4 = 28, strictly above the two-phase 19.
        _, pump, _ = self.run_round()
        assert pump.counts["PrePrepare"] == 3
        assert pump.counts["PbftPrepare"] == 9
        assert pump.counts["Commit"] == 12
        assert pump.counts["Reply"] == 4

    def test_backup_prepared_before_the_pre_prepare_commits_on_it(self):
        # Two echoes overtake the pre-prepare: they count at once and ask
        # nothing, and the pre-prepare's step sends the prepare and the commit.
        replicas, reg = make_group(4)
        batch = (make_request(reg),)
        pre_prepare = signed(
            PrePrepare(height=1, view=0, batch=batch,
                       digest=batch_digest_of(batch), sender=0),
            reg, 0,
        )
        backup = replicas[3]
        for sender in (1, 2):
            echo = PbftPrepare(height=1, view=0, digest=pre_prepare.digest, sender=sender)
            assert backup.step(0, signed(echo, reg, sender)) is consensus.IDLE
        result = backup.step(0, pre_prepare)
        assert [type(message) for _, message in result.sends] == [PbftPrepare, Commit]

    def test_the_2fth_prepare_sends_the_commit(self):
        # f=2. A backup counts its own prepare on the pre-prepare; the
        # (2f-1)-th prepare asks nothing and the 2f-th sends its commit.
        replicas, reg = make_group(7)
        backup = replicas[1]
        batch = (make_request(reg),)
        pre_prepare = signed(
            PrePrepare(height=1, view=0, batch=batch,
                       digest=batch_digest_of(batch), sender=0),
            reg, 0,
        )
        result = backup.step(0, pre_prepare)
        assert [type(message) for _, message in result.sends] == [PbftPrepare]

        def prepare(sender):
            echo = PbftPrepare(height=1, view=0, digest=pre_prepare.digest, sender=sender)
            return backup.step(0, signed(echo, reg, sender))

        for sender in (2, 3):
            assert prepare(sender) is consensus.IDLE
        result = prepare(4)
        assert [type(message) for _, message in result.sends] == [Commit]

    def test_three_phase_costs_more_than_two_phase(self):
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        pump.fire(1, "batch", now=BATCH_US)
        pump.deliver_all(now=BATCH_US)
        two_phase = sum(
            pump.counts[k] for k in ("Prepare", "Commit", "Reply")
        )
        _, pbft_pump, _ = self.run_round()
        three_phase = sum(
            pbft_pump.counts[k]
            for k in ("PrePrepare", "PbftPrepare", "Commit", "Reply")
        )
        assert two_phase == 19 and three_phase == 28


class TestPbftViewChange:
    def test_silent_primary_deposed_then_backup_proposes(self):
        replicas, reg = make_group(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        # Primary 0 stays silent; backups time out.
        for node in (1, 2, 3):
            assert pump.fire(node, "round", now=TIMEOUT_US)
        pump.deliver_all(now=TIMEOUT_US)
        for rep in replicas.values():
            assert rep.view == 1
            assert view_changes(rep) == 1
        assert replicas[1].is_leader
        assert pump.fire(1, "batch", now=TIMEOUT_US + BATCH_US)
        pump.deliver_all(now=TIMEOUT_US + BATCH_US)
        digests = {rep.ledger[1].block_digest for rep in replicas.values()}
        assert len(digests) == 1

    def test_backup_does_not_commit_without_prepared_certificate(self):
        # A backup holding only the pre-prepare (no 2f echoes) must not
        # send a commit vote.
        replicas, reg = make_group(4)
        request = make_request(reg)
        replicas[1].step(0, request)
        replicas[0].step(0, request)
        propose = replicas[0].step(BATCH_US, TimerTick("batch", 1, 0))
        preprepare = next(m for _, m in propose.sends if m.TAG == "preprepare")
        result = replicas[1].step(0, preprepare)
        tags = [m.TAG for targets, m in result.sends for _ in targets]
        assert tags.count("prepare") == 3
        assert tags.count("commit") == 0
        assert [t for t, m in result.sends if m.TAG == "prepare"] == [(0, 2, 3)]



class TestPbftSharedPaths:
    """PBFT side of the paths both replicas share: announce adoption, the
    f+1 straggler join, view-change membership and stale timer ticks."""

    def finished_round(self):
        replicas, reg = make_group(4)
        pump = Pump(replicas)
        request = make_request(reg)
        for node, rep in replicas.items():
            pump.absorb(node, rep.step(0, request))
        pump.fire(0, "batch", now=BATCH_US)
        pump.deliver_all(now=BATCH_US)
        return replicas, reg, request, replicas[0].ledger[1]

    def laggard(self, reg, request):
        # A backup that buffered the request but saw none of the round.
        rep = make_group(4, registry=reg)[0][3]
        rep.step(0, request)
        return rep

    def announce(self, reg, block, **overrides):
        fields = dict(
            height=1, block_digest=block.block_digest,
            batch_digests=block.batch_digests, sender=0,
        )
        fields.update(overrides)
        return signed(BlockAnnounce(**fields), reg, 0)

    def test_laggard_adopts_announced_block(self):
        _, reg, request, block = self.finished_round()
        laggard = self.laggard(reg, request)
        result = laggard.step(0, self.announce(reg, block))
        assert not result.sends and not result.timers
        assert laggard.ledger[1].block_digest == block.block_digest
        assert laggard.height == 2
        assert laggard.view == 0  # the PBFT view does not advance per block
        assert laggard.request_buffer == {}

    def test_tampered_announce_rejected(self):
        _, reg, request, block = self.finished_round()
        laggard = self.laggard(reg, request)
        laggard.step(0, self.announce(reg, block, block_digest=b"\x00" * 32))
        assert 1 not in laggard.ledger
        assert laggard.height == 1
        assert request.digest in laggard.request_buffer

    def test_future_height_announce_ignored(self):
        _, reg, request, block = self.finished_round()
        laggard = self.laggard(reg, request)
        laggard.step(0, self.announce(reg, block, height=5))
        assert laggard.height == 1
        assert sorted(laggard.ledger) == [0]

    def test_straggler_joins_at_f_plus_1_votes(self):
        replicas, reg = make_group(4)
        request = make_request(reg)
        replicas[3].step(0, request)
        vc_a = signed(ViewChange(height=1, proposed_view=1, reporter=1), reg, 1)
        vc_b = signed(ViewChange(height=1, proposed_view=1, reporter=2), reg, 2)
        first = replicas[3].step(0, vc_a)
        assert not first.sends
        second = replicas[3].step(0, vc_b)
        own = per_recipient(second, ViewChange)
        assert len(own) == 3 and all(m.reporter == 3 for _, m in own)
        assert [t for t, _ in own] == [0, 1, 2]
        # Own vote was the third: the 2f+1 adoption happens in the same step.
        assert replicas[3].view == 1
        assert view_changes(replicas[3]) == 1
        assert replicas[3].leader_id() == 1
        assert ("incompletion", 0, 1) in replicas[3].observations

    def test_viewchange_from_outsider_ignored(self):
        replicas, reg = make_group(4)
        reg.register(77)
        vc = signed(ViewChange(height=1, proposed_view=1, reporter=77), reg, 77)
        result = replicas[0].step(0, vc)
        assert not result.sends and not result.timers
        assert replicas[0].viewchange_tallies == {}

    def test_stale_timer_tick_is_inert(self):
        replicas, _, _, _ = self.finished_round()
        for node, rep in replicas.items():
            for tick in (TimerTick("round", 1, 0), TimerTick("batch", 1, 0),
                         TimerTick("round", 2, 3)):
                result = rep.step(TIMEOUT_US, tick)
                assert not result.sends and not result.timers
            assert (rep.height, rep.view, view_changes(rep)) == (2, 0, 0)
            assert rep.viewchange_tallies == {}



# A vote stream step: a vote (kind, its height and view less the replica's,
# which of the two batches' digests, sender, whether another node signed it),
# the current leader's proposal (which batch, its view less the replica's) or
# a membership change (the committee's first 7 or 6 nodes, f). ``_step``
# decodes one drawn integer, one choice per digit, so that each choice is
# about uniform (Hypothesis favours the first entries of a short list).
_STEP_KINDS = ("vote",) * 6 + ("proposal", "membership")
_OFFSETS = (0, 0, 0, 0, 1, -1)
_MEMBERSHIPS = ((7, 2), (7, 1), (6, 1))


def _step(n: int) -> tuple:
    def take(choices):
        nonlocal n
        n, index = divmod(n, len(choices))
        return choices[index]

    kind = take(_STEP_KINDS)
    if kind == "proposal":
        return kind, take((0, 1)), take(_OFFSETS)
    if kind == "membership":
        return (kind, *take(_MEMBERSHIPS))
    return (
        take(("Commit", "PbftPrepare")), take(_OFFSETS), take(_OFFSETS),
        take((0, 1)), take(range(9)), take((False,) * 9 + (True,)),
    )


_STREAM = st.lists(st.integers(0, 2**32 - 1).map(_step), min_size=30, max_size=100)
_PREPARED_AT_F1 = [
    ("proposal", 0, 0), ("PbftPrepare", 0, 0, 0, 2, False), ("PbftPrepare", 0, 0, 0, 3, False),
    ("membership", 7, 1),
]


class TestVotePathAgainstOracle:
    """Random vote streams into one replica of seven (nodes 7 and 8 are
    registered outsiders), each step compared with ``oracles.NaiveVotePath``,
    which recounts the whole tally: whether the step returned the idle
    result, its sends, the blocks committed and the observations, a repeated
    quorum conflict included. A membership change mid-stream can lower f from
    2 to 1, and raise it back."""

    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAM)
    # Three commits each for two digests, f lowered to 1: a commit of
    # another view must still observe view 0's two quorums.
    @example(stream=[("Commit", 0, 0, 0, s, False) for s in (1, 2, 3)]
             + [("Commit", 0, 0, 1, s, False) for s in (4, 5, 6)]
             + [("membership", 7, 1), ("Commit", 0, 1, 0, 1, False)])
    # A quorum with no proposal: a vote for the other digest still finds it.
    @example(stream=[("Commit", 0, 0, 0, s, False) for s in range(1, 6)]
             + [("Commit", 0, 0, 1, 6, False)])
    # Three commits and the proposal at f=2, then f=1: the fourth commits.
    @example(stream=[("Commit", 0, 0, 0, 1, False), ("Commit", 0, 0, 0, 2, False),
                     ("proposal", 0, 0), ("membership", 7, 1), ("Commit", 0, 0, 0, 3, False)])
    def test_ebrc_replica(self, stream):
        replicas, reg = make_committee(7, registry=make_registry(9))
        self.replay(replicas[0], reg, stream, pbft=False)

    @settings(max_examples=150, deadline=None)
    @given(stream=_STREAM)
    # Three prepares with the pre-prepare at f=2, then f=1: the node is
    # prepared, and the next prepare it counts sends its commit, whatever
    # its view or digest.
    @example(stream=_PREPARED_AT_F1 + [("PbftPrepare", 0, 1, 0, 4, False)])
    @example(stream=_PREPARED_AT_F1 + [("PbftPrepare", 0, 0, 1, 4, False)])
    # Two prepares at f=2, then f=1: the third, short of the old 2f, sends it.
    @example(stream=_PREPARED_AT_F1[:2] + [("membership", 7, 1), ("PbftPrepare", 0, 0, 0, 3, False)])
    def test_pbft_backup(self, stream):
        replicas, reg = make_group(7, registry=make_registry(9))
        self.replay(replicas[1], reg, stream, pbft=True)

    def replay(self, replica, reg, stream, pbft):
        batches = [(make_request(reg, payload),) for payload in (b"batch-a", b"batch-b")]
        oracle = NaiveVotePath(pbft)
        for step in stream:
            if step[0] == "membership":
                _, keep, f = step
                if not pbft:  # a PBFT group does not change; only its f moves
                    replica.apply_membership(tuple(range(keep)), ())
                replica.f = f
                continue
            event = self.event(replica, reg, step, batches, pbft)
            expected = oracle.expect(replica, event)
            result = replica.step(0, event)
            assert (result is consensus.IDLE) == expected.idle
            assert [send_key(targets, m) for targets, m in result.sends] == expected.sends
            assert not result.timers
            blocks = {h: b for h, b in replica.ledger.items() if h}
            ledger = {
                h: (b.batch_digests, tuple(v.sender for v in b.cert)) for h, b in blocks.items()
            }
            assert ledger == oracle.ledger
            assert {h: b.cert for h, b in blocks.items()} == oracle.certs
            assert [entry[:3] for entry in replica.observations] == oracle.observed

    @staticmethod
    def event(replica, reg, step, batches, pbft):
        if step[0] == "proposal":
            _, which, view_offset = step
            batch = batches[which]
            leader = replica.leader_id()
            proposal = replica.PROPOSAL(
                height=replica.height, view=max(0, replica.view + view_offset),
                batch=batch, digest=batch_digest_of(batch), sender=leader,
            )
            return signed(proposal, reg, leader)
        kind, height_offset, view_offset, which, sender, forged = step
        vote_type = PbftPrepare if pbft and kind == "PbftPrepare" else Commit
        vote = vote_type(
            height=max(0, replica.height + height_offset),
            view=max(0, replica.view + view_offset),
            digest=batch_digest_of(batches[which]), sender=sender,
        )
        return signed(vote, reg, (sender + 1) % 9 if forged else sender)
