"""Replica state machines: master rotation, quorums, round flow, view change."""

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebrc import consensus
from ebrc.consensus import (
    EbrcReplica,
    QuorumConflict,
    TimerTick,
    batch_digest_of,
    canonical_batch,
    check_quorum,
    select_master,
    tx_digest,
)
from ebrc.messages import (
    BlockAnnounce,
    Commit,
    Prepare,
    Report,
    Reply,
    Request,
    ViewChange,
    signed,
)

from driver import (
    BATCH_US,
    CLIENT,
    TIMEOUT_US,
    Pump,
    make_committee,
    make_group,
    make_registry,
    make_request,
    per_recipient,
    view_changes,
)


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
        assert block.previous_hash == replicas[0].ledger[0].block_digest

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
                height=1, view=0, timestamp=0,
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
                height=1, view=0, timestamp=0,
                batch=(request,), digest=batch_digest_of((request,)), sender=2,
            ),
            reg, 2,
        )
        assert replicas[0].step(0, rogue).sends == []

    def test_stale_view_prepare_dropped(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        stale = signed(
            Prepare(
                height=1, view=5, timestamp=0,
                batch=(request,), digest=batch_digest_of((request,)), sender=1,
            ),
            reg, 1,
        )
        assert replicas[0].step(0, stale).sends == []

    def test_forged_prepare_signature_dropped(self):
        replicas, reg = make_committee(4)
        request = make_request(reg)
        replicas[0].step(0, request)
        forged = signed(
            Prepare(
                height=1, view=0, timestamp=0,
                batch=(request,), digest=batch_digest_of((request,)), sender=1,
            ),
            reg, 2,  # signed with the wrong key
        )
        assert replicas[0].step(0, forged).sends == []


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
        assert replicas[0].step(0, vc).sends == []
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
        rep.set_committee(range(m), [], 1, table_reputation={i: 0.5 for i in range(m)})
        return rep

    def test_outsider_adopts_announced_block(self):
        replicas, reg, block = self.finished_round()
        outsider = self.outsider(reg)
        announce = signed(
            BlockAnnounce(
                height=1, block_digest=block.block_digest,
                batch_digests=block.batch_digests, tx_count=block.tx_count, sender=0,
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
                batch_digests=block.batch_digests, tx_count=block.tx_count, sender=0,
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
                batch_digests=block.batch_digests, tx_count=block.tx_count, sender=0,
            ),
            reg, 0,
        )
        outsider.step(0, announce)
        assert outsider.height == 1

    def test_adopt_block_never_overwrites(self):
        replicas, _, block = self.finished_round()
        committed = replicas[0].ledger[1]
        fake = committed.__class__(
            height=1, view=9, previous_hash=committed.previous_hash,
            batch_digests=(), tx_count=0, block_digest=b"\x11" * 32, committers=(),
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
        forged = req.__class__(
            timestamp=req.timestamp, payload=req.payload,
            digest=req.digest, client_id=req.client_id, signature=b"junk",
        )
        replicas[0].step(0, forged)
        assert replicas[0].request_buffer == {}

    def test_duplicate_ignored(self):
        replicas, reg = make_committee(4)
        req = make_request(reg)
        replicas[0].step(0, req)
        before = dict(replicas[0].request_buffer)
        result = replicas[0].step(0, req)
        assert result.sends == [] and result.timers == []
        assert replicas[0].request_buffer == before

    def test_non_member_buffers_request_without_sending(self):
        # Clients send requests to the committee only; a node outside it
        # keeps one it is handed, sends nothing and arms no timer.
        replicas, reg = make_committee(4)
        reg.register(9)
        outsider = EbrcReplica(9, reg, block_tx_cap=3)
        outsider.set_committee(range(4), [], 1, table_reputation={i: 0.5 for i in range(4)})
        req = make_request(reg)
        result = outsider.step(0, req)
        assert result.sends == [] and result.timers == []
        assert list(outsider.request_buffer) == [req.digest]
        assert outsider.step(0, req).sends == []


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
            assert replica.commit_tallies == {0: {b"d" * 32: {2}}}

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
        reply = signed(
            Reply(client_id=CLIENT, timestamp=0, digest=b"d" * 32,
                  committee_size=4, valid=True, sender=2),
            reg, 2,
        )
        result = replicas[0].step(0, reply)
        assert result.sends == [] and result.timers == []

    def test_commit_from_member_that_left_ignored(self):
        replicas, reg = make_committee(5)
        for replica in replicas.values():
            replica.apply_membership((0, 1, 2, 3), (), 1)
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

    def test_ledger_chains_previous_hashes(self):
        replicas, reg = make_committee(4)
        pump = Pump(replicas)
        for round_index in range(3):
            request = make_request(reg, payload=b"c-%d" % round_index, ts=10 + round_index)
            master = replicas[0].leader_id()
            for node, rep in replicas.items():
                pump.absorb(node, rep.step(0, request))
            pump.fire(master, "batch", now=BATCH_US)
            pump.deliver_all(now=BATCH_US)
        ledger = replicas[2].ledger
        for height in (1, 2, 3):
            assert ledger[height].previous_hash == ledger[height - 1].block_digest


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
            batch_digests=block.batch_digests, tx_count=block.tx_count, sender=0,
        )
        fields.update(overrides)
        return signed(BlockAnnounce(**fields), reg, 0)

    def test_laggard_adopts_announced_block(self):
        _, reg, request, block = self.finished_round()
        laggard = self.laggard(reg, request)
        result = laggard.step(0, self.announce(reg, block))
        assert result.sends == [] and result.timers == []
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
        assert first.sends == []
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
        assert result.sends == [] and result.timers == []
        assert replicas[0].viewchange_tallies == {}

    def test_stale_timer_tick_is_inert(self):
        replicas, _, _, _ = self.finished_round()
        for node, rep in replicas.items():
            for tick in (TimerTick("round", 1, 0), TimerTick("batch", 1, 0),
                         TimerTick("round", 2, 3)):
                result = rep.step(TIMEOUT_US, tick)
                assert result.sends == [] and result.timers == []
            assert (rep.height, rep.view, view_changes(rep)) == (2, 0, 0)
            assert rep.viewchange_tallies == {}
