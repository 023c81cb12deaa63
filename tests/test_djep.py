"""Membership transitions: exit decisions, promotion, and the wire flows."""

import dataclasses

import pytest

from ebrc.consensus import EbrcReplica
from ebrc.djep import (
    MembershipState,
    RemovalPlan,
    committee_fault_budget,
    committee_with_join,
    committee_without,
    exit_preserves_floor,
    plan_removal,
    promotion_candidate,
)
from ebrc.messages import (
    ChangeNotice,
    ExitCommit,
    ExitRequest,
    JoinCommit,
    JoinRequest,
    Report,
    signed,
)

from driver import Pump, make_committee, make_registry, per_recipient
from oracles import exit_messages, join_messages


class TestFaultBudget:
    def test_budget_formula(self):
        assert [committee_fault_budget(s) for s in (1, 4, 5, 7, 10, 13)] == [0, 1, 1, 2, 3, 4]

    def test_empty_committee_rejected(self):
        with pytest.raises(ValueError):
            committee_fault_budget(0)

    def test_floor_check(self):
        # f is the budget held before the exit: 5 members tolerating 1 fault
        # can lose one (4 = 3f+1 remains); 4 members cannot.
        assert exit_preserves_floor(5)
        assert not exit_preserves_floor(4)
        assert exit_preserves_floor(8)
        assert not exit_preserves_floor(7)


class TestRemovalPlan:
    """One rule for a member's own exit and for a convicted member's removal."""

    reputation = {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6, 4: 0.5, 7: 0.6, 8: 0.9}

    @pytest.mark.parametrize(
        "committee, candidates, leaver, expected",
        [
            # Exits.
            pytest.param((0, 1, 2, 3, 4), (7, 8), 4, (True, None, False), id="exit-above-floor-direct"),
            pytest.param((0, 1, 2, 3), (7, 8), 3, (True, 8, False), id="exit-at-floor-promotes-best"),
            pytest.param((0, 1, 2, 3), (), 3, (False, None, True), id="exit-at-floor-no-candidate-stalls"),
            pytest.param((0, 1, 2, 3), (7,), 9, (False, None, False), id="exit-of-non-member-ignored"),
            # Forced removals of a convicted member.
            pytest.param((0, 1, 2, 3, 4), (), 2, (True, None, False), id="expel-above-floor"),
            pytest.param((0, 1, 2, 3), (7,), 2, (True, 7, False), id="expel-at-floor-promotes"),
            # Keeping a convicted member beats dropping below the fault floor.
            pytest.param((0, 1, 2, 3), (), 2, (False, None, True), id="expel-held-without-candidates"),
            pytest.param((0, 1, 2, 3), (7,), 9, (False, None, False), id="outsider-accusation-no-plan"),
        ],
    )
    def test_plan(self, committee, candidates, leaver, expected):
        remove, promote, stalled = expected
        plan = plan_removal(
            committee=committee, candidates=candidates,
            reputation=self.reputation, leaver=leaver,
        )
        assert plan == RemovalPlan(remove=remove, promote=promote, stalled=stalled)


class TestPromotion:
    def test_highest_reputation_wins(self):
        assert promotion_candidate((7, 8), {7: 0.6, 8: 0.9}) == 8

    def test_tie_breaks_to_lower_id(self):
        assert promotion_candidate((8, 7), {7: 0.6, 8: 0.6}) == 7

    def test_missing_reputation_counts_as_zero(self):
        assert promotion_candidate((7, 8), {8: 0.1}) == 8

    def test_no_candidates(self):
        assert promotion_candidate((), {}) is None

    def test_join_inserts_at_reputation_rank(self):
        committee = (0, 1, 2)
        reputation = {0: 0.9, 1: 0.7, 2: 0.5, 9: 0.8}
        assert committee_with_join(committee, reputation, 9) == (0, 9, 1, 2)

    def test_join_tie_goes_after_equal_lower_id(self):
        reputation = {0: 0.9, 1: 0.7, 9: 0.7}
        assert committee_with_join((0, 1), reputation, 9) == (0, 1, 9)

    def test_committee_without(self):
        assert committee_without((0, 1, 2, 3), 2) == (0, 1, 3)
        assert committee_without((0, 1), 9) == (0, 1)


class TestMessageBudget:
    def test_exit_alone(self):
        for m in (4, 11, 25, 26):
            assert exit_messages(m) == m

    def test_join_flow(self):
        for m in (4, 11, 25):
            assert join_messages(m) == 2 * m + 1

    def test_combined_flow(self):
        for m in (4, 25):
            assert exit_messages(m) + join_messages(m) == 3 * m + 1


def exit_commit(leaver, height, candidate=None):
    return ExitCommit(request=ExitRequest(node_id=leaver, effective_height=height),
                      candidate=candidate, master_id=1)


class TestMembershipState:
    def test_due_lists_sorted_and_thresholded(self):
        state = MembershipState()
        state.pending_exits = {n: exit_commit(n, h) for n, h in ((5, 10), (2, 8), (9, 20))}
        assert state.due_exits(10) == [2, 5]

    def test_invited_are_the_candidates_exits_name(self):
        state = MembershipState()
        state.pending_exits = {4: exit_commit(4, 10, 7), 5: exit_commit(5, 10)}
        assert state.invited() == {7}

    def test_join_due_once_its_height_is_reached(self):
        state = MembershipState()
        assert not state.join_due(10)
        state.join_height = 10
        assert not state.join_due(9) and state.join_due(10)

    def test_clear_applied_drops_all_tracking(self):
        state = MembershipState()
        state.pending_exits[4] = exit_commit(4, 10, 7)
        state.clear_applied([4, 7])
        assert state.pending_exits == {} and state.invited() == set()


class TestExitFlow:
    """Wire-level exit against live replicas, m=5 (floor survives)."""

    def start(self):
        replicas, reg = make_committee(5)
        # f=(5-1)//3=1, master index (1+0) mod 4 = 1.
        assert replicas[1].is_leader
        return replicas, reg, Pump(replicas)

    def test_direct_exit_message_budget(self):
        replicas, reg, pump = self.start()
        exit_req = signed(ExitRequest(node_id=4, effective_height=3), reg, 4)
        pump.counts["ExitRequest"] += 1
        pump.absorb(1, replicas[1].step(0, exit_req))
        pump.deliver_all()
        # 1 request + (m-1) commits, no consensus rounds spent.
        assert pump.counts["ExitRequest"] == 1
        assert pump.counts["ExitCommit"] == 4
        assert sum(pump.counts.values()) == exit_messages(5)
        for rep in replicas.values():
            commit = rep.membership.pending_exits[4]
            assert (commit.request.effective_height, commit.candidate) == (3, None)

    def test_exit_request_ignored_by_non_master(self):
        replicas, reg, pump = self.start()
        exit_req = signed(ExitRequest(node_id=4, effective_height=3), reg, 4)
        assert not replicas[2].step(0, exit_req).sends

    def test_forged_exit_request_rejected(self):
        replicas, reg, pump = self.start()
        forged = signed(ExitRequest(node_id=4, effective_height=3), reg, 2)
        assert not replicas[1].step(0, forged).sends
        assert replicas[1].membership.pending_exits == {}

    def test_outsider_exit_request_rejected(self):
        replicas, reg, pump = self.start()
        reg.register(9)
        outsider = signed(ExitRequest(node_id=9, effective_height=3), reg, 9)
        assert not replicas[1].step(0, outsider).sends

    def test_exit_commit_needs_master_signature(self):
        replicas, reg, pump = self.start()
        fake = signed(exit_commit(4, 3), reg, 2)
        replicas[0].step(0, fake)
        assert replicas[0].membership.pending_exits == {}

    def test_exit_commit_needs_the_leavers_signature(self):
        replicas, reg, pump = self.start()
        genuine = signed(ExitRequest(node_id=0, effective_height=3), reg, 0)
        # Unsigned, signed by the master itself, or the leaver's request with
        # a changed height: none carries the leaver's memo, so each takes the
        # full check and fails it.
        for request in (
            ExitRequest(node_id=0, effective_height=3),
            signed(ExitRequest(node_id=0, effective_height=3), reg, 2),
            dataclasses.replace(genuine, effective_height=4),
        ):
            fake = signed(ExitCommit(request=request, candidate=None, master_id=2), reg, 2)
            replicas[3].step(0, fake)
            assert replicas[3].membership.pending_exits == {}

    def test_exit_commit_needs_a_member_as_master(self):
        replicas, reg, pump = self.start()
        reg.register(9)
        request = signed(ExitRequest(node_id=4, effective_height=3), reg, 4)

        def commit(master):
            return signed(
                ExitCommit(request=request, candidate=None, master_id=master),
                reg,
                master,
            )

        replicas[3].step(0, commit(9))
        assert replicas[3].membership.pending_exits == {}
        # Member 2's commit is held, though 2 is not the current master.
        replicas[3].step(0, commit(2))
        assert replicas[3].membership.pending_exits == {4: commit(2)}


class TestExitWithPromotion:
    """m=4 sits at the floor: the exit must pull in the best candidate."""

    def start(self):
        reputation = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 7: 0.6, 8: 0.9}
        replicas, reg = make_committee(
            4, candidates=(7, 8), reputation=reputation
        )
        for cand in (7, 8):
            reg.register(cand)
            rep = EbrcReplica(cand, reg, block_tx_cap=3)
            rep.set_committee(range(4), (7, 8), table_reputation=reputation)
            replicas[cand] = rep
        assert replicas[1].is_leader
        return replicas, reg, Pump(replicas)

    def run_flow(self):
        replicas, reg, pump = self.start()
        exit_req = signed(ExitRequest(node_id=3, effective_height=3), reg, 3)
        pump.counts["ExitRequest"] += 1
        pump.absorb(1, replicas[1].step(0, exit_req))
        pump.deliver_all()
        return replicas, pump

    def test_combined_flow_message_budget(self):
        replicas, pump = self.run_flow()
        assert pump.counts["ChangeNotice"] == 1
        assert pump.counts["JoinRequest"] == 4
        assert pump.counts["JoinCommit"] == 4
        assert pump.counts["ExitCommit"] == 3
        assert sum(pump.counts.values()) == exit_messages(4) + join_messages(4) == 13

    def test_best_candidate_invited(self):
        replicas, pump = self.run_flow()
        assert replicas[8].membership.join_height == 3
        assert replicas[7].membership == MembershipState()

    def test_exit_commit_names_the_candidate_beside_the_change_notice(self):
        replicas, reg, pump = self.start()
        exit_req = signed(ExitRequest(node_id=3, effective_height=3), reg, 3)
        result = replicas[1].step(0, exit_req)
        (peers, commit), (invitee, notice) = result.sends
        assert peers == (0, 2, 3) and isinstance(commit, ExitCommit)
        assert commit.request is exit_req and commit.candidate == 8
        assert invitee == (8,) and isinstance(notice, ChangeNotice) and notice.candidate_id == 8
        # Every member holds the exit and its invitee before the candidate
        # answers; the join state is the candidate's alone.
        pump.absorb(1, result)
        pump.deliver_all()
        for node in range(4):
            membership = replicas[node].membership
            assert membership.pending_exits[3] == commit and membership.invited() == {8}
            assert membership.join_confirms == set() and membership.join_height is None

    def test_candidate_collects_quorum_confirms(self):
        replicas, pump = self.run_flow()
        assert len(replicas[8].membership.join_confirms) >= 3

    def test_joined_candidate_drops_its_join_record(self):
        # A stale join height would bring the node back in after a later removal.
        replicas, pump = self.run_flow()
        replicas[8].apply_membership((8, 0, 1, 2), (7,), view_hint=0)
        assert replicas[8].is_member and replicas[8].membership == MembershipState()


class TestJoinConfirmations:
    def test_only_members_confirm_a_join(self):
        replicas, reg = make_committee(4, candidates=(7, 8))
        candidate = EbrcReplica(8, reg, block_tx_cap=3)
        candidate.set_committee(range(4), (7, 8), table_reputation={i: 0.5 for i in range(4)})
        for sender in (7, 9, 0):
            reg.register(sender)
            confirm = signed(JoinCommit(candidate_id=8, effective_height=3, sender=sender), reg, sender)
            candidate.step(0, confirm)
        assert candidate.membership.join_confirms == {0}
        assert candidate.membership.join_height is None


class TestJoinValidation:
    def start(self):
        reputation = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 8: 0.9}
        replicas, reg = make_committee(4, candidates=(8,), reputation=reputation)
        reg.register(8)
        return replicas, reg

    def test_inflated_reputation_reported(self):
        replicas, reg = self.start()
        lie = signed(
            JoinRequest(node_id=8, reputation=1.0, effective_height=3), reg, 8
        )
        result = replicas[0].step(0, lie)
        reports = per_recipient(result, Report)
        assert len(reports) == 3
        assert [t for t, _ in reports] == [1, 2, 3]
        assert all(r.accused == 8 and r.evidence_kind == "reputation-mismatch" for _, r in reports)
        assert not any(isinstance(m, JoinCommit) for _, m in result.sends)

    def test_non_candidate_join_reported(self):
        replicas, reg = self.start()
        reg.register(9)
        stranger = signed(
            JoinRequest(node_id=9, reputation=0.5, effective_height=3), reg, 9
        )
        result = replicas[0].step(0, stranger)
        reports = per_recipient(result, Report)
        assert len(reports) == 3
        assert [t for t, _ in reports] == [1, 2, 3]

    def test_honest_join_confirmed(self):
        replicas, reg = self.start()
        honest = signed(
            JoinRequest(node_id=8, reputation=0.9, effective_height=3), reg, 8
        )
        result = replicas[0].step(0, honest)
        confirms = [m for t, m in result.sends if isinstance(m, JoinCommit)]
        assert len(confirms) == 1 and confirms[0].candidate_id == 8
        assert replicas[0].membership == MembershipState()  # only the candidate records it

    def test_change_notice_for_someone_else_ignored(self):
        replicas, reg = self.start()
        notice = signed(
            ChangeNotice(candidate_id=8, effective_height=3, master_id=1), reg, 1
        )
        assert not replicas[2].step(0, notice).sends

    def test_forged_change_notice_ignored(self):
        reputation = {0: 0.5, 1: 0.5, 2: 0.5, 3: 0.5, 8: 0.9}
        replicas, reg = make_committee(4, candidates=(8,), reputation=reputation)
        reg.register(8)
        candidate = EbrcReplica(8, reg, block_tx_cap=3)
        candidate.set_committee(range(4), (8,), table_reputation=reputation)
        forged = signed(
            ChangeNotice(candidate_id=8, effective_height=3, master_id=1), reg, 2
        )
        assert not candidate.step(0, forged).sends


class TestStalledExit:
    def test_floor_break_without_candidates_observed(self):
        replicas, reg = make_committee(4, candidates=())
        exit_req = signed(ExitRequest(node_id=3, effective_height=3), reg, 3)
        result = replicas[1].step(0, exit_req)
        assert not result.sends
        assert ("membership_stalled", 3, 1) in replicas[1].observations
