"""Committee election: eligibility gating, sortition, partition, verification."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrc import election, harness, presets, runner
from ebrc.crypto import GENESIS_SEED, KeyRegistry, SimulatedVrf, VRF_RANGE, derive_seed
from ebrc.election import (
    MAX_ELECTION_RETRIES,
    MIN_COMMITTEE,
    CommitteeAssignment,
    ElectionFailed,
    elect_committee,
    eligible_nodes,
    form_committee,
)
from ebrc.reputation import new_record, update_behavior_table
from oracles import naive_form_committee, rank_by_growth, rank_by_reputation


def make_registry(n: int) -> KeyRegistry:
    reg = KeyRegistry(seed=b"election-tests")
    for node in range(n):
        reg.register(node)
    return reg


def equal_table(n: int):
    return {i: new_record(i, 100.0) for i in range(n)}


def table_with_scores(scores, growths=None):
    """Table whose records carry the given current reputation/growth values."""
    table = {}
    for i, score in enumerate(scores):
        rec = new_record(i, 100.0)
        rec.reputation_history.append(score)
        rec.growth_history.append(growths[i] if growths else 0.5)
        table[i] = rec
    return table


def form_over(table, seed, reg, **options):
    """``form_committee`` over ``eligible_nodes``' ranking of ``table``."""
    eligible = eligible_nodes(table, options["eligibility_percentile"])
    return form_committee(eligible, seed, reg, **options)


class TestEligibility:
    def test_top_ranked_node_eligible(self):
        scores = [1.0 - i * 0.01 for i in range(20)]
        table = table_with_scores(scores)
        assert 0 in eligible_nodes(table, 0.85)

    def test_bottom_band_ineligible(self):
        # Rank 18 of 20 by reputation sits below the 85th-percentile cut.
        scores = [1.0 - i * 0.01 for i in range(20)]
        table = table_with_scores(scores)
        assert 17 not in eligible_nodes(table, 0.85)
        assert 18 not in eligible_nodes(table, 0.85)
        assert 19 not in eligible_nodes(table, 0.85)

    def test_requires_both_rankings(self):
        # Strong reputation with weak growth is still ineligible: the gate
        # is a conjunction over both orderings.
        scores = [1.0 - i * 0.01 for i in range(20)]
        growths = [0.5] * 20
        growths[4] = -0.4  # rank 5 by reputation, last by growth
        table = table_with_scores(scores, growths)
        assert 4 not in eligible_nodes(table, 0.85)

    def test_unknown_node_ineligible(self):
        assert 99 not in eligible_nodes(equal_table(4), 0.85)

    def test_tie_break_by_node_id(self):
        reg = make_registry(4)
        table = equal_table(4)
        assert rank_by_reputation(table) == [0, 1, 2, 3]
        assert rank_by_growth(table) == [0, 1, 2, 3]
        # The election orders its consensus nodes the same way.
        config = dict(omega=1.0, eligibility_percentile=1.0, consensus_percentile=1.0)
        mixed = table_with_scores([0.3, 0.9, 0.9, 0.7])
        assignment, _ = form_over(mixed, GENESIS_SEED, reg, **config)
        assert list(assignment.consensus_nodes) == rank_by_reputation(mixed) == [1, 2, 3, 0]

    def test_cutoff_float_artifact(self):
        # floor(20 * 0.85) must be 17, not 16, despite 0.85 * 20 = 16.999...
        scores = [1.0 - i * 0.01 for i in range(20)]
        table = table_with_scores(scores)
        assert len(eligible_nodes(table, 0.85)) == 17

    def test_boundary_ties_admitted(self):
        # The cut is by score value: nodes tied with the last admitted rank
        # stay eligible instead of being dropped by id.
        table = equal_table(20)
        assert len(eligible_nodes(table, 0.85)) == 20
        scores = [0.9] * 18 + [0.2, 0.2]
        tied = table_with_scores(scores)
        assert eligible_nodes(tied, 0.85) == list(range(18))

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.1, 0.4, 0.4, 0.9]), st.sampled_from([-0.2, 0.5, 0.5])),
            min_size=1,
            max_size=24,
        ),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_ranked_value_cut(self, scores, percentile):
        # The gate must admit exactly what a cut at the keep-th entry of each
        # full ranking admits, listed in reputation order.
        table = table_with_scores([r for r, _ in scores], [g for _, g in scores])
        keep = math.floor(len(table) * percentile + 1e-9)

        def value_cut(ranked, key):
            if keep <= 0:
                return set()
            boundary = key(table[ranked[min(keep, len(ranked)) - 1]])
            return {node for node in ranked if key(table[node]) >= boundary}

        expected = value_cut(rank_by_reputation(table), lambda r: r.reputation) & value_cut(
            rank_by_growth(table), lambda r: r.growth_history[-1]
        )
        assert eligible_nodes(table, percentile) == [
            node for node in rank_by_reputation(table) if node in expected
        ]


class TestFormCommittee:
    def config(self, **kwargs):
        base = dict(
            omega=1.0,
            eligibility_percentile=1.0,
            consensus_percentile=0.5,
        )
        base.update(kwargs)
        return base

    def test_proof_made_only_on_selection(self, monkeypatch):
        # Counts the proofs nodes make: draws outside verify that return some
        # node's proof. verify's recomputation is not one.
        reg = make_registry(20)
        table = equal_table(20)
        proofs = {SimulatedVrf.proof(reg.secret_key(node), GENESIS_SEED) for node in range(20)}
        made, checking = [], []
        draw, verify = SimulatedVrf.draw, SimulatedVrf.verify

        def counting(state, framed_seed):
            out = draw(state, framed_seed)
            if not checking:
                made.append(out)
            return out

        def checked(self, *args):
            checking.append(True)
            try:
                return verify(self, *args)
            finally:
                checking.pop()

        monkeypatch.setattr(SimulatedVrf, "draw", staticmethod(counting))
        monkeypatch.setattr(SimulatedVrf, "verify", checked)
        assignment, reports = form_over(
            table, GENESIS_SEED, reg, **self.config(omega=0.4), corrupt_proofs={0, 1, 2}
        )
        verified = assignment.consensus_nodes + assignment.candidates + assignment.spares
        assert reports, "a corrupt_proofs node must self-select for the check to count it"
        assert len(made) == 20 + len(verified) + len(reports)
        assert sum(out in proofs for out in made) == len(verified) + len(reports) < 20

    @pytest.mark.parametrize("omega", [0.4, 0.7, 1.0])
    def test_verify_called_once_per_selectee(self, monkeypatch, omega):
        # Every selectee's proof is checked in full, once; a node whose value
        # leaves it out is never checked. A memo or a skipped check fails here.
        checked_keys = []
        verify = SimulatedVrf.verify

        def recording(self, public_key, seed, proof):
            checked_keys.append(public_key)
            return verify(self, public_key, seed, proof)

        monkeypatch.setattr(SimulatedVrf, "verify", recording)
        reg = make_registry(20)
        table = equal_table(20)
        threshold = omega * VRF_RANGE
        selectees = [
            node for node in range(20)
            if SimulatedVrf.value(reg.secret_key(node), GENESIS_SEED) <= threshold
        ]
        assignment, reports = form_over(
            table, GENESIS_SEED, reg, **self.config(omega=omega), corrupt_proofs={1, 2}
        )
        assert checked_keys == [reg.public_key(node) for node in selectees]
        verified = assignment.consensus_nodes + assignment.candidates + assignment.spares
        assert sorted(verified + tuple(node for node, _ in reports)) == selectees

    def test_partition_at_full_selection(self):
        # 20 equal nodes, everyone selected: 10 consensus, 7 candidates,
        # 3 spares under the 50%/85% split with id tie-breaking.
        reg = make_registry(20)
        table = equal_table(20)
        config_all = dict(
            omega=1.0,
            eligibility_percentile=1.0,
            consensus_percentile=0.5,
        )
        assignment, reports = form_over(table, GENESIS_SEED, reg, **config_all)
        assert reports == []
        assert len(assignment.consensus_nodes) == 10
        assert assignment.consensus_nodes == tuple(range(10))
        # 50%..100% band of the verified set becomes candidates at elig 1.0.
        assert assignment.candidates == tuple(range(10, 20))
        assert assignment.spares == ()

    def test_partition_bands_with_eligibility_cut(self):
        # 20 equal nodes all tie through the 85% gate and all self-select:
        # floor(20*0.5)=10 consensus, floor(20*0.85)=17 -> 7 candidates,
        # 3 spares.
        reg = make_registry(20)
        table = equal_table(20)
        config = self.config(eligibility_percentile=0.85, consensus_percentile=0.5)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **config)
        assert len(assignment.consensus_nodes) == 10
        assert len(assignment.candidates) == 7
        assert len(assignment.spares) == 3

    def test_partition_bands_with_distinct_scores(self):
        # Distinct scores: the 85% gate keeps 17, all self-select, and the
        # bands follow floor(17*0.5)=8 and floor(17*0.85)=14.
        reg = make_registry(20)
        scores = [1.0 - i * 0.01 for i in range(20)]
        table = table_with_scores(scores)
        config = self.config(eligibility_percentile=0.85, consensus_percentile=0.5)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **config)
        assert len(assignment.consensus_nodes) == 8
        assert len(assignment.candidates) == 6
        assert len(assignment.spares) == 3

    def test_partition_disjoint_and_complete(self):
        reg = make_registry(20)
        table = equal_table(20)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        groups = (
            set(assignment.consensus_nodes),
            set(assignment.candidates),
            set(assignment.spares),
        )
        assert sum(len(g) for g in groups) == len(set().union(*groups)) == 20

    def test_consensus_nodes_reputation_sorted(self):
        reg = make_registry(8)
        scores = [0.5, 0.9, 0.4, 0.8, 0.7, 0.6, 0.95, 0.55]
        table = table_with_scores(scores)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        ranked = sorted(range(8), key=lambda i: (-scores[i], i))
        assert list(assignment.consensus_nodes) == ranked[: len(assignment.consensus_nodes)]

    def test_deterministic(self):
        reg = make_registry(12)
        table = equal_table(12)
        a, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        b, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        assert a == b

    def test_seed_changes_selection(self):
        reg = make_registry(30)
        table = equal_table(30)
        config = self.config(omega=0.4)
        results = set()
        seed = GENESIS_SEED
        for _ in range(6):
            try:
                assignment, _ = form_over(table, seed, reg, **config)
                results.add(assignment.consensus_nodes)
            except ElectionFailed:
                pass
            seed = derive_seed(seed)
        assert len(results) >= 2

    def test_corrupt_proof_excluded_and_reported(self):
        reg = make_registry(8)
        table = equal_table(8)
        assignment, reports = form_over(
            table, GENESIS_SEED, reg, **self.config(), corrupt_proofs={3}
        )
        assert (3, "invalid-sortition-proof") in reports
        assert 3 not in assignment.consensus_nodes + assignment.candidates
        assert 3 not in assignment.spares

    def test_too_few_selectees_raises(self):
        reg = make_registry(4)
        table = equal_table(4)
        with pytest.raises(ElectionFailed):
            form_over(
                table, GENESIS_SEED, reg, **self.config(), corrupt_proofs={0, 1, 2, 3}
            )

    def test_too_few_eligible_raises(self):
        reg = make_registry(3)
        table = equal_table(3)
        with pytest.raises(ElectionFailed):
            form_over(table, GENESIS_SEED, reg, **self.config())

    def test_elect_committee_retries_with_derived_seeds(self):
        reg = make_registry(8)
        table = equal_table(8)
        config = self.config(omega=0.3)
        seed, failures = GENESIS_SEED, 0
        while True:
            try:
                expected, _ = form_over(table, seed, reg, **config)
                break
            except ElectionFailed:
                failures += 1
                seed = derive_seed(seed)
        assert failures >= 1
        assignment, reports, final_seed = elect_committee(
            eligible_nodes(table, config["eligibility_percentile"]), GENESIS_SEED, reg, **config
        )
        assert (assignment, reports, final_seed) == (expected, [], seed)

    def test_elect_committee_gives_up_after_max_retries(self, monkeypatch):
        reg = make_registry(3)
        table = equal_table(3)
        seeds = []

        def counting(eligible, seed, registry, **options):
            seeds.append(seed)
            return form_committee(eligible, seed, registry, **options)

        monkeypatch.setattr(election, "form_committee", counting)
        with pytest.raises(ElectionFailed):
            elect_committee(eligible_nodes(table, 1.0), GENESIS_SEED, reg, **self.config())
        assert len(seeds) == MAX_ELECTION_RETRIES + 1
        assert all(b == derive_seed(a) for a, b in zip(seeds, seeds[1:]))

    def test_fault_budget_formula(self):
        reg = make_registry(20)
        table = equal_table(20)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        m = len(assignment.consensus_nodes)
        assert assignment.f == (m - 1) // 3

    def test_assignment_validation_catches_overlap(self):
        bad = CommitteeAssignment(
            consensus_nodes=(0, 1, 2, 3),
            candidates=(3,),
            spares=(),
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_config_validation(self):
        reg = make_registry(8)
        table = equal_table(8)
        with pytest.raises(ValueError, match="omega"):
            form_over(
                table, GENESIS_SEED, reg,
                omega=0.0, eligibility_percentile=0.85, consensus_percentile=0.5,
            )
        with pytest.raises(ValueError):
            form_over(
                table, GENESIS_SEED, reg,
                omega=0.4, eligibility_percentile=0.5, consensus_percentile=0.9,
            )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_property_random_scores(self, raw_seed):
        import random

        rng = random.Random(raw_seed)
        n = rng.randint(8, 24)
        reg = make_registry(n)
        scores = [round(rng.uniform(0.05, 1.0), 6) for _ in range(n)]
        table = table_with_scores(scores)
        config = dict(
            omega=1.0,
            eligibility_percentile=1.0,
            consensus_percentile=0.5,
        )
        assignment, _ = form_over(table, GENESIS_SEED, reg, **config)
        members = assignment.consensus_nodes
        # Reputation-descending order with id ties.
        keys = [(-table[node].reputation, node) for node in members]
        assert keys == sorted(keys)
        assert len(members) >= MIN_COMMITTEE
        assert assignment.f == (len(members) - 1) // 3

    def test_bottom_band_never_elected(self):
        # A node in the bottom 15% by reputation stays out across epochs.
        reg = make_registry(20)
        scores = [0.9] * 17 + [0.2, 0.2, 0.2]
        table = table_with_scores(scores)
        config = dict(
            omega=1.0,
            eligibility_percentile=0.85,
            consensus_percentile=0.5,
        )
        seed = GENESIS_SEED
        for _ in range(10):
            assignment, _ = form_over(table, seed, reg, **config)
            for low_node in (17, 18, 19):
                assert low_node not in assignment.consensus_nodes + assignment.candidates
                assert low_node not in assignment.spares
            seed = derive_seed(seed)

    def test_poisoned_reputation_demotes(self):
        # Nodes carrying confirmed-report history rank below clean peers and
        # fall out of the consensus slice.
        reg = make_registry(8)
        table = equal_table(8)
        from ebrc.reputation import ConfirmedReport, Participation

        events = [Participation(i) for i in range(8) for _ in range(10)]
        events += [ConfirmedReport(6), ConfirmedReport(6), ConfirmedReport(7)]
        table = update_behavior_table(table, events)
        assignment, _ = form_over(table, GENESIS_SEED, reg, **self.config())
        assert 6 not in assignment.consensus_nodes
        assert 7 not in assignment.consensus_nodes


# Election seeds are 32 bytes; the kernel's framing must hold for any length.
ELECTION_SEEDS = st.sampled_from([0, 1, 32, 300]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


class TestAgainstNaiveKernel:
    """``form_committee`` over ``eligible_nodes``' ranking against
    ``oracles.naive_form_committee``, which gates the table itself, draws
    every eligible node in id order and in full through
    ``SimulatedVrf.evaluate``, frames the seed afresh on each draw and sorts
    the selectees afterwards. The table's insertion order is drawn too, so
    neither the ranking nor the reports may lean on dict order."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.sampled_from([0.1, 0.5, 0.9, 1.0]), st.sampled_from([-0.2, 0.0, 0.5])),
            min_size=8,
            max_size=30,
        ),
        omega=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
        eligibility=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
        consensus=st.floats(0.05, 1.0),
        seed=ELECTION_SEEDS,
        data=st.data(),
    )
    def test_assignment_and_reports(self, values, omega, eligibility, consensus, seed, data):
        n = len(values)
        table = table_with_scores([r for r, _ in values], [g for _, g in values])
        table = {node: table[node] for node in data.draw(st.permutations(range(n)))}
        corrupt = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 3)))
        options = dict(
            omega=omega,
            eligibility_percentile=eligibility,
            consensus_percentile=min(consensus, eligibility),
            corrupt_proofs=corrupt,
        )
        reg = make_registry(n)
        expected = naive_form_committee(table, seed, reg, **options)
        if expected is None:
            with pytest.raises(ElectionFailed):
                form_over(table, seed, reg, **options)
            return
        assignment, reports = form_over(table, seed, reg, **options)
        got = (assignment.consensus_nodes, assignment.candidates, assignment.spares, assignment.f)
        assert (got, reports) == expected


class TestRankOnce:
    """Each caller ranks a table once and draws every attempt over that
    ranking: a study's one table once per study, a run's table once per
    epoch. Ranking is counted through the name each caller binds."""

    @staticmethod
    def count(monkeypatch, module):
        ranks, attempts = [], []

        def ranking(table, eligibility_percentile):
            ranks.append(eligibility_percentile)
            return eligible_nodes(table, eligibility_percentile)

        def attempt(eligible, seed, registry, **options):
            attempts.append(seed)
            return form_committee(eligible, seed, registry, **options)

        monkeypatch.setattr(module, "eligible_nodes", ranking)
        monkeypatch.setattr(election, "form_committee", attempt)
        return ranks, attempts

    def test_fairness_study_ranks_once(self, monkeypatch):
        ranks, attempts = self.count(monkeypatch, harness)
        harness.fairness_experiment(20, 50, poison_odd=True, seed=1)
        assert ranks == [0.85]
        assert len(attempts) > 50

    def test_run_ranks_once_per_epoch(self, monkeypatch):
        # A low omega makes elections retry, so attempts outnumber epochs.
        config = dataclasses.replace(presets.load("churn_exit_m11"), omega=0.3)
        ranks, attempts = self.count(monkeypatch, runner)
        result = runner.ScenarioRunner(config).run()
        assert config.epochs == 2
        assert len(ranks) == len(result.elections) == config.epochs
        assert len(attempts) > config.epochs
