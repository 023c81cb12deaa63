"""Reputation scoring: factor derivation, aggregation, growth, table updates."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrc.reputation import (
    INITIAL_GROWTH_RATE,
    INITIAL_REPUTATION,
    LATENCY_LEVELS,
    REPUTATION_FLOOR,
    SLASH_FRACTION,
    WEIGHTS,
    ActivitySample,
    BehaviorRecord,
    ConfirmedReport,
    DepositSlash,
    FactorVector,
    Incompletion,
    Participation,
    TransactionsProcessed,
    compute_factors,
    compute_growth_rate,
    compute_reputation,
    h_index,
    latency_level_for,
    new_record,
    update_behavior_table,
)

from oracles import brute_force_h_index, growth_rate, weighted_reputation

def record_with(**kwargs) -> BehaviorRecord:
    base = dict(node_id=1, deposit=100.0)
    base.update(kwargs)
    return BehaviorRecord(**base)


class TestHIndex:
    def test_empty_history(self):
        assert h_index([]) == 0

    def test_frozen_examples(self):
        # Expected values derived with the brute-force oracle.
        assert h_index([5, 4, 3]) == 3
        assert h_index([10, 8, 5, 4, 3]) == 4
        assert h_index([3, 0, 6, 1, 5]) == 3

    def test_matches_brute_force_on_short_lists(self):
        for length in range(0, 5):
            for history in itertools.product(range(6), repeat=length):
                assert h_index(history) == brute_force_h_index(history)

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
    def test_matches_brute_force_property(self, history):
        assert h_index(history) == brute_force_h_index(history)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=20))
    def test_permutation_invariant(self, history):
        assert h_index(history) == h_index(sorted(history))

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=20))
    def test_bounded_by_length(self, history):
        assert 0 <= h_index(history) <= len(history)


class TestComputeFactors:
    def test_frozen_worked_example(self):
        rec = record_with(
            deposit=10.0,
            consensus_participations=20,
            incomplete_count=2,
            reported_evil_count=1,
            latency_level=10,
            tx_size_history=[5, 4, 3],
        )
        f = compute_factors(rec, total_deposit=100.0, epoch_max_hindex=3)
        assert f.margin_ratio == pytest.approx(0.1)
        assert f.incomplete_rate == pytest.approx(0.1)
        assert f.evil_rate == pytest.approx(0.05)
        assert f.activity_rate == pytest.approx(1.0)
        assert f.magnitude_factor == pytest.approx(1.0)

    def test_fresh_node_zero_rates(self):
        f = compute_factors(record_with(), total_deposit=100.0, epoch_max_hindex=0)
        assert f.incomplete_rate == 0.0
        assert f.evil_rate == 0.0

    @pytest.mark.parametrize("level", LATENCY_LEVELS)
    def test_activity_is_latency_level_over_ten(self, level):
        f = compute_factors(record_with(latency_level=level), total_deposit=100.0,
                            epoch_max_hindex=0)
        assert f.activity_rate == level / 10
        assert 0.0 < f.activity_rate <= 1.0

    def test_activity_partial(self):
        rec = record_with(latency_level=2)
        f = compute_factors(rec, total_deposit=100.0, epoch_max_hindex=0)
        assert f.activity_rate == pytest.approx(0.2)

    def test_zero_total_deposit_degenerate(self):
        f = compute_factors(record_with(deposit=0.0), total_deposit=0.0, epoch_max_hindex=0)
        assert f.margin_ratio == 0.0

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_all_factors_in_unit_interval(self, participations, incomplete, evil):
        incomplete = min(incomplete, participations)
        evil = min(evil, participations)
        rec = record_with(
            consensus_participations=participations,
            incomplete_count=incomplete,
            reported_evil_count=evil,
            tx_size_history=[1, 2, 3],
        )
        f = compute_factors(rec, total_deposit=400.0, epoch_max_hindex=2)
        for value in (f.margin_ratio, f.incomplete_rate, f.evil_rate, f.activity_rate, f.magnitude_factor):
            assert 0.0 <= value <= 1.0


class TestComputeReputation:
    def test_perfect_node_exactly_one(self):
        f = FactorVector(1.0, 0.0, 0.0, 1.0, 1.0)
        assert compute_reputation(f) == 1.0

    def test_frozen_worked_example(self):
        # 0.865 derived with the independent weighted-sum oracle.
        f = FactorVector(0.1, 0.1, 0.05, 1.0, 1.0)
        assert compute_reputation(f) == pytest.approx(0.865, abs=1e-12)
        assert compute_reputation(f) == pytest.approx(
            weighted_reputation(0.1, 0.1, 0.05, 1.0, 1.0), abs=1e-15
        )

    def test_worst_node_clamped_to_floor(self):
        f = FactorVector(0.0, 1.0, 1.0, 0.0, 0.0)
        assert compute_reputation(f) == REPUTATION_FLOOR

    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @given(unit, unit, unit, unit, unit)
    def test_range_invariant(self, a, b, c, d, e):
        r = compute_reputation(FactorVector(a, b, c, d, e))
        assert REPUTATION_FLOOR <= r <= 1.0

    @given(unit, unit)
    def test_monotone_decreasing_in_fault_rates(self, low, high):
        low, high = min(low, high), max(low, high)
        base = dict(margin_ratio=0.5, activity_rate=0.5, magnitude_factor=0.5)
        r_low = compute_reputation(FactorVector(incomplete_rate=low, evil_rate=0.0, **base))
        r_high = compute_reputation(FactorVector(incomplete_rate=high, evil_rate=0.0, **base))
        assert r_high <= r_low + 1e-12
        r_low = compute_reputation(FactorVector(incomplete_rate=0.0, evil_rate=low, **base))
        r_high = compute_reputation(FactorVector(incomplete_rate=0.0, evil_rate=high, **base))
        assert r_high <= r_low + 1e-12

    @given(unit, unit)
    def test_monotone_increasing_in_merit_factors(self, low, high):
        low, high = min(low, high), max(low, high)
        for position in (0, 3, 4):
            values_low = [0.5, 0.2, 0.2, 0.5, 0.5]
            values_high = list(values_low)
            values_low[position] = low
            values_high[position] = high
            r_low = compute_reputation(FactorVector(*values_low))
            r_high = compute_reputation(FactorVector(*values_high))
            assert r_low <= r_high + 1e-12


class TestGrowthRate:
    def test_no_change_is_zero(self):
        for r in (0.1, 0.5, 1.0):
            assert compute_growth_rate(r, r, 5) == 0.0

    def test_frozen_growth_example(self):
        # sqrt(0.72 / 0.5) - 1 = 0.2, from the independent oracle.
        assert compute_growth_rate(0.72, 0.5, 3) == pytest.approx(0.2, abs=1e-12)
        assert compute_growth_rate(0.72, 0.5, 3) == pytest.approx(growth_rate(0.72, 0.5, 3))

    def test_negative_branch(self):
        got = compute_growth_rate(0.5, 0.72, 3)
        assert got == pytest.approx(-0.16666666666666663, abs=1e-12)
        assert got < 0

    def test_insufficient_history_returns_initial(self):
        assert compute_growth_rate(0.9, 0.1, 1) == INITIAL_GROWTH_RATE
        assert compute_growth_rate(0.9, 0.1, 0) == INITIAL_GROWTH_RATE

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_growth_rate(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            compute_growth_rate(0.5, 1.5, 3)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=2, max_value=50),
    )
    def test_identity_property(self, r, t):
        assert compute_growth_rate(r, r, t) == 0.0


class TestLevels:
    def test_latency_buckets(self):
        assert latency_level_for(10) == 10
        assert latency_level_for(40) == 8
        assert latency_level_for(60) == 6
        assert latency_level_for(90) == 4
        assert latency_level_for(200) == 2

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            latency_level_for(-1)


class TestSlash:
    @staticmethod
    def slashed(deposit, slashes=1):
        table = {1: record_with(deposit=deposit)}
        return update_behavior_table(table, [DepositSlash(1)] * slashes)[1].deposit

    def test_slash_fraction(self):
        assert self.slashed(100.0) == pytest.approx(100.0 * (1.0 - SLASH_FRACTION))
        assert self.slashed(100.0) == pytest.approx(90.0)

    def test_slash_compounds(self):
        assert self.slashed(100.0, slashes=2) == pytest.approx(81.0)

    def test_slash_zero_deposit(self):
        assert self.slashed(0.0) == 0.0

    def test_slash_does_not_mutate(self):
        rec = record_with(deposit=100.0)
        update_behavior_table({1: rec}, [DepositSlash(1)])
        assert rec.deposit == 100.0

    def test_slash_moves_deposit_shares(self):
        # Equal deposits give equal margin ratios; a slash lowers the
        # slashed node's share and raises every other node's.
        table = {i: new_record(i, 100.0) for i in range(4)}
        updated = update_behavior_table(table, [DepositSlash(0)])
        total = sum(record.deposit for record in updated.values())
        shares = [compute_factors(updated[i], total, 0).margin_ratio for i in range(4)]
        assert shares[0] == pytest.approx(90.0 / 390.0)
        assert shares[1:] == [pytest.approx(100.0 / 390.0)] * 3
        assert sum(shares) == pytest.approx(1.0)
        assert updated[0].reputation < updated[1].reputation


class TestBehaviorTable:
    def table(self):
        return {i: new_record(i, 100.0) for i in range(4)}

    def test_new_node_initialization(self):
        rec = new_record(7, 50.0)
        assert rec.reputation == INITIAL_REPUTATION == 0.5
        assert rec.growth_history[-1] == INITIAL_GROWTH_RATE == 0.5

    def test_empty_events_extend_histories(self):
        table = self.table()
        updated = update_behavior_table(table, [])
        for node_id, rec in updated.items():
            assert len(rec.reputation_history) == len(table[node_id].reputation_history) + 1
            assert rec.consensus_participations == 0

    def test_input_table_never_mutated(self):
        table = self.table()
        update_behavior_table(
            table, [Participation(0)] * 5 + [ConfirmedReport(1), DepositSlash(0)]
        )
        assert table[0].consensus_participations == 0
        assert table[1].reported_evil_count == 0
        assert table[0].deposit == 100.0
        assert len(table[0].reputation_history) == 1

    def test_confirmed_report_lowers_reputation(self):
        table = self.table()
        participations = [Participation(i) for i in range(4) for _ in range(10)]
        baseline = update_behavior_table(table, participations)
        reported = update_behavior_table(table, participations + [ConfirmedReport(3)])
        assert reported[3].reputation < baseline[3].reputation
        assert reported[0].reputation == pytest.approx(baseline[0].reputation)

    def test_deposit_slash_event(self):
        updated = update_behavior_table(self.table(), [DepositSlash(3)])
        assert updated[3].deposit == pytest.approx(90.0)

    def test_incompletion_counts_participation(self):
        updated = update_behavior_table(self.table(), [Incompletion(2)])
        assert updated[2].incomplete_count == 1
        assert updated[2].consensus_participations == 1

    def test_transactions_feed_magnitude(self):
        events = [TransactionsProcessed(0, c) for c in (5, 4, 3)]
        updated = update_behavior_table(self.table(), events)
        assert updated[0].tx_size_history == [5, 4, 3]
        assert updated[0].reputation > updated[1].reputation

    def test_latency_sample_sets_activity(self):
        updated = update_behavior_table(self.table(), [ActivitySample(2, mean_latency_ms=60)])
        assert updated[2].latency_level == 6
        # Four equal deposits, no rounds, no transactions: margin 0.25,
        # magnitude 0, and activity 6/10 for the sampled node.
        assert updated[2].reputation == weighted_reputation(0.25, 0.0, 0.0, 0.6, 0.0)
        assert updated[3].reputation - updated[2].reputation == pytest.approx(0.2 * 0.4)

    def test_unknown_node_event_rejected_not_raised(self):
        updated = update_behavior_table(self.table(), [Participation(99)])
        assert 99 not in updated

    def test_deterministic(self):
        events = [Participation(0)] * 3 + [ConfirmedReport(2), DepositSlash(1)]
        a = update_behavior_table(self.table(), events)
        b = update_behavior_table(self.table(), events)
        assert all(
            a[i].reputation == b[i].reputation
            and a[i].growth_history[-1] == b[i].growth_history[-1]
            for i in a
        )

    def test_record_invariant_validation(self):
        with pytest.raises(ValueError):
            record_with(deposit=-1.0)
        with pytest.raises(ValueError):
            record_with(latency_level=3)
        with pytest.raises(ValueError):
            record_with(consensus_participations=1, incomplete_count=2)

    def test_weights_sum_check(self):
        assert math.fsum(WEIGHTS) == 1

    def test_weights_non_negative(self):
        assert len(WEIGHTS) == 5
        assert all(w >= 0 for w in WEIGHTS)
