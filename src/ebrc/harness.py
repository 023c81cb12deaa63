"""Metric computation, fairness studies, comparisons, and report text.

Everything here is a pure function of its inputs: reports carry only
simulated-time quantities (no wall clocks, no environment), so a scenario
re-run with the same seed serializes byte-identically.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .config import ScenarioConfig
from .crypto import KeyRegistry, SimulatedVrf, digest, frame, hasher, pack, sortition_threshold
from .djep import committee_fault_budget
from .election import MIN_COMMITTEE, ElectionFailed, elect_committee, eligible_nodes
from .reputation import ConfirmedReport, Participation
from .runner import RunResult, ScenarioRunner, initial_table
from .simnet import RECEIVER_ROW_FIELDS, TraceRecord, receiver_rows

SCHEMA_VERSION = 1

EMPTY_COMMITTEE_NOTE = (
    "frequency agrees with the analytic (1 - omega)**n; the 0.01% figure "
    "sometimes quoted for omega=0.4, n=10 is inconsistent with this model "
    "and is not reproduced"
)


# --- elementary metric ops ---

def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 pairwise summation, step for step, so a mean or a
    chi-square statistic rounds as numpy's does: plain below 8 items, eight
    running sums up to 128, halves above."""
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count <= 128:
        lanes = list(values[:8])
        end = count - count % 8
        for i in range(8, end, 8):
            for lane in range(8):
                lanes[lane] += values[i + lane]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for value in values[end:]:
            total += value
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: Sequence[float]) -> float:
    return _pairwise_sum(values) / len(values)


def _percentile_95(values: Sequence[float]) -> float:
    """numpy's default (linear) percentile at q=95, rounding included."""
    ordered = sorted(values)
    index = (len(ordered) - 1) * 0.95
    below = math.floor(index)
    above = min(below + 1, len(ordered) - 1)
    t = index - below
    low, high = ordered[below], ordered[above]
    step = high - low
    if t >= 0.5:
        return high - step * (1 - t)
    return low + step * t


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), by its power series below
    x = a + 1 and its continued fraction (modified Lentz) above; exactly 1.0
    at x = 0."""
    if x == 0:
        return 1.0
    eps = sys.float_info.epsilon
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        while abs(term) >= abs(total) * eps:
            denominator += 1.0
            term *= x / denominator
            total += term
        return 1.0 - total * prefactor
    tiny = sys.float_info.min / eps
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    fraction = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) < eps:
            return prefactor * fraction


def compute_tps(committed_tx_total: int, interval_seconds: float) -> Optional[float]:
    """Committed transactions per simulated second; None when the interval
    is empty (throughput is undefined, reported as absent)."""
    if interval_seconds < 0:
        raise ValueError("interval_seconds must be >= 0")
    if committed_tx_total < 0:
        raise ValueError("committed_tx_total must be >= 0")
    if interval_seconds == 0:
        return None
    return committed_tx_total / interval_seconds


@dataclass(slots=True)
class MessageCounts:
    total: int
    by_tag: Dict[str, int]
    by_round: Dict[int, int]
    not_dropped: int


def count_messages(trace: Iterable[TraceRecord]) -> MessageCounts:
    """Tally sent messages from a trace of sends, one message per target,
    grouped by tag and by round, and the messages the network did not drop."""
    total = not_dropped = 0
    by_tag: Dict[str, int] = {}
    by_round: Dict[int, int] = {}
    for record in trace:
        count = len(record.targets)
        total += count
        not_dropped += count - len(record.dropped)
        by_tag[record.tag] = by_tag.get(record.tag, 0) + count
        by_round[record.round_index] = by_round.get(record.round_index, 0) + count
    return MessageCounts(total=total, by_tag=by_tag, by_round=by_round, not_dropped=not_dropped)


@dataclass(slots=True)
class FairnessStats:
    chi_square: float
    p_value: float
    min_count: int
    max_count: int


def fairness_stats(election_counts: Mapping[int, int]) -> FairnessStats:
    """Pearson's chi-square of observed election counts against a uniform
    expectation, and its p-value, the chi-square survival function at
    len(counts) - 1 degrees of freedom."""
    if len(election_counts) < 2:
        raise ValueError("fairness statistics need at least 2 nodes")
    counts = [election_counts[node] for node in sorted(election_counts)]
    if sum(counts) <= 0:
        raise ValueError("no elections recorded")
    expected = sum(counts) / len(counts)
    deviations = [c - expected for c in counts]
    # d * d, not d ** 2: pow can round one ulp away from numpy's square.
    terms = [d * d / expected for d in deviations]
    statistic = _pairwise_sum(terms)
    return FairnessStats(
        chi_square=statistic,
        p_value=_upper_gamma_q((len(counts) - 1) / 2, statistic / 2),
        min_count=min(counts),
        max_count=max(counts),
    )


# --- scenario reports ---

@dataclass(slots=True)
class MetricsReport:
    schema_version: int
    name: str
    protocol: str
    node_count: int
    committee_size: int
    fault_budget: int
    seed: int
    epochs: int
    rounds_per_epoch: int
    committed_rounds: int
    aborted_rounds: int
    latency_ms: List[float]
    mean_latency_ms: Optional[float]
    median_latency_ms: Optional[float]
    p95_latency_ms: Optional[float]
    tps: Optional[float]
    duration_ms: float
    total_messages: int
    messages_by_tag: Dict[str, int]
    messages_by_round: Dict[int, int]
    election_counts: Dict[int, int]
    view_changes_total: int
    max_view_changes_per_height: int
    membership_events: List[dict]
    membership_flows: List[dict]
    confirmed_reports: List[dict]
    stalled_memberships: List[dict]
    blocks: List[dict]
    safety_violation: bool
    safety_details: List[str]
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        raw = asdict(self)
        # JSON object keys must be strings; keep them sortable.
        raw["messages_by_round"] = {str(k): v for k, v in self.messages_by_round.items()}
        raw["election_counts"] = {str(k): v for k, v in self.election_counts.items()}
        return raw


def build_report(result: RunResult) -> MetricsReport:
    """The run's report. Each count is derived here from the one record that
    holds it: messages from the trace, round outcomes and latencies from the
    round records, seats from the elections."""
    config = result.config
    counts = count_messages(result.trace)
    latencies = [r.latency_ms for r in result.rounds if r.latency_ms is not None]
    committed_rounds = result.committed_rounds
    seats = {node: 0 for node in range(config.node_count)}
    for assignment in result.elections:
        for node in assignment.consensus_nodes + assignment.candidates:
            seats[node] += 1
    mean_latency = _mean(latencies) if latencies else None
    median_latency = statistics.median(latencies) if latencies else None
    p95_latency = _percentile_95(latencies) if latencies else None
    committee_size = config.node_count
    fault_budget = committee_fault_budget(config.node_count)
    if result.elections:
        committee_size = len(result.elections[0].consensus_nodes)
        fault_budget = result.elections[0].f
    return MetricsReport(
        schema_version=SCHEMA_VERSION,
        name=config.name,
        protocol=config.protocol,
        node_count=config.node_count,
        committee_size=committee_size,
        fault_budget=fault_budget,
        seed=config.seed,
        epochs=config.epochs,
        rounds_per_epoch=config.rounds_per_epoch,
        committed_rounds=committed_rounds,
        aborted_rounds=len(result.rounds) - committed_rounds,
        latency_ms=latencies,
        mean_latency_ms=mean_latency,
        median_latency_ms=median_latency,
        p95_latency_ms=p95_latency,
        tps=result.tps,
        duration_ms=result.duration_ms,
        total_messages=counts.total,
        messages_by_tag=dict(sorted(counts.by_tag.items())),
        messages_by_round=dict(sorted(counts.by_round.items())),
        election_counts=seats,
        view_changes_total=result.view_changes_total,
        max_view_changes_per_height=result.max_view_changes_per_height,
        membership_events=list(result.membership_log),
        membership_flows=list(result.membership_flows),
        confirmed_reports=list(result.confirmed_reports),
        stalled_memberships=list(result.stalled_memberships),
        blocks=list(result.blocks),
        safety_violation=result.safety_violation,
        safety_details=list(result.safety_details),
        notes=list(result.notes),
    )


class ConsistencyError(RuntimeError):
    """Raised when a report or a run's trace disagrees with the live counters
    or with a recomputation from the run's records."""


def verify_consistency(report: MetricsReport, result: RunResult) -> None:
    """Two-path check. The live counters must conserve messages and agree
    with the trace; the report's message total, throughput and latencies
    must match a recomputation from the trace, blocks and round records."""
    counters = result.counters
    if not counters.conserved(result.in_flight):
        raise ConsistencyError(
            f"sent {counters.sent} != delivered {counters.delivered} + dropped "
            f"{counters.dropped} + in flight {result.in_flight}"
        )
    counts = count_messages(result.trace)
    if counts.total != counters.sent:
        raise ConsistencyError(
            f"trace messages {counts.total} != sent counter {counters.sent}"
        )
    if counts.not_dropped != counters.delivered + result.in_flight:
        raise ConsistencyError(
            f"not-dropped messages {counts.not_dropped} != delivered counter "
            f"{counters.delivered} + in flight {result.in_flight}"
        )
    if report.total_messages != counts.total:
        raise ConsistencyError(
            f"report total {report.total_messages} != trace messages {counts.total}"
        )
    committed_tx = sum(b["tx_count"] for b in result.blocks)
    if result.duration_ms > 0:
        recomputed = compute_tps(committed_tx, result.duration_ms / 1_000.0)
        if report.tps is None or recomputed is None:
            raise ConsistencyError("tps missing despite a nonzero interval")
        if abs(recomputed - report.tps) > 1e-9 * max(1.0, abs(recomputed)):
            raise ConsistencyError(f"tps {report.tps} != recomputed {recomputed}")
    round_latencies = [
        r.latency_ms for r in result.rounds if r.latency_ms is not None
    ]
    if round_latencies != report.latency_ms:
        raise ConsistencyError("per-round latency list disagrees with samples")
    if report.latency_ms:
        recomputed_mean = sum(report.latency_ms) / len(report.latency_ms)
        if abs(recomputed_mean - (report.mean_latency_ms or 0.0)) > 1e-9:
            raise ConsistencyError("mean latency disagrees with recomputation")


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    report, _ = run_scenario_with_result(config)
    return report


def run_scenario_with_result(config: ScenarioConfig) -> Tuple[MetricsReport, RunResult]:
    result = ScenarioRunner(config).run()
    report = build_report(result)
    verify_consistency(report, result)
    return report, result


# --- comparison ---

PROTOCOL_TRAITS = {
    "ebrc": {
        "consensus_phases": 2,
        "election": "reputation-gated sortition",
        "dynamic_membership": True,
        "message_law": "(m-1) + m(m-1) + m",
    },
    "pbft": {
        "consensus_phases": 3,
        "election": "static rotation",
        "dynamic_membership": False,
        "message_law": "(n-1) + (n-1)^2 + n(n-1) + n",
    },
}


def compare_reports(reports: Sequence[MetricsReport]) -> dict:
    """Lay finished reports side by side with per-protocol traits."""
    rows = []
    for report in reports:
        phase_total = sum(report.messages_by_tag.values())
        if phase_total != report.total_messages:
            raise ConsistencyError("per-tag totals do not sum to the total count")
        rows.append(
            {
                "name": report.name,
                "protocol": report.protocol,
                "node_count": report.node_count,
                "committee_size": report.committee_size,
                "seed": report.seed,
                "committed_rounds": report.committed_rounds,
                "aborted_rounds": report.aborted_rounds,
                "mean_latency_ms": report.mean_latency_ms,
                "tps": report.tps,
                "total_messages": report.total_messages,
                "messages_by_tag": report.messages_by_tag,
                "view_changes_total": report.view_changes_total,
                "safety_violation": report.safety_violation,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": rows,
        "traits": {
            protocol: PROTOCOL_TRAITS[protocol]
            for protocol in sorted({r["protocol"] for r in rows})
        },
    }


# --- fairness experiments ---

def fairness_experiment(
    node_count: int,
    epochs: int,
    *,
    poison_odd: bool = False,
    seed: int = 0,
    omega: float = 0.4,
) -> dict:
    """Repeated elections over a fixed table, counting who gets seats.

    Two counters are reported: ``membership_counts`` (elected into the
    committee, consensus or candidate) and ``consensus_counts`` (seated as
    a consensus node). The membership counter is the one tested for
    uniformity; the consensus counter exposes the reputation rank cut,
    which is what demotes poisoned nodes. With ``poison_odd`` the odd ids
    enter the genesis table with a record of misbehavior, applied as
    behavior events by its bootstrap update (``runner.initial_table``).

    The unpoisoned experiment uses full eligibility so no spare band
    exists: among equal reputations the candidate/spare boundary can
    only tie-break on node id, which would put a deterministic id bias
    into the membership counter that says nothing about election fairness.
    The poisoned experiment uses the protocol default, 0.85. The report
    states which one ran.

    An epoch whose election fails seats nobody and is counted in
    ``failed_epochs``; if every epoch fails there is nothing to test, and a
    ValueError says so.
    """
    if node_count < MIN_COMMITTEE:
        # Fewer nodes can never seat a committee: every election would fail.
        raise ValueError(f"fairness experiment needs at least {MIN_COMMITTEE} nodes")
    if epochs < 1:
        raise ValueError("fairness experiment needs at least 1 epoch")
    eligibility_percentile = 0.85 if poison_odd else 1.0
    consensus_percentile = 0.5  # the protocol default: half the selectees

    registry = KeyRegistry(digest(pack(seed), domain=b"fairness-keys"))
    for node in range(node_count):
        registry.register(node)
    # Poisoned nodes enter with 10 participations, 3 of them confirmed
    # misbehavior: an evil rate of 3 in 10.
    poisoned = range(1, node_count, 2) if poison_odd else ()
    events = [Participation(node) for node in poisoned for _ in range(7)]
    events += [ConfirmedReport(node) for node in poisoned for _ in range(3)]
    eligible = eligible_nodes(initial_table(node_count, events), eligibility_percentile)

    membership_counts = {node: 0 for node in range(node_count)}
    consensus_counts = {node: 0 for node in range(node_count)}
    base = digest(pack(seed), domain=b"fairness-epochs")
    failed_epochs = 0
    for epoch in range(epochs):
        epoch_seed = digest(base, epoch.to_bytes(8, "big"), domain=b"fairness-epoch")
        try:
            assignment, _, _ = elect_committee(
                eligible,
                epoch_seed,
                registry,
                omega=omega,
                eligibility_percentile=eligibility_percentile,
                consensus_percentile=consensus_percentile,
            )
        except ElectionFailed:
            failed_epochs += 1
            continue
        for node in assignment.consensus_nodes:
            membership_counts[node] += 1
            consensus_counts[node] += 1
        for node in assignment.candidates:
            membership_counts[node] += 1
    if failed_epochs == epochs:
        raise ValueError(
            f"all {epochs} elections failed: no epoch seated a committee of "
            f"{MIN_COMMITTEE} among {node_count} nodes at omega={omega}"
        )

    uniformity = fairness_stats(membership_counts)
    report = {
        "schema_version": SCHEMA_VERSION,
        "node_count": node_count,
        "epochs": epochs,
        "failed_epochs": failed_epochs,
        "poison_odd": poison_odd,
        "omega": omega,
        "eligibility_percentile": eligibility_percentile,
        "seed": seed,
        "membership_counts": {str(k): v for k, v in sorted(membership_counts.items())},
        "consensus_counts": {str(k): v for k, v in sorted(consensus_counts.items())},
        "chi_square": uniformity.chi_square,
        "p_value": uniformity.p_value,
        "min_count": uniformity.min_count,
        "max_count": uniformity.max_count,
    }
    if poison_odd:
        odd = [consensus_counts[n] for n in range(1, node_count, 2)]
        even = [consensus_counts[n] for n in range(0, node_count, 2)]
        odd_mean = sum(odd) / len(odd)
        even_mean = sum(even) / len(even)
        report["poisoned_mean_consensus"] = odd_mean
        report["honest_mean_consensus"] = even_mean
        report["demotion_ratio"] = (odd_mean / even_mean) if even_mean > 0 else None
    return report


def empty_committee_probability(
    node_count: int = 10,
    omega: float = 0.4,
    trials: int = 100_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo frequency of a sortition selecting nobody, using the real
    draw machinery, against the analytic (1 - omega)**n. A trial reads each
    node's VRF value only: it counts selections and publishes no proof. Each
    draw copies the value state of a node's registered key pair, and each
    trial seed is framed once."""
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    registry = KeyRegistry(digest(pack(seed), domain=b"empty-committee-keys"))
    states = [registry.register(node).value_state for node in range(node_count)]
    draw = SimulatedVrf.draw
    threshold = sortition_threshold(omega)
    base = digest(pack(seed), domain=b"empty-committee-trials")
    # Trial seed: digest(base, trial.to_bytes(8, "big"), domain=b"trial"),
    # with base absorbed once.
    trial_prefix = hasher((base,), domain=b"trial")
    empty = 0
    for trial in range(trials):
        framed = frame(digest(trial.to_bytes(8, "big"), prefix=trial_prefix))
        for state in states:
            if draw(state, framed) <= threshold:
                break
        else:
            empty += 1
    frequency = empty / trials
    return {
        "schema_version": SCHEMA_VERSION,
        "node_count": node_count,
        "omega": omega,
        "trials": trials,
        "empty_count": empty,
        "frequency": frequency,
        "analytic": (1.0 - omega) ** node_count,
        "note": EMPTY_COMMITTEE_NOTE,
    }


# --- serialization ---

def report_json(payload: dict) -> str:
    """Canonical report text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


CSV_METRICS = (
    "mean_latency_ms",
    "median_latency_ms",
    "p95_latency_ms",
    "tps",
    "duration_ms",
    "total_messages",
    "committed_rounds",
    "aborted_rounds",
    "view_changes_total",
    "max_view_changes_per_height",
    "safety_violation",
)


def metrics_csv(reports: Sequence[MetricsReport]) -> str:
    """One row per (name, protocol, node_count, seed, metric): the scenario
    name tells apart runs that differ in any other setting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["name", "protocol", "node_count", "seed", "metric", "value"])
    for report in reports:
        key = [report.name, report.protocol, report.node_count, report.seed]
        for metric in CSV_METRICS:
            value = getattr(report, metric)
            if value is None:
                rendered = ""
            elif isinstance(value, bool):
                rendered = "1" if value else "0"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            writer.writerow([*key, metric, rendered])
        for tag in sorted(report.messages_by_tag):
            writer.writerow([*key, f"messages_{tag}", str(report.messages_by_tag[tag])])
    return buffer.getvalue()


def trace_csv(trace: Iterable[TraceRecord]) -> str:
    """One CSV row per receiver, each send's targets in send order;
    ``delivered`` is 1 unless the network dropped the message.

    No field needs quoting (integers, a tag, a hex prefix), so a row is its
    fields joined by commas, as ``csv.writer`` writes it. A send that lost
    nothing shares every field but the target, and is written one line per
    target around that; one with drops goes through ``receiver_rows``.
    """
    lines = [",".join(RECEIVER_ROW_FIELDS) + "\n"]
    for record in trace:
        time_us, sender, targets, tag, prefix, round_index, dropped = record
        if dropped:
            lines.extend(",".join(map(str, row)) + "\n" for row in receiver_rows((record,)))
        else:
            head, tail = f"{time_us},{sender},", f",{tag},{prefix},{round_index},1\n"
            lines.extend(f"{head}{target}{tail}" for target in targets)
    return "".join(lines)
