"""Byte-identity of every shipped preset: a speed change never moves an outcome.

Each shipped preset JSON is run at its own seed, serialized the way
``ebrc run --trace`` writes it (report JSON, then trace CSV), and the SHA-256
of that text is compared with the line ``tests/identity_sweep.py`` pinned for
it in ``tests/identity_sweep.txt``. A change that is meant to alter simulated
outcomes re-pins that file (and the two literals below that the sweep does
not run) and says why in CHANGES.md.

One shipped preset, ``churn_promote_m7``, sets ``replace_faulty``: a
conviction there promotes a candidate in the same pass as an exit that
invited another. Three variants pin more of the forced replacement path: a
silent member replaced by a candidate, an equivocating member replaced after
a view change, and a full-membership committee whose replacements stall for
want of a candidate.

The election-only studies are pinned too, serialized the way ``ebrc
fairness --out`` writes them: the fairness study with and without poisoned
odd ids, and the empty-committee Monte Carlo.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from ebrc import harness, presets
from ebrc.config import ByzantineConfig
from ebrc.runner import ScenarioRunner

# The pins live in ``identity_sweep.txt``, one "<label> <sha256>" line per
# run: a shipped preset at seed 1 is "<name> seed=1", its replace_faulty
# variant "<name> replace_faulty seed=1".
SWEEP_SHA256 = dict(
    line.rsplit(" ", 1)
    for line in (Path(__file__).parent / "identity_sweep.txt").read_text("utf-8").splitlines()
)


FORCED_REPLACEMENT_SHA256 = {
    # churn_join_m7 logs replace 6 + join 7 at height 2.
    "churn_join_m7_silent_6": "26b33f1b6240d303fb91cdff31d3fd4f99b78ce344db1f4ba5712f4794a4910a",
    # churn_join_m7 logs replace 3 + join 7 at height 3, after one view change.
    "churn_join_m7_equivocate_3": "9dc0e326d7e36b0f126b7a8be4302eaea778c44a702aaf320a3a305ac7428de6",
    # safety_silent_m7 has no candidates: every forced removal stalls.
    "safety_silent_m7": SWEEP_SHA256["safety_silent_m7 replace_faulty seed=1"],
}


def forced_replacement_config(name):
    if name == "safety_silent_m7":
        return dataclasses.replace(presets.load(name), replace_faulty=True)
    _, behavior, node = name.rsplit("_", 2)
    return dataclasses.replace(
        presets.load("churn_join_m7"),
        exits=(),
        replace_faulty=True,
        byzantine=ByzantineConfig(node_ids=(int(node),), behavior=behavior),
    )


def output_sha256(config):
    report, result = harness.run_scenario_with_result(config)
    text = harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_shipped_preset_is_pinned():
    assert presets.names() and all(f"{name} seed=1" in SWEEP_SHA256 for name in presets.names())


@pytest.mark.parametrize("name", presets.names())
def test_report_and_trace_bytes_unchanged(name):
    # Every shipped preset runs at seed 1.
    assert output_sha256(presets.load(name)) == SWEEP_SHA256[f"{name} seed=1"]


@pytest.mark.parametrize("name", sorted(FORCED_REPLACEMENT_SHA256))
def test_forced_replacement_bytes_unchanged(name):
    assert output_sha256(forced_replacement_config(name)) == FORCED_REPLACEMENT_SHA256[name]


STUDY_SHA256 = {
    "fairness_n20": SWEEP_SHA256["fairness n=20 plain seed=1"],
    "fairness_n20_poison_odd": SWEEP_SHA256["fairness n=20 poison_odd seed=1"],
    "empty_committee_n10": SWEEP_SHA256["empty_committee n=10 seed=1"],
}

STUDIES = {
    "fairness_n20": lambda: harness.fairness_experiment(20, 200, seed=1),
    "fairness_n20_poison_odd": lambda: harness.fairness_experiment(
        20, 200, seed=1, poison_odd=True
    ),
    "empty_committee_n10": lambda: harness.empty_committee_probability(10, 0.4, 2_000, seed=1),
}


@pytest.mark.parametrize("name", sorted(STUDY_SHA256))
def test_study_bytes_unchanged(name):
    text = harness.report_json(STUDIES[name]())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STUDY_SHA256[name]


# Receiver rows cannot tell one broadcast from n-1 single sends, so the bytes
# above do not pin how many sends a run makes. These do: trace records (one
# per send) and messages on the wire (one per recipient).
SEND_COUNTS = {
    "law_ebrc_n4": (16, 43),
    "law_pbft_n4": (15, 40),
    "churn_join_m7": (179, 750),
    # An equivocating proposal goes out as one single-target send per target.
    "safety_equivocate_m7": (182, 810),
}

# A proposal, a vote or a ViewChange goes out as one send to the whole
# committee but its sender.
BROADCAST_TAGS = ("preprepare", "prepare", "commit", "viewchange")


def run_with_committees(config):
    """Run ``config``; also return, per trace record, the committee its
    sender's replica held when it sent."""
    runner = ScenarioRunner(config)
    sim = runner.sim
    send = sim.send
    committees = []

    def send_and_note_committee(sender, targets, message):
        before = len(sim.trace)
        send(sender, targets, message)
        if len(sim.trace) > before:
            replica = runner.replicas.get(sender)
            committees.append(replica.committee if replica else None)

    sim.send = send_and_note_committee
    return runner.run(), committees


@pytest.mark.parametrize("name", sorted(SEND_COUNTS))
def test_broadcast_is_one_send(name):
    result, committees = run_with_committees(presets.load(name))
    assert (len(result.trace), result.counters.sent) == SEND_COUNTS[name]
    assert len(committees) == len(result.trace)
    faulty = set(result.config.byzantine.node_ids)
    broadcasts = 0
    split = {}  # (time, sender, tag) -> the targets of a split proposal's sends
    for record, committee in zip(result.trace, committees):
        if record.tag not in BROADCAST_TAGS:
            continue
        peers = tuple(n for n in committee if n != record.sender)
        if record.sender in faulty and len(record.targets) == 1 and len(peers) > 1:
            key = (record.time_us, record.sender, record.tag)
            split.setdefault(key, (peers, []))[1].extend(record.targets)
            continue
        broadcasts += 1
        assert record.targets == peers
    assert broadcasts > 0
    # An equivocator's split proposal reaches the committee but its sender.
    assert all(sorted(peers) == targets for peers, targets in split.values())
    assert bool(split) == (name == "safety_equivocate_m7")
    if name == "churn_join_m7":
        # The candidate's JoinRequest goes to the whole committee at once.
        assert [r.tag for r in result.trace].count("urequest") == 1
