"""Byte-identity of every shipped preset: a speed change never moves an outcome.

Each shipped preset JSON is run at its own seed, serialized the way
``ebrc run --trace`` writes it (report JSON, then trace CSV), and the SHA-256
of that text is compared with the value pinned here. A change that is meant
to alter simulated outcomes re-pins these hashes and says why in CHANGES.md.

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

import pytest

from ebrc import harness, presets
from ebrc.config import ByzantineConfig
from ebrc.runner import ScenarioRunner

GOLDEN_SHA256 = {
    "churn_exit_m11": "3005955a16e72648dfc905e5836aa882422048f3db875b80f5516d5a323fe131",
    "churn_join_m7": "af42615187499d82cb24f51fcd60ceac26404426219975ef603ce691e7885fdd",
    "churn_promote_m7": "441446e95657149f4b834bef2e9671ed28ce1cabf2b11f57964bbda17c774d0b",
    "compare_byz_ebrc_n10": "2f0aa825e9876ba023d5d2f955c83ed7e700b1ced71115055c47213a4dc859bd",
    "compare_byz_pbft_n10": "452e9bfb0dcada66277a6a01f6c735a7a504bee0701d666b5407e00d3b7b5cc0",
    "djep_exit_m26": "f780d34d137e50d89a9b83aca5dfedf47492e44856844fb76868aeeaf5e9fb4c",
    "djep_join_m25": "a1346732cbe6d8751c2873e77cb5a9956bc6c9d98d1096017911a32c9d45579a",
    "election_corrupt_proof_n6": "2e46d7c7b75e8ae40531c836a126da055d06339f1b881f273f1002fa06fde099",
    "law_ebrc_n4": "29f4b169820507a1a24769877c49e81fb5c1dfe5e8e3861b50568a708efa9e35",
    "law_pbft_n4": "979622f701b89a5ec5d4764308afe35dc3653816dc211f1e33d4777cfc6bb197",
    "pbft_viewchange_n26": "9245a60b60547f39283a75c7a53fef8f9ead80d0ae96961c962675de3a3af26c",
    "safety_corrupt_digest_m10": "2793e564706d84a36f5b85f8ade441420bd5e224fbe5af48976f1e7e3605be91",
    "safety_corrupt_digest_m13": "86dc928f238845ee034cf8e9a56d630a58555be11f46b43913ef8f3703aeb414",
    "safety_corrupt_digest_m4": "825c90ecaab7dace2c0a0dc94d304b80197020e7c3c2798a3871f787a78a6d6a",
    "safety_corrupt_digest_m7": "f10ba13aa481ad7bd042d4149619360852d37e6853778b33e952250d506ded07",
    "safety_equivocate_m10": "3a87e1b0f4243fba013b9cabd6291c8bd223cfa087cbabf083a4f1bfdc2ea49e",
    "safety_equivocate_m13": "bca7e747f27943e455fd64a7f85854801ced21a79fe4722fa196830b95440d9b",
    "safety_equivocate_m4": "028ad527149f845313291868afd0fd1e6ee2352d89f4e80b7749a9a91570bc31",
    "safety_equivocate_m7": "4a31cd461953629ad33f725db542621b06886a081d1c10dc87bddceefd829c98",
    "safety_silent_m10": "b0a673d09a61c83398772b05a32ee65e33389710a41534ee6a75813f03b63beb",
    "safety_silent_m13": "34816452af1da679eeee6cfc72445e2b28302dfd8207fc1ac10c17f65ad788ab",
    "safety_silent_m4": "fb68737cf23591649b4d3c9a847e63fe29ceb61bb9ebe0dbca0e9b86e649d86c",
    "safety_silent_m7": "a11e1d9d5129e58d173ea9b1abf56380a2db087c9bda263085ba5d5468ad18f8",
}


FORCED_REPLACEMENT_SHA256 = {
    # churn_join_m7 logs replace 6 + join 7 at height 2.
    "churn_join_m7_silent_6": "26b33f1b6240d303fb91cdff31d3fd4f99b78ce344db1f4ba5712f4794a4910a",
    # churn_join_m7 logs replace 3 + join 7 at height 3, after one view change.
    "churn_join_m7_equivocate_3": "9dc0e326d7e36b0f126b7a8be4302eaea778c44a702aaf320a3a305ac7428de6",
    # safety_silent_m7 has no candidates: every forced removal stalls.
    "safety_silent_m7": "16c2c2b24c7bcb593aeb3a954e44f8639bf2833826e48a48541683069f127696",
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
    assert sorted(GOLDEN_SHA256) == presets.names()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_report_and_trace_bytes_unchanged(name):
    assert output_sha256(presets.load(name)) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(FORCED_REPLACEMENT_SHA256))
def test_forced_replacement_bytes_unchanged(name):
    assert output_sha256(forced_replacement_config(name)) == FORCED_REPLACEMENT_SHA256[name]


STUDY_SHA256 = {
    "fairness_n20": "2392601029ae9be489ed352ea5130792587803e9f87c16367b89d34ace683c6e",
    "fairness_n20_poison_odd": "4332af2f7084aa54a14a3745c771390a17c7f5e8e8f9372b8ec5d858f7155c9f",
    "empty_committee_n10": "39716251e52bcb7f073998a6bdc5ff52d220e78cdbd7eda2aee2cd4f16352c07",
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
