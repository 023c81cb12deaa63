"""Known ledger divergences under loss and a partition.

Each case is a clean ``comparison_pair`` run on a network that drops 5% of
messages and cuts some nodes off for one window, found by a seed sweep.
Honest ledgers diverge on all of them, a defect of the protocol core that is
still open (ROADMAP item 2), so each is a strict xfail: a fix turns it into a
pass, and the strict marker then asks for the case to become a plain test.
"""

import dataclasses

import pytest

from ebrc import presets
from ebrc.harness import run_scenario

EBRC, PBFT = 0, 1  # index of each protocol's config in a comparison_pair

# (protocol, node_count, seed, partition window (start_ms, end_ms, nodes))
CASES = [
    (EBRC, 4, 83, (34.8, 44.1, (2,))),
    (EBRC, 4, 195, (13.7, 19.4, (0,))),
    (EBRC, 7, 81, (33.3, 46.8, (1,))),
    (PBFT, 13, 210, (22.2, 31.2, (10,))),
    (PBFT, 4, 34, (1.3, 9.6, (2,))),
    (PBFT, 7, 158, (51.4, 58.9, (5,))),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
@pytest.mark.parametrize(
    "protocol, node_count, seed, window",
    CASES,
    ids=[f"{('ebrc', 'pbft')[p]}-n{n}-seed{s}" for p, n, s, _ in CASES],
)
def test_lossy_partitioned_run_keeps_ledgers_agreed(protocol, node_count, seed, window):
    config = presets.comparison_pair(node_count, byzantine=False, seed=seed, rounds=4)[protocol]
    network = dataclasses.replace(config.network, drop_rate=0.05, partitions=(window,))
    report = run_scenario(dataclasses.replace(config, network=network))
    assert not report.safety_violation
