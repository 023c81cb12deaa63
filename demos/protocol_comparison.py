#!/usr/bin/env python3
"""Head-to-head sweep: per-round message counts, throughput under silent
faults, and commit latency for the reputation-gated two-phase protocol vs.
the PBFT baseline, across network sizes."""

import statistics

from ebrc import presets
from ebrc.harness import run_scenario

SIZES = presets.SWEEP_NODE_COUNTS
# The tags the per-round message-count law covers; requests, elections and
# membership traffic are counted under their own tags.
CONSENSUS_TAGS = ("preprepare", "prepare", "commit", "reply")


def consensus_traffic(report):
    return sum(report.messages_by_tag.get(tag, 0) for tag in CONSENSUS_TAGS)


print("per-round consensus messages (fault free, one block)")
print(f"{'n':>4} {'two-phase':>10} {'pbft':>8} {'ratio':>7}")
for n in SIZES:
    ebrc_cfg, pbft_cfg = presets.law_pair(n)
    ebrc, pbft = run_scenario(ebrc_cfg), run_scenario(pbft_cfg)
    e, p = consensus_traffic(ebrc), consensus_traffic(pbft)
    print(f"{n:>4} {e:>10} {p:>8} {e / p:>7.2f}")
print()

print("throughput with floor((n-1)/3) silent nodes (tx per simulated second,"
      " mean of 5 seeds)")
print(f"{'n':>4} {'two-phase':>10} {'pbft':>8}")
for n in SIZES:
    ebrc_tps, pbft_tps = [], []
    for seed in range(1, 6):
        ebrc_cfg, pbft_cfg = presets.comparison_pair(n, byzantine=True, seed=seed)
        ebrc_tps.append(run_scenario(ebrc_cfg).tps)
        pbft_tps.append(run_scenario(pbft_cfg).tps)
    print(f"{n:>4} {statistics.mean(ebrc_tps):>10.1f} {statistics.mean(pbft_tps):>8.1f}")
print()

print("mean commit latency, fault free (ms simulated, 15 blocks x 5 trials)")
print(f"{'n':>4} {'two-phase':>10} {'pbft':>8}")
for n in SIZES:
    ebrc_lat, pbft_lat = [], []
    for seed in range(1, 6):
        ebrc_cfg, pbft_cfg = presets.comparison_pair(n, byzantine=False, seed=seed, rounds=15)
        ebrc_lat.extend(run_scenario(ebrc_cfg).latency_ms)
        pbft_lat.extend(run_scenario(pbft_cfg).latency_ms)
    print(f"{n:>4} {statistics.mean(ebrc_lat):>10.2f} {statistics.mean(pbft_lat):>8.2f}")
