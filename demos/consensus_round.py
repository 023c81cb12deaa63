#!/usr/bin/env python3
"""One committee, four nodes, three blocks: first a clean run showing the
two-phase message pattern, then the same scenario with a silent master so the
view change path has to rescue the round."""

from ebrc.config import ByzantineConfig, NetworkConfig, ScenarioConfig
from ebrc.harness import run_scenario_with_result

BASE = dict(
    protocol="ebrc",
    node_count=4,
    seed=7,
    omega=1.0,
    eligibility_percentile=1.0,
    consensus_percentile=1.0,
    epochs=1,
    rounds_per_epoch=3,
    block_tx_cap=3,
    load=3,
    network=NetworkConfig(base_latency_ms=2.0, jitter_ms=1.0, drop_rate=0.0),
)


def show(title, config):
    report, result = run_scenario_with_result(config)
    print(title)
    print(f"  committed {report.committed_rounds} blocks, "
          f"{report.view_changes_total} view changes, "
          f"mean latency {report.mean_latency_ms:.1f} ms")
    for block in report.blocks:
        print(f"  height {block['height']}: view {block['view']}, "
              f"{block['tx_count']} tx, digest {block['digest'][:12]}...")
    tags = {t: c for t, c in sorted(report.messages_by_tag.items())
            if t in ("prepare", "commit", "reply", "viewchange")}
    print(f"  consensus traffic: {tags}")
    print()
    return report


clean = show("clean run", ScenarioConfig(name="demo_clean", **BASE))

# Node 1 is the first master in the rotation; silencing it forces the
# committee to time out, vote, and re-run the round under the next master.
faulty = show(
    "same scenario, master silenced",
    ScenarioConfig(
        name="demo_silent_master",
        byzantine=ByzantineConfig(node_ids=(1,), behavior="silent"),
        **BASE,
    ),
)

print("the silent master cost", faulty.view_changes_total, "view change(s)",
      "but every block still committed:", faulty.committed_rounds, "of 3")
