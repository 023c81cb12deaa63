#!/usr/bin/env python3
"""Elect a committee from 20 nodes: VRF self-selection, the reputation
eligibility gate, and the consensus/candidate/spare split. Then poison half
the nodes' records and watch the gate demote them."""

from ebrc.consensus import select_master
from ebrc.crypto import VRF_RANGE, KeyRegistry, SimulatedVrf
from ebrc.election import eligible_nodes, form_committee
from ebrc.reputation import ConfirmedReport, Participation, new_record, update_behavior_table

NODES = 20
registry = KeyRegistry(seed=b"election-demo")
for node in range(NODES):
    registry.register(node)

table = {node: new_record(node, deposit=100.0) for node in range(NODES)}
table = update_behavior_table(table, [Participation(node_id=n) for n in range(NODES)])

OMEGA = 0.7
GATE = 0.85
settings = dict(omega=OMEGA, eligibility_percentile=GATE, consensus_percentile=0.5)
epoch_seed = b"demo-epoch-1"

vrf = SimulatedVrf(registry)
print(f"sortition at omega = {OMEGA}: normalized VRF draw per node")
for node in range(NODES):
    draw = vrf.value(registry.secret_key(node), epoch_seed) / VRF_RANGE
    mark = "<- self-selects" if draw <= OMEGA else ""
    print(f"  node {node:2d}  {draw:.3f}  {mark}")

committee, reports = form_committee(eligible_nodes(table, GATE), epoch_seed, registry, **settings)
print()
print("consensus nodes:", sorted(committee.consensus_nodes))
print("candidates:     ", sorted(committee.candidates))
print("spares:         ", sorted(committee.spares))
# The first block is height 1, view 0.
print("fault budget f =", committee.f, " first master: node",
      committee.consensus_nodes[select_master(1, 0, committee.f)])
print("misbehavior reports:", reports)

# Poison the odd ids: confirmed misbehavior reports raise their evil rate,
# and the eligibility gate ranks them out of the committee bands.
poison = [ConfirmedReport(node_id=n) for n in range(1, NODES, 2) for _ in range(3)]
poisoned_table = update_behavior_table(table, poison)

poisoned_committee, _ = form_committee(
    eligible_nodes(poisoned_table, GATE), epoch_seed, registry, **settings
)
print()
print("after poisoning the odd ids:")
print("consensus nodes:", sorted(poisoned_committee.consensus_nodes))
print("candidates:     ", sorted(poisoned_committee.candidates))
elected = poisoned_committee.consensus_nodes + poisoned_committee.candidates
odd_in = sum(1 for n in elected if n % 2 == 1)
print(f"odd ids still elected: {odd_in} of {len(elected)} members")
