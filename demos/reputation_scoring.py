#!/usr/bin/env python3
"""Walk three nodes' behavior records through six epochs and watch their
reputations diverge: one behaves, one skips rounds, one gets caught lying."""

from ebrc.reputation import (
    DepositSlash,
    ConfirmedReport,
    Incompletion,
    Participation,
    TransactionsProcessed,
    compute_growth_rate,
    h_index,
    new_record,
    update_behavior_table,
)

table = {node: new_record(node, deposit=100.0) for node in range(3)}

print("h-index of recent transaction batch sizes")
for history in ([], [5, 4, 3], [10, 8, 5, 4, 3], [1, 1, 1, 1, 1, 1]):
    print(f"  {history!r:28} -> {h_index(history)}")
print()

good_epoch = [
    Participation(node_id=0),
    TransactionsProcessed(node_id=0, count=4),
    Participation(node_id=1),
    Participation(node_id=2),
]
bad_epoch = [
    Participation(node_id=0),
    TransactionsProcessed(node_id=0, count=4),
    Incompletion(node_id=1),
    ConfirmedReport(node_id=2),
    DepositSlash(node_id=2),
]

print("epoch  node0    node1    node2")
for epoch in range(1, 7):
    table = update_behavior_table(table, good_epoch if epoch <= 2 else bad_epoch)
    row = "  ".join(f"{table[n].reputation:.4f}" for n in range(3))
    marker = "   <- node1 skips, node2 reported + slashed" if epoch == 3 else ""
    print(f"{epoch:5d}  {row}{marker}")

print()
print("growth of a score that went 0.5 -> 0.72 across rounds 1..3:",
      f"{compute_growth_rate(0.72, 0.5, 3):.3f}")
for node in range(3):
    history = table[node].reputation_history
    growth = compute_growth_rate(history[-1], history[0], len(history))
    print(f"node {node}: reputation {table[node].reputation:.4f}, "
          f"growth per round {growth:+.4f}")
