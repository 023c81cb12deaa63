"""Independent reference implementations used to derive expected test values.

Everything here is written from the definitions alone, deliberately naive and
separate from the package code, so the tests compare two implementations that
share no logic.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def brute_force_h_index(history: Sequence[int]) -> int:
    """Largest j such that at least j entries are >= j, by direct scan."""
    best = 0
    for j in range(1, len(history) + 1):
        if sum(1 for c in history if c >= j) >= j:
            best = j
    return best


def weighted_reputation(
    margin: float,
    incomplete: float,
    evil: float,
    activity: float,
    magnitude: float,
    weights: Sequence[float] = (0.1, 0.3, 0.3, 0.2, 0.1),
    *,
    complement: bool = True,
    floor: float = 1e-6,
) -> float:
    w_m, w_i, w_e, w_a, w_g = weights
    inc = (1.0 - incomplete) if complement else incomplete
    ev = (1.0 - evil) if complement else evil
    score = math.fsum((w_m * margin, w_i * inc, w_e * ev, w_a * activity, w_g * magnitude))
    return min(1.0, max(floor, score))


def growth_rate(r_now: float, r_then: float, rounds: int) -> float:
    return (r_now / r_then) ** (1.0 / (rounds - 1)) - 1.0


def ebrc_message_law(m: int) -> int:
    """Fault-free per-round protocol messages for the two-phase committee flow."""
    return (m - 1) + m * (m - 1) + m


def pbft_message_law(n: int) -> int:
    """Fault-free per-round protocol messages for the three-phase baseline."""
    return (n - 1) + (n - 1) ** 2 + n * (n - 1) + n


def analytic_empty_committee(omega: float, n: int) -> float:
    """Probability that no node of n self-selects at threshold omega."""
    return (1.0 - omega) ** n


def chi_square_uniform(counts: Dict[int, int]) -> float:
    """Pearson chi-square statistic against the uniform expectation."""
    values = list(counts.values())
    expected = sum(values) / len(values)
    return sum((v - expected) ** 2 / expected for v in values)


def exit_messages(m: int) -> int:
    """One exit request plus an exit confirmation to each remaining member."""
    return 1 + (m - 1)


def join_messages(m: int) -> int:
    """One change notice, a join request to every member, and a confirmation
    from every member; m is the committee size during the handshake."""
    return 1 + m + m


def rank_by_reputation(table) -> list:
    """Node ids by descending current reputation, ties toward the lower id."""
    return sorted(table, key=lambda node: (-table[node].reputation, node))


def rank_by_growth(table) -> list:
    """Node ids by descending growth rate, ties toward the lower id."""
    return sorted(table, key=lambda node: (-table[node].growth_rate, node))
