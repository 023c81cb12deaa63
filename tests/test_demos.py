"""The shipped demos run to completion.

Each demo is executed in-process as a script, so it drives the real replica,
network and harness paths end to end. ``protocol_comparison.py`` is left out
on purpose: it takes about 5 s, which the fast test tier cannot afford, so CI
runs it as a step of its own.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("consensus_round.py", "committed"),
        ("membership_churn.py", "membership messages"),
        ("reputation_scoring.py", "growth per round"),
        ("committee_election.py", "odd ids still elected"),
    ],
)
def test_demo_completes(script, expected, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
