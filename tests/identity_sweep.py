"""Refactor gate: byte identity of every shipped preset and its fault variants.

Run from the repository root:

    PYTHONPATH=src python tests/identity_sweep.py

Each shipped preset is re-run at seeds 1..10 and serialized the way
``ebrc run --trace`` writes it (report JSON, then trace CSV). Only one
shipped preset sets ``replace_faulty``, so every EBRC preset is also run with
it set, at the same seeds, to cover the forced-replacement path. No shipped preset
is lazy, lossy or partitioned either, so three fault variants of the presets
run at seeds 1..3:

- ``lazy``: each preset with Byzantine nodes, other than ``corrupt_proof``
  ones, with those nodes made lazy instead;
- ``drop5``: every preset on a network that drops 5% of messages, with a
  300 ms round deadline;
- ``partition``: every preset with its last node cut off from 10 to 60 ms.

The election-only studies follow, serialized the way ``ebrc fairness --out``
writes a report: the fairness study at n = 7 and 20 over 200 epochs, plain
and with poisoned odd ids, and the empty-committee Monte Carlo over 2,000
trials, each at seeds 1..3.

One line per run gives the SHA-256 of that text; a run that raises prints
the exception instead, so a changed failure is caught as well. The last line
is the SHA-256 of all the lines before it. The whole output for the current
code is pinned in ``tests/identity_sweep.txt``, so a diff against it names
each run that moved. A refactor that claims byte-identical outputs prints
the same lines on the parent commit and on the change. Pytest does not collect this file; it is a plain script.
It imports nothing from the test suite, so the same file can be copied into
an older checkout and run there unchanged.
"""

import dataclasses
import functools
import hashlib
import itertools

from ebrc import harness, presets

SEEDS = range(1, 11)
FAULT_SEEDS = range(1, 4)
STUDY_SEEDS = range(1, 4)


def run_digest(config) -> str:
    try:
        report, result = harness.run_scenario_with_result(config)
    except Exception as exc:  # a run that fails is part of the recorded outcome
        return f"raised {type(exc).__name__}: {exc}"
    text = harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def study_digest(study) -> str:
    try:
        report = study()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(harness.report_json(report).encode("utf-8")).hexdigest()


def studies():
    """``(label, study)`` for each election-only study run."""
    runs = [
        (f"fairness n={n} {'poison_odd' if poison_odd else 'plain'} seed={seed}",
         functools.partial(harness.fairness_experiment, n, 200, poison_odd=poison_odd, seed=seed))
        for n in (7, 20)
        for poison_odd in (False, True)
        for seed in STUDY_SEEDS
    ]
    runs += [
        (f"empty_committee n=10 seed={seed}",
         functools.partial(harness.empty_committee_probability, 10, 0.4, 2_000, seed=seed))
        for seed in STUDY_SEEDS
    ]
    return runs


def fault_variants(shipped):
    """The lazy, 5%-drop and partition variants of the shipped presets."""
    variants = [
        (f"{name} lazy", dataclasses.replace(
            config, byzantine=dataclasses.replace(config.byzantine, behavior="lazy")
        ))
        for name, config in shipped
        if config.byzantine.node_ids and config.byzantine.behavior != "corrupt_proof"
    ]
    variants += [
        (f"{name} drop5", dataclasses.replace(
            config,
            network=dataclasses.replace(config.network, drop_rate=0.05),
            round_deadline_ms=300.0,
        ))
        for name, config in shipped
    ]
    variants += [
        (f"{name} partition", dataclasses.replace(
            config,
            network=dataclasses.replace(
                config.network, partitions=((10.0, 60.0, (config.node_count - 1,)),)
            ),
        ))
        for name, config in shipped
    ]
    return variants


def main() -> None:
    combined = hashlib.sha256()
    shipped = [(name, presets.load(name)) for name in presets.names()]
    variants = [(label, config, SEEDS) for label, config in shipped]
    variants += [
        (f"{name} replace_faulty", dataclasses.replace(config, replace_faulty=True), SEEDS)
        for name, config in shipped
        if config.protocol == "ebrc"
    ]
    variants += [(label, config, FAULT_SEEDS) for label, config in fault_variants(shipped)]
    lines = (
        f"{label} seed={seed} {run_digest(dataclasses.replace(config, seed=seed))}"
        for label, config, seeds in variants
        for seed in seeds
    )
    study_lines = (f"{label} {study_digest(study)}" for label, study in studies())
    for line in itertools.chain(lines, study_lines):
        print(line, flush=True)
        combined.update(line.encode("utf-8") + b"\n")
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
