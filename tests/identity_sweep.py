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

One line per run gives the SHA-256 of that text; a run that raises prints
the exception instead, so a changed failure is caught as well. The last line
is the SHA-256 of all the lines before it; the value for the current code
is pinned in ``tests/identity_sweep.sha256``. A refactor that claims
byte-identical outputs prints the same combined digest on the parent commit
and on the change. Pytest does not collect this file; it is a plain script.
It imports nothing from the test suite, so the same file can be copied into
an older checkout and run there unchanged.
"""

import dataclasses
import hashlib

from ebrc import harness, presets

SEEDS = range(1, 11)
FAULT_SEEDS = range(1, 4)


def run_digest(config) -> str:
    try:
        report, result = harness.run_scenario_with_result(config)
    except Exception as exc:  # a run that fails is part of the recorded outcome
        return f"raised {type(exc).__name__}: {exc}"
    text = harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    for label, config, seeds in variants:
        for seed in seeds:
            line = f"{label} seed={seed} {run_digest(dataclasses.replace(config, seed=seed))}"
            print(line, flush=True)
            combined.update(line.encode("utf-8") + b"\n")
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
