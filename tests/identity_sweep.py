"""Refactor gate: byte identity of every shipped preset over seeds 1..10.

Run from the repository root:

    PYTHONPATH=src python tests/identity_sweep.py

Each shipped preset is re-run at seeds 1..10 and serialized the way
``ebrc run --trace`` writes it (report JSON, then trace CSV). No shipped
preset sets ``replace_faulty``, so every EBRC preset is also run with it set,
at the same seeds, to cover the forced-replacement path. One line per run
gives the SHA-256 of that text; a run that raises prints the exception
instead, so a changed failure is caught as well. The last line is the
SHA-256 of all the lines before it. A refactor that claims byte-identical
outputs prints the same combined digest on the parent commit and on the
change. Pytest does not collect this file; it is a plain script. It imports
nothing from the test suite, so the same file can be copied into an older
checkout and run there unchanged.
"""

import dataclasses
import hashlib

from ebrc import harness, presets

SEEDS = range(1, 11)


def run_digest(config) -> str:
    try:
        report, result = harness.run_scenario_with_result(config)
    except Exception as exc:  # a run that fails is part of the recorded outcome
        return f"raised {type(exc).__name__}: {exc}"
    text = harness.report_json(
        {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
    ) + harness.trace_csv(result.trace)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    combined = hashlib.sha256()
    variants = [(name, presets.load(name)) for name in presets.names()]
    variants += [
        (f"{name} replace_faulty", dataclasses.replace(config, replace_faulty=True))
        for name, config in variants
        if config.protocol == "ebrc"
    ]
    for label, config in variants:
        for seed in SEEDS:
            line = f"{label} seed={seed} {run_digest(dataclasses.replace(config, seed=seed))}"
            print(line, flush=True)
            combined.update(line.encode("utf-8") + b"\n")
    print(f"combined {combined.hexdigest()}")


if __name__ == "__main__":
    main()
