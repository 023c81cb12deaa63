"""Reach check: the lines of ``src/ebrc`` that no run executes.

Run from the repository root:

    PYTHONPATH=src python tests/reach_sweep.py

Under ``sys.settrace`` it runs the identity sweep (``identity_sweep.main``,
its output suppressed), which takes in the fairness study plain and
poisoned and the empty-committee study, and the three CLI commands
``ebrc run``, ``ebrc compare`` and ``ebrc fairness``. It then prints
``path:line: source`` for every line of the package that holds code and
never ran, and a count.
Lines of ``raise`` statements are left out: a guard against bad input is
meant to stay unreached. Any other line it prints is code that only tests
call, or that nothing calls. Tracing is slow: the identity sweep alone takes
well over a minute of CPU. Pytest does not collect this file; it is a plain
script.
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("ebrc").submodule_search_locations[0]).resolve()


def code_lines(path: Path):
    """Lines of ``path`` that hold bytecode, less those of raise statements."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def traced(run):
    """The (file, line) pairs of the package that ``run()`` executes."""
    executed = set()
    in_package = {}

    def local(frame, event, arg):
        executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        inside = in_package.get(filename)
        if inside is None:
            inside = in_package[filename] = Path(os.path.realpath(filename)).is_relative_to(
                PACKAGE
            )
        if not inside:
            return None
        executed.add((filename, frame.f_lineno))
        return local

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return {(os.path.realpath(name), line) for name, line in executed}


def every_run():
    # Imported here, under the tracer, so module-level lines count as run.
    import identity_sweep
    from ebrc import cli, presets

    with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as out:
        identity_sweep.main()
        cli.main(["run", "--scenario", str(presets.path("churn_join_m7")),
                  "--out", out, "--trace"])
        cli.main(["compare", "--scenarios", str(presets.path("law_ebrc_n4")),
                  str(presets.path("law_pbft_n4")), "--out", out, "--trace"])
        cli.main(["fairness", "--nodes", "20", "--epochs", "100", "--poison-odd",
                  "--out", out])


def main() -> None:
    executed = traced(every_run)
    unreached = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(PACKAGE.parent.parent)
        for line in sorted(code_lines(path)):
            if (str(path), line) not in executed:
                unreached += 1
                print(f"{name}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} lines of {PACKAGE.name} that no run executes")


if __name__ == "__main__":
    main()
