"""Command-line experiment runner.

Subcommands: ``run`` (one scenario), ``compare`` (several scenarios side by
side), ``fairness`` (election-only study). Exit codes: 0 all invariants held,
1 usage or configuration error, 2 safety violation detected.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from . import harness
from .config import load_scenario
from .election import ElectionFailed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SAFETY = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for safety
    # violations here, so usage problems must exit 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    """A command line argparse rejected."""


def _build_parser() -> _Parser:
    parser = _Parser(prog="ebrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and report metrics")
    run.add_argument("--scenario", required=True, help="scenario config file (JSON)")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default=None, help="directory for report.json / metrics.csv")
    run.add_argument("--trace", action="store_true", help="also write the event trace")

    cmp_cmd = sub.add_parser("compare", help="run several scenarios side by side")
    cmp_cmd.add_argument("--scenarios", required=True, nargs="+", help="scenario files")
    cmp_cmd.add_argument("--out", default=None, help="directory for outputs")
    cmp_cmd.add_argument("--trace", action="store_true", help="also write event traces")

    fair = sub.add_parser("fairness", help="election fairness study")
    fair.add_argument("--nodes", type=int, required=True)
    fair.add_argument("--epochs", type=int, required=True)
    fair.add_argument("--poison-odd", action="store_true")
    fair.add_argument("--seed", type=int, default=0)
    fair.add_argument("--omega", type=float, default=0.4)
    fair.add_argument("--out", default=None)
    return parser


def _write(out: str, name: str, text: str) -> None:
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _summary_line(report: harness.MetricsReport) -> str:
    latency = (
        f"{report.mean_latency_ms:.3f}" if report.mean_latency_ms is not None else "n/a"
    )
    tps = f"{report.tps:.1f}" if report.tps is not None else "n/a"
    return (
        f"{report.name}: protocol={report.protocol} n={report.node_count} "
        f"m={report.committee_size} rounds={report.committed_rounds}"
        f"+{report.aborted_rounds}ab latency_ms={latency} tps={tps} "
        f"messages={report.total_messages} "
        f"safety={'VIOLATED' if report.safety_violation else 'ok'}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
        config.validate()
    report, result = harness.run_scenario_with_result(config)
    if args.out is not None:
        payload = {"schema_version": harness.SCHEMA_VERSION, "reports": [report.to_dict()]}
        _write(args.out, "report.json", harness.report_json(payload))
        _write(args.out, "metrics.csv", harness.metrics_csv([report]))
        if args.trace:
            _write(args.out, "trace.csv", harness.trace_csv(result.trace))
    print(_summary_line(report))
    return EXIT_SAFETY if report.safety_violation else EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    configs = [load_scenario(path) for path in args.scenarios]
    reports: List[harness.MetricsReport] = []
    violated = False
    for config in configs:
        report, result = harness.run_scenario_with_result(config)
        reports.append(report)
        violated = violated or report.safety_violation
        if args.trace:
            _write(args.out, f"trace_{report.name}.csv", harness.trace_csv(result.trace))
        print(_summary_line(report))
    payload = {
        "schema_version": harness.SCHEMA_VERSION,
        "comparison": harness.compare_reports(reports),
        "reports": [report.to_dict() for report in reports],
    }
    if args.out is not None:
        _write(args.out, "report.json", harness.report_json(payload))
        _write(args.out, "metrics.csv", harness.metrics_csv(reports))
    return EXIT_SAFETY if violated else EXIT_OK


def _cmd_fairness(args: argparse.Namespace) -> int:
    report = harness.fairness_experiment(
        args.nodes,
        args.epochs,
        poison_odd=args.poison_odd,
        seed=args.seed,
        omega=args.omega,
    )
    if args.out is not None:
        _write(args.out, "fairness.json", harness.report_json(report))
    line = (
        f"fairness: nodes={report['node_count']} epochs={report['epochs']} "
        f"poison_odd={report['poison_odd']} chi2={report['chi_square']:.3f} "
        f"p={report['p_value']:.4f} counts=[{report['min_count']}, {report['max_count']}] "
        f"failed_epochs={report['failed_epochs']}/{report['epochs']}"
    )
    if report["poison_odd"]:
        ratio = report["demotion_ratio"]
        line += f" demotion_ratio={ratio:.3f}" if ratio is not None else " demotion_ratio=n/a"
    print(line)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "compare": _cmd_compare, "fairness": _cmd_fairness}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Without --out a trace has nowhere to go: fail rather than drop it.
        if getattr(args, "trace", False) and args.out is None:
            raise UsageError("--trace needs --out, the directory the trace is written to")
        return _COMMANDS[args.command](args)
    # ConfigError is a ValueError; OSError covers unreadable scenario files
    # and an --out path that is not a directory.
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ElectionFailed as exc:
        print(f"error: election failed: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except harness.ConsistencyError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_SAFETY


if __name__ == "__main__":
    sys.exit(main())
