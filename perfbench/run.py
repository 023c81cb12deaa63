"""Host-time benchmark of the ebrc simulator.

Timed mode (end-to-end metrics), one workload or all three:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --seed 1

Traced mode (per-layer metrics and the tracing overhead):

    python3 perfbench/run.py --workload faults --seed 1 --seconds 16 --trace 1

Run it from the root of a checkout: it imports ``ebrc`` from ``src/`` there
and refuses to run (exit 2, no result line) when that is missing. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sweep", "faults", "fairness")
# Set-up is timed in this many fresh processes; the median is reported.
SETUP_REPEATS = 3
# Wall seconds of one untraced pass at the reference speed (below) on a
# 2.1 GHz Xeon core. A run makes a fixed number of passes, --seconds worth at
# that speed, so every run of one --seed and --seconds attempts the same ops,
# however fast the machine is.
PASS_SECONDS = {"sweep": 5.0, "faults": 2.0, "fairness": 0.75}
# An untraced pass and a traced one, in untraced passes.
TRACED_PAIR_PASSES = 2.8
# The calibration kernel's wall seconds at the reference speed, and how many
# times a timed run measures it, spread between its passes.
KERNEL_REFERENCE_S = 0.1
KERNEL_SAMPLES = 24
KERNEL_ROUNDS = 45_000
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result line is printed."""


def import_ebrc() -> float:
    """Import ``ebrc`` from this checkout's ``src/``; return the seconds taken."""
    if not (SRC / "ebrc" / "__init__.py").is_file():
        raise BenchError(f"no ebrc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ebrc

    elapsed = time.perf_counter() - start
    if Path(ebrc.__file__).resolve().parent != SRC / "ebrc":
        raise BenchError(f"imported ebrc from {ebrc.__file__}, not from {SRC}")
    return elapsed


def setup_only(workload: str, seed: int) -> None:
    """Child side of the set-up probe: import, build the inputs, report."""
    import_s = import_ebrc()
    import workloads

    start = time.perf_counter()
    workloads.build(workload, seed)
    config_s = time.perf_counter() - start
    print(json.dumps({"import_ms": import_s * 1e3, "config_ms": config_s * 1e3}), flush=True)


def probe_setup(workload: str, seed: int) -> Dict[str, float]:
    """Time process start until the inputs are built, in a fresh process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        try:
            child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError("set-up probe did not exit") from None
    if child.returncode != 0 or not line:
        raise BenchError(f"set-up probe exited with {child.returncode}")
    probe = json.loads(line)
    probe["setup_s"] = ready - start
    return probe


def calibration_kernel() -> int:
    """A fixed piece of work in the interpreter's common operations (calls,
    string formatting, SHA-256 of short bytes, dicts, a heap), like the
    simulator's, that uses no ``ebrc`` code. Its time tracks how fast the
    shared host runs this process at the moment."""
    heap: List = []
    seen: Dict[int, bytes] = {}  # bounded, so that it leaves peak_rss_mb alone
    for i in range(KERNEL_ROUNDS):
        digest = hashlib.sha256(f"msg{i % 251}:{i}".encode()).digest()
        heapq.heappush(heap, (digest[0], i))
        if len(heap) > 64:
            heapq.heappop(heap)
        seen[i % 4096] = digest
    return len(seen)


def time_kernel(samples: List[float], repeats: int) -> None:
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_of(dicts: List[Dict[str, float]], key: str) -> float:
    return statistics.median(d[key] for d in dicts)


class Measurement:
    """Passes of one workload. The first pass's outputs and counters are the
    reference that every later pass must repeat exactly."""

    def __init__(self, workload) -> None:
        import workloads

        self.workloads = workloads
        self.workload = workload
        self.passes: List = []
        self.mismatches: List[str] = []

    @property
    def reference(self):
        return self.passes[0]

    def run(self, tracer=None):
        gc.collect()
        if tracer is None:
            result = self.workloads.run_pass(self.workload)
        else:
            with tracer:
                result = self.workloads.run_pass(self.workload)
        self.passes.append(result)
        ref = self.reference
        if result.outputs_sha256 != ref.outputs_sha256:
            self.mismatches.append(
                f"pass {len(self.passes)}: outputs_sha256 {result.outputs_sha256} != {ref.outputs_sha256}"
            )
        if result.counters != ref.counters:
            self.mismatches.append(f"pass {len(self.passes)}: counters differ from pass 1")
        return result

    @property
    def correct(self) -> bool:
        return not self.mismatches and not any(p.problems for p in self.passes)

    def summary(self) -> Dict[str, object]:
        ops = [op for p in self.passes for op in p.ops]
        return {
            "correct": self.correct,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op.problems),
        }

    def header_lines(self, seed: int) -> List[str]:
        summary = self.summary()
        lines = [
            f"workload={self.workload.name} seed={seed} "
            f"seeds={','.join(map(str, self.workloads.seed_list(self.workload.name, seed)))} "
            f"passes={len(self.passes)} ops_per_pass={len(self.workload.ops)}",
            f"ops_attempted {summary['attempted']}",
            f"ops_failed {summary['failed']}",
            f"outputs_sha256 {self.reference.outputs_sha256}",
            f"msgs_sent {self.reference.counters.get('msgs_sent', 0)} (per pass)",
        ]
        lines.extend(self.workloads.failure_lines(self.reference))
        lines.extend(f"MISMATCH {m}" for m in self.mismatches)
        return lines


def pass_count(workload: str, seconds: int, pass_cost: float = 1.0) -> int:
    """Passes that take about ``seconds`` when each costs ``pass_cost``
    untraced passes."""
    return max(1, round(seconds / (PASS_SECONDS[workload] * pass_cost)))


def median_over_passes(passes, attr: str) -> List[float]:
    """Each op's median time over the passes, in op order.

    The work of an op is the same on every pass (the outputs are checked to
    be identical). On a shared machine a few repeats of it run much slower
    or faster than the rest, so the median is steadier than the mean or the
    fastest.
    """
    return [
        statistics.median(times)
        for times in zip(*([getattr(op, attr) for op in p.ops] for p in passes))
    ]


def timed_metrics(m: Measurement, probes: List[Dict[str, float]], kernel_s: List[float]):
    """End-to-end metrics, and notes on how they were taken.

    Every time is divided by the host's slowdown during the run: the
    calibration kernel's median time over its reference time. The shared
    host runs this process at speeds up to two times apart for minutes on
    end, and that moves the kernel much as it moves the workloads.
    """
    passes = m.passes
    slowdown = statistics.median(kernel_s) / KERNEL_REFERENCE_S
    op_wall = [t / slowdown for t in median_over_passes(passes, "wall_s")]
    wall_s = sum(op_wall) + statistics.median(p.finish_wall_s for p in passes) / slowdown
    cpu_s = (
        sum(median_over_passes(passes, "cpu_s")) + statistics.median(p.finish_cpu_s for p in passes)
    ) / slowdown
    run_ms = [t * 1e3 for t in op_wall]
    values = {
        "setup_s": (median_of(probes, "setup_s") / slowdown, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (cpu_s, "s"),
        "us_per_msg": (cpu_s * 1e6 / m.reference.units, "us"),
        "run_ms_p50": (percentile(run_ms, 50), "ms"),
        "run_ms_p90": (percentile(run_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"times are medians of {len(passes)} passes per op; run_ms over {len(run_ms)} ops",
        f"setup_s median of {len(probes)} fresh processes",
        f"host slowdown {slowdown:.4f}: calibration kernel median {statistics.median(kernel_s) * 1e3:.1f} ms "
        f"over {len(kernel_s)} samples, {KERNEL_REFERENCE_S * 1e3:.0f} ms at reference speed; "
        f"every time below is divided by it (host wall_s {wall_s * slowdown:.4f} s)",
    ]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, notes


def layer_metrics(tracer, result, signatures: set) -> Dict[str, float]:
    """Per-layer numbers of one traced pass."""
    c = result.counters
    self_ms = tracer.self_ms()
    verify_calls = tracer.count("crypto.KeyRegistry.verify")
    rounds = c.get("rounds", 0)
    return {
        "crypto.digest_calls": tracer.count("crypto.digest"),
        "crypto.sign_calls": tracer.count("crypto.KeyRegistry.sign"),
        "crypto.verify_calls": verify_calls,
        "crypto.vrf_calls": tracer.count("crypto.SimulatedVrf.evaluate", "crypto.SimulatedVrf.verify"),
        "crypto.verify_per_signature": verify_calls / len(signatures) if signatures else 0.0,
        "crypto.self_ms": self_ms["crypto"],
        "messages.signed_calls": tracer.count("messages.signed"),
        "messages.signature_ok_calls": tracer.count("messages.signature_ok"),
        "messages.self_ms": self_ms["messages"],
        "simnet.events": tracer.count("simnet.Simulation.step_one"),
        "simnet.msgs_sent": c.get("msgs_sent", 0),
        "simnet.delivered": c.get("delivered", 0),
        "simnet.dropped": c.get("dropped", 0),
        "simnet.suppressed": c.get("suppressed", 0),
        "simnet.in_flight_end": c.get("in_flight_end", 0),
        "simnet.trace_rows": c.get("trace_rows", 0),
        "simnet.self_ms": self_ms["simnet"],
        "consensus.steps": tracer.count("consensus.EbrcReplica.step", "consensus.PbftReplica.step"),
        "consensus.view_changes": c.get("view_changes", 0),
        "consensus.self_ms": self_ms["consensus"],
        "election.calls": tracer.count("election.form_committee"),
        "election.retries": tracer.raised("election.form_committee"),
        "election.self_ms": self_ms["election"],
        "reputation.update_calls": tracer.count("reputation.update_behavior_table"),
        "reputation.self_ms": self_ms["reputation"],
        "djep.calls": tracer.layer_calls("djep"),
        "djep.stalled": c.get("stalled", 0),
        "djep.self_ms": self_ms["djep"],
        "runner.rounds": rounds,
        "runner.committed_ratio": c.get("committed_rounds", 0) / rounds if rounds else 0.0,
        "runner.init_ms": tracer.inclusive_ms("runner.ScenarioRunner.__init__"),
        "runner.self_ms": self_ms["runner"],
        "harness.report_ms": tracer.inclusive_ms(
            "harness.build_report", "harness.verify_consistency", "harness.compare_reports"
        ),
        "harness.serialize_ms": tracer.inclusive_ms(
            "harness.report_json", "harness.metrics_csv", "harness.trace_csv",
            "harness.MetricsReport.to_dict",
        ),
    }


# Per-layer metrics that are times; the rest are counts, identical on every
# traced pass of one seed.
TIMED_LAYER_METRICS = ("_ms", "overhead_ratio")


def traced_metrics(m: Measurement, probes, pairs: int):
    """Per-layer metrics from ``pairs`` untraced and traced passes in turn,
    and notes with the self time of each layer."""
    import spans

    untraced, traced, per_pass, self_ms = [], [], [], []
    for _ in range(pairs):
        untraced.append(m.run())
        signatures: set = set()
        tracer = spans.Tracer()
        tracer.hook("crypto.KeyRegistry.verify", lambda _r, _o, _p, sig: signatures.add(sig))
        traced.append(m.run(tracer))
        per_pass.append(layer_metrics(tracer, traced[-1], signatures))
        self_ms.append(tracer.self_ms())
    values = {}
    for key, first in per_pass[0].items():
        if key.endswith(TIMED_LAYER_METRICS):
            values[key] = statistics.median(p[key] for p in per_pass)
            continue
        values[key] = first
        if any(p[key] != first for p in per_pass):
            m.mismatches.append(f"layer counter {key} differs between traced passes")
    values["ebrc.import_ms"] = median_of(probes, "import_ms")
    values["config.load_ms"] = median_of(probes, "config_ms")
    traced_wall = statistics.median(p.wall_s for p in traced)
    values["trace.overhead_ratio"] = traced_wall / statistics.median(p.wall_s for p in untraced)

    spans_dir = ROOT / ".perfbench" / f"spans-{m.workload.name}"
    tracer.write(spans_dir)
    notes = [
        f"traced passes {len(traced)}, untraced passes {len(untraced)}",
        f"spans of the last traced pass in {spans_dir.relative_to(ROOT)}",
        "self time by layer, median of traced passes (share of traced wall time):",
    ]
    wall_ms = traced_wall * 1e3
    layer_ms = {layer: median_of(self_ms, layer) for layer in self_ms[0]}
    layer_ms["outside"] = wall_ms - sum(layer_ms.values())
    for layer, ms in layer_ms.items():
        notes.append(f"  {layer:<11} {ms:10.1f} ms {100 * ms / wall_ms:5.1f}%")
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}, notes


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_per_signature")):
        return "ratio"
    return "count"


def measure(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    import_ebrc()
    import workloads

    probes = [probe_setup(workload_name, seed) for _ in range(SETUP_REPEATS)]
    m = Measurement(workloads.build(workload_name, seed))
    if trace:
        pairs = pass_count(workload_name, seconds, TRACED_PAIR_PASSES)
        metrics, notes = traced_metrics(m, probes, pairs)
    else:
        passes = pass_count(workload_name, seconds)
        per_gap = math.ceil(KERNEL_SAMPLES / (passes + 1))
        kernel_s: List[float] = []
        time_kernel(kernel_s, per_gap)
        for _ in range(passes):
            m.run()
            time_kernel(kernel_s, per_gap)
        metrics, notes = timed_metrics(m, probes, kernel_s)
    for line in m.header_lines(seed) + notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({**m.summary(), "metrics": metrics}), flush=True)
    return 0


def measure_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so memory and set-up are its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(lines[-1])
        print()
    print(json.dumps(results), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return measure_all(args)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
