"""Tests of the benchmark itself.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_ebrc()

import spans  # noqa: E402
import workloads  # noqa: E402

DETERMINISTIC_COUNTERS = ("simnet.msgs_sent", "simnet.events", "crypto.digest_calls", "consensus.steps")


def _small_sweep() -> workloads.Workload:
    workload = workloads.build("sweep", 3)
    workload.ops = workload.ops[:8]  # both protocols at n = 4 and 7, clean and Byzantine
    return workload


def _traced_pass(workload: workloads.Workload):
    signatures: set = set()
    tracer = spans.Tracer()
    tracer.hook("crypto.KeyRegistry.verify", lambda _r, _o, _p, sig: signatures.add(sig))
    with tracer:
        result = workloads.run_pass(workload)
    return result, run.layer_metrics(tracer, result, signatures)


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith(run.TIMED_LAYER_METRICS)}


def test_same_seed_runs_give_identical_counters_and_outputs():
    first, first_layers = _traced_pass(_small_sweep())
    second, second_layers = _traced_pass(_small_sweep())
    untraced = workloads.run_pass(_small_sweep())

    assert first.outputs_sha256 == second.outputs_sha256 == untraced.outputs_sha256
    assert first.counters == second.counters == untraced.counters
    assert _counts(first_layers) == _counts(second_layers)
    for key in DETERMINISTIC_COUNTERS:
        assert first_layers[key] > 0, key
    assert not first.failed


def test_tracer_restores_every_wrapped_name():
    import ebrc.crypto
    import ebrc.simnet

    digest, step_one = ebrc.simnet.digest, ebrc.simnet.Simulation.step_one
    with spans.Tracer():
        assert ebrc.simnet.digest is not digest
        assert ebrc.simnet.Simulation.step_one is not step_one
    assert ebrc.simnet.digest is digest is ebrc.crypto.digest
    assert ebrc.simnet.Simulation.step_one is step_one


def test_raising_op_is_counted_timed_and_reported():
    def boom() -> workloads.OpResult:
        raise RuntimeError("synthetic failure")

    workload = workloads.Workload(
        "synthetic",
        [
            workloads.Op("ok", lambda: workloads.OpResult("ok", outputs=["fine"])),
            workloads.Op("boom", boom),
        ],
    )
    measurement = run.Measurement(workload)
    measurement.run()
    measurement.run()

    assert measurement.summary() == {"correct": True, "attempted": 4, "failed": 2}
    last = measurement.passes[-1]
    assert [op.name for op in last.failed] == ["boom"]
    assert last.ops[1].wall_s > 0
    assert workloads.failure_lines(last) == ["FAILED boom: raised RuntimeError: synthetic failure"]


def test_outputs_that_change_between_passes_are_incorrect():
    outputs = iter(["a", "b"])
    workload = workloads.Workload(
        "unsteady", [workloads.Op("op", lambda: workloads.OpResult("op", outputs=[next(outputs)]))]
    )
    measurement = run.Measurement(workload)
    measurement.run()
    measurement.run()
    assert measurement.summary()["correct"] is False
    assert measurement.mismatches


def test_fault_drop_runs_are_the_same_at_every_seed():
    def drop_ops(seed):
        ops = workloads.build("faults", seed).ops
        return [op.name for op in ops if op.name.startswith("drop5_")]

    assert drop_ops(3) == drop_ops(11)
    assert [name.split("@")[1] for name in drop_ops(3)] == ["1", "1", "2", "2"]


def test_times_are_divided_by_the_host_slowdown():
    workload = workloads.Workload(
        "synthetic", [workloads.Op("ok", lambda: workloads.OpResult("ok", units=1000))]
    )
    measurement = run.Measurement(workload)
    measurement.run()
    op = measurement.passes[0].ops[0]
    op.wall_s, op.cpu_s = 0.4, 0.3
    measurement.passes[0].finish_wall_s = measurement.passes[0].finish_cpu_s = 0.0
    probes = [{"setup_s": 1.0}]
    slow = [2 * run.KERNEL_REFERENCE_S] * 3

    metrics, _ = run.timed_metrics(measurement, probes, slow)

    assert metrics["wall_s"]["value"] == 0.2
    assert metrics["cpu_s"]["value"] == 0.15
    assert metrics["setup_s"]["value"] == 0.5
    assert metrics["run_ms_p50"]["value"] == 200.0
    assert metrics["us_per_msg"]["value"] == 150.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_result_line_holds_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fairness", "--seed", "2",
             "--seconds", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
