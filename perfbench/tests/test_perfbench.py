"""Tests of the benchmark harness itself.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import layers  # noqa: E402
import workloads  # noqa: E402


def references():
    with open(os.path.join(PERFBENCH, "references.json")) as fh:
        return json.load(fh)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture
def workload_args(tmp_path):
    """Constructor arguments for a workload with the counter hooks on."""
    ledger = layers.Ledger()
    restore = layers.install(ledger)

    def make(refs):
        return (1, refs, ledger, str(tmp_path), dict(os.environ))

    yield make
    restore()


def test_tampered_cell_digest_is_a_failure_not_a_crash(workload_args):
    refs = references()
    refs["cells"]["fmm/baseline/16/1"] = "0" * 64
    result = workloads.Cells(*workload_args(refs)).round()
    assert result.units == 5
    assert result.failed == 1


def test_tampered_exploration_digest_fails_its_schedules(workload_args):
    refs = references()
    refs["check"]["radix/thrifty/8/1"] = "0" * 64
    result = workloads.Check(*workload_args(refs)).round()
    assert result.failed == workloads.CHECK_SCHEDULES
    assert result.units == 6 * workloads.CHECK_SCHEDULES


def test_matching_digests_pass_and_counts_are_read(workload_args):
    result = workloads.Cells(*workload_args(references())).round()
    assert result.failed == 0
    assert result.counts["workloads.runs"] == 5
    assert result.events == sum(
        result.counts[k] for k in ("sim.events", "sim.cancelled")) > 0


def test_resume_wrapper_charges_only_running_time():
    ledger = layers.Ledger()

    def body():
        time.sleep(0.02)
        received = yield 1
        time.sleep(0.02)
        try:
            yield received
        except KeyError:
            time.sleep(0.02)
        return "done"

    gen = layers._resumes(body(), "coherence", ledger.enter, ledger.leave)
    assert next(gen) == 1
    time.sleep(0.05)  # simulated waiting: nothing is on the stack
    assert gen.send("x") == "x"
    time.sleep(0.05)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("forwarded"))
    assert stop.value.value == "done"
    snap = ledger.snapshot()
    assert 0.055 <= snap["self_ns"]["coherence"] / 1e9 < 0.09
    assert snap["self_ns"][layers.ROOT] / 1e9 >= 0.1


def test_nested_spans_report_self_time():
    ledger = layers.Ledger()
    inner = layers._timed_call(lambda: time.sleep(0.03), "energy", ledger)

    def outer():
        time.sleep(0.02)
        inner()

    layers._timed_call(outer, "sync", ledger)()
    self_ns = ledger.snapshot()["self_ns"]
    assert 0.02 <= self_ns["sync"] / 1e9 < 0.03
    assert 0.03 <= self_ns["energy"] / 1e9 < 0.04


def test_forked_children_flush_only_their_own_totals(tmp_path):
    ledger = layers.Ledger()
    ledger.flush_dir = str(tmp_path)
    ledger.counts["sim.events"] = 7
    pid = os.fork()
    if pid == 0:
        ledger.adopt()
        ledger.counts["sim.events"] += 3
        ledger.flush()
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    flushed = layers.read_flushed(str(tmp_path))
    assert [snap["counts"] for snap in flushed] == [{"sim.events": 3}]
    _, counts = layers.merge(flushed + [ledger.snapshot()])
    assert counts["sim.events"] == 10


def test_traced_run_reports_every_layer_metric_with_identical_outputs():
    done = run_benchmark(
        "--workload", "cells", "--seed", "2", "--seconds", "1",
        "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["sim.events"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    done = run_benchmark(
        "--workload", "check", "--seed", "5", "--seconds", "1",
        "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    names = [m["name"] for m in benchmark_spec()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(PERFBENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(
        "--workload", "cells", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
