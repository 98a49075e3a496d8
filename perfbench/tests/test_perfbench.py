"""Smoke tests of the benchmark itself.

Not part of the repository's test suite (pytest's ``testpaths`` does not
list this directory); run them with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import reference as R
import workloads as W
from ledger import Ledger

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(BENCH, "run.py")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=os.path.dirname(BENCH),
        capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> list:
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)[kind]]


# -- the seed contract ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_stream_is_a_pure_function_of_the_seed(name):
    workload = W.WORKLOADS[name]
    first = W.build_stream(workload, 7, 2)
    assert first == W.build_stream(workload, 7, 2)
    other = W.build_stream(workload, 8, 2)
    assert other != first
    assert W.op_counts(other) == W.op_counts(first)


def test_rollback_reads_expect_the_rolled_back_content():
    ops = W.build_stream(W.WORKLOADS["blobcr-cycle"], 3, 1)
    restarts = [i for i, op in enumerate(ops) if op.kind == "restart"]
    checkpoints_before = sum(op.kind == "checkpoint" for op in ops[: restarts[0]])
    # a seeded earlier checkpoint, then back to the latest before continuing
    assert ops[restarts[0]].target < checkpoints_before - 1
    assert ops[restarts[1]].target == checkpoints_before - 1
    # the segment ends with a recovery from its latest checkpoint
    assert ops[restarts[-1]].target == W.WORKLOADS["blobcr-cycle"].rounds


def test_segments_run_in_fresh_sessions_with_spread_extra_deploys():
    workload = W.WORKLOADS["blobcr-cycle"]
    ops = W.build_stream(workload, 3, 2)
    deploys = [i for i, op in enumerate(ops) if op.kind == "deploy"]
    targets = [-1] * (workload.deploys - 1)
    assert [ops[i].target for i in deploys] == [0] + targets + [1] + targets
    assert W.op_counts(ops)["checkpoint"] == 2 * (workload.rounds + 1)
    gaps = [b - a for a, b in zip(deploys[1:6], deploys[2:6])]
    assert max(gaps) - min(gaps) < max(gaps) / 4


# -- tiny end-to-end runs ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = _result(_run("--workload", name, "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_and_changes_nothing(name):
    result = _result(_run("--workload", name, "--seed", "2", "--seconds", "1",
                          "--trace", "1", "--tiny"))
    assert result["correct"] is True  # includes "tracing changed nothing"
    metrics = result["metrics"]
    assert list(metrics) == _declared("per_layer")
    ingests = metrics["dedup.ingests"]["value"]
    assert (ingests > 0) == (name == "dedup-cycle")
    if W.WORKLOADS[name].backend.startswith("qcow2"):
        assert metrics["blobseer.write_batches"]["value"] == 0
        assert metrics["blobseer.self_s"]["value"] == 0


def test_run_fails_without_the_package(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), copy)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "blobcr-cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- host-speed scaling --------------------------------------------------------------------


def test_each_call_is_scaled_by_the_samples_around_it():
    nominal = R.NOMINAL_S
    # the host is twice as slow from t=1 s on
    samples = [(0.0, nominal), (0.5, nominal), (1.0, 2 * nominal), (1.5, 2 * nominal)]
    # a call before the slow spell, one inside it, one straddling both (four
    # samples: the median of 1 and 2 is 1.5) and one far past the last sample
    at, ms = [0.2, 1.4, 0.0, 9.0], [10.0, 10.0, 1500.0, 10.0]
    factors = R.local_factors(at, ms, samples, window=0.1)
    assert factors == pytest.approx([1.0, 0.5, 1 / 1.5, 0.5])


# -- attribution ---------------------------------------------------------------------------


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Outer:
    def run(self, inner):
        _spin(0.02)
        inner.work()
        inner.work()
        return 1


class _Inner:
    def work(self):
        _spin(0.03)


class _Gen:
    def steps(self):
        _spin(0.01)
        yield 1
        _spin(0.01)
        return 2


def test_nested_calls_are_not_counted_twice():
    ledger = Ledger()
    originals = (_Outer.__dict__["run"], _Inner.__dict__["work"])
    ledger._patch(_Outer, "run", "outer", root=True)
    ledger._patch(_Inner, "work", "inner")
    t0 = time.perf_counter()
    with ledger.operation(0):
        _Outer().run(_Inner())
    wall = time.perf_counter() - t0
    ledger.detach()

    assert 0.06 <= ledger.self_s["inner"] < 0.06 + 0.015
    assert 0.02 <= ledger.self_s["outer"] < 0.02 + 0.015
    assert sum(ledger.self_s.values()) <= wall
    names = [span[0] for span in ledger.spans]
    assert names == ["outer:_Outer.run", "inner:_Inner.work", "inner:_Inner.work"]
    assert [span[3] for span in ledger.spans] == [-1, 0, 0]
    assert {span[4] for span in ledger.spans} == {0}
    assert (_Outer.__dict__["run"], _Inner.__dict__["work"]) == originals


def test_generator_resumptions_are_timed_not_the_call():
    ledger = Ledger()
    ledger._patch(_Gen, "steps", "gen")
    ledger.push("api", "root")
    try:
        gen = _Gen().steps()
        _spin(0.02)  # the generator exists but has not run: not its time
        assert next(gen) == 1
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
    finally:
        ledger.pop()
        ledger.detach()
    assert stop.value.value == 2
    assert 0.02 <= ledger.self_s["gen"] < 0.02 + 0.015
    assert ledger.self_s["api"] >= 0.02
    assert len(ledger.spans) == 3  # the root and one span per resumption


def test_traced_workload_attribution_and_detach():
    from repro.api import Session
    from repro.sim.core import Environment
    from repro.util import bytesource

    workload = W.tiny(W.WORKLOADS["blobcr-cycle"])
    before = (Session.__dict__["checkpoint"], Environment.__dict__["step"],
              bytesource.concat)
    ops = W.build_stream(workload, 5, 2)
    ledger = Ledger()
    ledger.attach()
    assert ledger.patched > 20
    try:
        result = W.run_stream(workload, 5, ops, ledger)
    finally:
        ledger.detach()
    assert ledger.patched == 0
    assert (Session.__dict__["checkpoint"], Environment.__dict__["step"],
            bytesource.concat) == before
    wall = sum(sum(v) for v in result.host_ms.values()) / 1e3
    assert result.failed == 0
    assert 0 < sum(ledger.self_s.values()) <= wall
    # every span belongs to an operation and ends after it starts
    assert all(span[4] >= 0 and span[2] >= span[1] for span in ledger.spans)


# -- the known rollback defect -------------------------------------------------------------


def test_qcow2_rollback_then_continue_reads_the_rolled_back_content():
    assert W.defect_probe("qcow2-disk") == 0


@pytest.mark.xfail(
    strict=True,
    reason="BlobCR restarts reuse the checkpoint blob without a fresh CLONE, so "
    "commits after a rollback land on top of the abandoned line of checkpoints",
)
def test_rollback_then_continue_defect():
    assert W.defect_probe("blobcr") == 0
