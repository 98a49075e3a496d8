#!/usr/bin/env python3
"""Checkpoint/restart benchmark of the BlobCR reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload blobcr-cycle --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``): ``blobcr-cycle``, ``qcow2-cycle`` and
``dedup-cycle``.  Each is a seeded stream of
``deploy`` / ``guest_write`` / ``checkpoint`` / ``restart`` / ``guest_read``
calls on ``repro.api.Session``, issued by one closed-loop client; every
read-back is checked byte for byte.

Every measurement runs in a fresh interpreter (``perfbench/worker.py``) with
BLAS/OpenMP pinned to one thread:

* ``--trace 0`` times set-up (the median of several fresh processes that
  import the package and build the ``Session``), then runs the stream once
  and reports the end-to-end metrics: host times, peak memory, simulated
  times and repository storage.
* ``--trace 1`` runs the stream untraced and then traced
  (``perfbench/ledger.py``), checks that simulated results, counters and
  outcomes are identical, and reports the per-layer metrics plus
  ``trace.overhead_s``.

Every host time reported -- in both modes -- is scaled to a nominal host
speed by a reference sampled while the stream runs, each call by the
samples taken during and around it (``perfbench/reference.py`` says why).  A table
goes to stdout, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The full record -- raw samples, reference samples, failures,
Python, numpy, ``nproc`` and ``calibration_spin()`` -- is written under
``.perfbench/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from ledger import LAYERS
from reference import NOMINAL_S, local_factors
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

#: fresh processes timed for ``setup_s``
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150
#: end-to-end percentile metrics: (name, operation kind, percentile)
PERCENTILES = (
    ("write_host_p50_ms", "write", 50),
    ("ckpt_host_p50_ms", "checkpoint", 50),
    ("ckpt_host_p90_ms", "checkpoint", 90),
    ("restart_host_p50_ms", "restart", 50),
    ("read_host_p50_ms", "read", 50),
    ("read_host_p95_ms", "read", 95),
)
#: ledger counts reported per layer (missing ones read 0)
LAYER_COUNTS = (
    ("cluster.transfers", "count"), ("cluster.messages", "count"),
    ("blobseer.write_batches", "count"), ("blobseer.chunks_placed", "count"),
    ("blobseer.chunks_fetched", "count"), ("blobseer.bytes_written", "B"),
    ("dedup.ingests", "count"),
    ("vdisk.reads", "count"), ("vdisk.writes", "count"), ("vdisk.qcow2_writes", "count"),
    ("guest.files_written", "count"), ("guest.files_read", "count"),
    ("core.commits", "count"), ("core.clones", "count"), ("core.remote_bytes_fetched", "B"),
    ("util.bytesource.slices", "count"), ("util.bytesource.concats", "count"),
    ("util.bytesource.bytes_materialised", "B"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, WORKER] + args, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen, what: str) -> str:
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{what} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return out


def time_setup(common: list, env: dict) -> list:
    """Per fresh process: (seconds from its start to a ready ``Session``,
    less its reference sampling; the median reference sample it took)."""
    probes = []
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        proc = _child(common + ["--setup-only"], env)
        line = proc.stdout.readline().split()
        ready = time.perf_counter() - started
        _finish(proc, "set-up probe")
        if len(line) != 3 or line[0] != "ready":
            raise RuntimeError("set-up probe did not report ready")
        probes.append((ready - float(line[1]), float(line[2])))
    return probes


def scaled_ms(record: dict) -> dict:
    """The record's call times, each scaled by the host speed around its start."""
    samples = [tuple(pair) for pair in record["reference_s"]]
    return {kind: [ms * k for ms, k in zip(times, local_factors(record["host_at"][kind], times,
                                                               samples))]
            for kind, times in record["host_ms"].items()}


def scaled_wall_s(record: dict) -> float:
    return sum(sum(times) for times in scaled_ms(record).values()) / 1e3


def run_scale(record: dict) -> float:
    """One factor for the whole run, taking host times to a host where the
    reference takes NOMINAL_S: NOMINAL_S over the median reference sample."""
    return NOMINAL_S / statistics.median(seconds for _, seconds in record["reference_s"])


def run_worker(common: list, env: dict, spans: str = "") -> dict:
    """One pass of the stream; traced, with its spans written to ``spans``,
    when ``spans`` is given."""
    args = common + (["--trace", "1", "--spans", spans] if spans else ["--trace", "0"])
    out = _finish(_child(args, env), "traced run" if spans else "run")
    return json.loads(out.strip().splitlines()[-1])


def pct(values: list, q: float) -> float:
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(record: dict, setup: list) -> tuple:
    """(metrics, sample counts) of one untraced record; host times scaled."""
    host, sim = scaled_ms(record), record["sim"]
    metrics = {
        "setup_s": (statistics.median(s * NOMINAL_S / r for s, r in setup), "s"),
        "wall_s": (sum(sum(times) for times in host.values()) / 1e3, "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "deploy_host_s": (statistics.median(host["deploy"]) / 1e3, "s"),
    }
    counts = {"setup_s": len(setup), "deploy_host_s": len(host["deploy"])}
    for name, kind, q in PERCENTILES:
        metrics[name] = (pct(host[kind], q), "ms")
        counts[name] = len(host[kind])
    metrics["sim_deploy_s"] = (statistics.median(sim["deploy"]), "s")
    metrics["sim_ckpt_p50_s"] = (statistics.median(sim["checkpoint"]), "s")
    metrics["sim_restart_p50_s"] = (statistics.median(sim["restart"]), "s")
    metrics["stored_mb"] = (record["stored_bytes"] / 1e6, "MB")
    return metrics, counts


def per_layer(plain: dict, traced: dict) -> dict:
    layers, counters = traced["layers"], traced["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    k = run_scale(traced)
    overhead = scaled_wall_s(traced) - scaled_wall_s(plain)
    metrics = {"trace.overhead_s": (overhead, "s")}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers["self_s"].get(layer, 0.0) * k, "s")
        metrics[f"{layer}.errors"] = (layers["errors"].get(layer, 0), "count")
    metrics["sim.events"] = (counters["events_popped"], "count")
    metrics["sim.resource_waits"] = (counters["resource_waits"], "count")
    metrics["sim.bandwidth.flows"] = (counters["bw_flows_started"], "count")
    metrics["sim.bandwidth.settles"] = (counters["bw_settles"], "count")
    metrics["sim.bandwidth.component_flows_mean"] = (
        ratio(counters["bw_component_flows"], counters["bw_components"]), "count")
    metrics["sim.bandwidth.batch_flows_mean"] = (
        ratio(counters["bw_batch_flows"], counters["bw_batches"]), "count")
    metrics["sim.bandwidth.array_full_rebuilds"] = (counters["bw_array_full_rebuilds"], "count")
    for name, unit in LAYER_COUNTS:
        metrics[name] = (layers["counts"].get(name, 0), unit)
    metrics["dedup.hit_ratio"] = (
        ratio(layers["counts"].get("dedup.hits", 0), layers["counts"].get("dedup.ingests", 0)),
        "ratio")
    metrics["core.rollback_stale_reads"] = (traced["rollback_stale_reads"], "count")
    return metrics


#: what must not change when tracing is switched on
IDENTICAL = ("op_counts", "attempted", "failed", "failures", "sim", "stored_bytes", "counters")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few-second version of the workload (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])
    tag = "-".join([args.workload, str(args.seed), f"trace{args.trace}"]
                   + (["tiny"] if args.tiny else []))

    try:
        if args.trace:
            plain = run_worker(common, env)
            traced = run_worker(common, env, spans=os.path.join(OUT, f"spans-{tag}.json"))
            metrics, counts = per_layer(plain, traced), {}
            changed = [key for key in IDENTICAL if plain[key] != traced[key]]
            full = {"untraced": plain, "traced": traced, "changed_by_tracing": changed}
        else:
            setup = time_setup(common, env)
            plain = run_worker(common, env)
            metrics, counts = end_to_end(plain, setup)
            changed = []
            full = {"run": plain, "setup_s_and_reference_s": setup}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(full, handle, indent=1)

    for index, kind, reason in plain["failures"]:
        print(f"failed op {index} ({kind}): {reason}", file=sys.stderr)
    for key in changed:
        print(f"tracing changed {key}", file=sys.stderr)
    if plain["rollback_stale_reads"]:
        print("known defect: restarting from a checkpoint taken after a rollback "
              "reads stale bytes (core.rollback_stale_reads)", file=sys.stderr)

    envinfo = plain["environment"]
    print(f"# {args.workload} seed={args.seed} segments={plain['segments']} "
          f"ops={plain['op_counts']} python={envinfo['python']} numpy={envinfo['numpy']} "
          f"nproc={envinfo['nproc']} calibration_spin={envinfo['calibration_spin_s']:.4f}s "
          f"host-time scale={run_scale(plain):.4f} "
          f"(reference median {NOMINAL_S / run_scale(plain) * 1e3:.2f} ms)")
    for name, (value, unit) in metrics.items():
        n = f"  n={counts[name]}" if name in counts else ""
        print(f"{name:40s} {value:>16.6g} {unit}{n}")

    print(json.dumps({
        "correct": plain["failed"] == 0 and not changed,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
