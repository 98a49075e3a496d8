"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-only`` it builds the workload's ``Session`` while sampling the
host-speed reference, and prints ``ready``, the seconds the samples took
and their median (the parent times the whole process up to that line).
Otherwise it runs the workload's stream once -- traced when ``--trace 1``
-- and prints one JSON record of raw samples as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import workloads as W
from reference import Sampler


def measure(workload: W.Workload, seed: int, segments: int, traced: bool, spans_path: str = ""):
    """Run the stream once; return the record ``run.py`` aggregates."""
    from repro.core.backends import load_builtin_backends
    from repro.sim.bandwidth import solver_wall_reset
    from repro.sim.instrumentation import counters_reset, counters_snapshot

    load_builtin_backends()  # not inside the first timed deploy
    ops = W.build_stream(workload, seed, segments)
    counters_reset()
    solver_wall_reset()
    ledger = None
    if traced:
        from ledger import Ledger

        ledger = Ledger()
        ledger.attach()
    try:
        result = W.run_stream(workload, seed, ops, ledger)
    finally:
        if ledger is not None:
            ledger.detach()
    counters = counters_snapshot().as_dict()
    record = {
        "workload": workload.name,
        "seed": seed,
        "segments": segments,
        "op_counts": W.op_counts(ops),
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": [list(f) for f in result.failures],
        "host_ms": result.host_ms,
        "host_at": result.host_at,
        "reference_s": result.reference_s,
        "wall_s": sum(sum(v) for v in result.host_ms.values()) / 1e3,
        "sim": result.sim,
        "stored_bytes": result.stored_bytes,
        "counters": counters,
    }
    if ledger is not None:
        record["layers"] = {
            "self_s": dict(ledger.self_s),
            "errors": dict(ledger.errors),
            "counts": dict(ledger.counts),
        }
        if spans_path:
            with open(spans_path, "w") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": ledger.spans}, handle)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def environment() -> dict:
    import numpy

    from repro.runner.artifact import calibration_spin

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_spin_s": calibration_spin(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    workload = W.WORKLOADS[args.workload]
    if args.tiny:
        workload = W.tiny(workload)
    if args.setup_only:
        from repro.core.backends import load_builtin_backends

        with Sampler() as sampler:
            load_builtin_backends()
            W.make_session(workload, args.seed)
        median = statistics.median(seconds for _, seconds in sampler.samples)
        print("ready", sampler.spent, median, flush=True)
        return 0

    record = measure(workload, args.seed, W.segments_for(args.seconds), bool(args.trace),
                     args.spans)
    # untimed: the known rollback defect, on this workload's backend
    record["rollback_stale_reads"] = W.defect_probe(workload.backend, workload.dedup)
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
