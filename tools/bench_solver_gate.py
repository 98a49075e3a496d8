#!/usr/bin/env python
"""CI gate for the bandwidth solver on a paper-scale cell.

Runs the paper-scale cell ``scale:BlobCR-app:512`` in-process five times
and compares it against a committed record of the same cell
(``benchmarks/solver_gate.json``).  Solver seconds and the spin calibration
are each the best of the repeats: interference from other processes only
ever slows a run down, so the minimum is the stable estimate.  The gate
fails if:

* any row differs from the recorded rows (the solver must never change a
  result),
* any ``bw_*`` work counter exceeds its recorded value (the counters are
  deterministic, so growth is an algorithmic regression, never noise), or
* the wall-clock seconds spent inside the solver entry points
  (:func:`repro.sim.bandwidth.solver_wall_seconds`), scaled to the record's
  machine by the spin-calibration ratio, exceed the recorded seconds by
  more than ``DEFAULT_MAX_REGRESSION`` (20 %).  There is no absolute slack:
  on a solver path of a few seconds, the benchmark gate's 2 s slack would
  let it nearly double.

Rows are compared with :func:`repro.runner.regression.check_determinism`
and machine speed with :func:`repro.runner.regression.calibration_scale`;
the cell is selected through the CLI's :func:`repro.cli.resolve_run_inputs`
pipeline, exactly as ``blobcr-repro run --cells`` would select it.  Typical
CI use::

    python tools/bench_solver_gate.py --out bench-solver-gate.json

After an intended change to the solver's work or speed, regenerate the
record on an idle machine and commit it::

    python tools/bench_solver_gate.py --write-record
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

RECORD = Path(__file__).resolve().parent.parent / "benchmarks" / "solver_gate.json"
CELL = "scale:BlobCR-app:512"
REPEAT = 5


def run_cell() -> dict:
    """Run the cell in-process; return rows, counters and timing.

    Rows and counters are deterministic, so those of the last repeat stand
    for all of them; wall and solver seconds and the spin calibration are
    the best of the repeats.
    """
    from repro.cli import resolve_run_inputs
    from repro.runner import ParallelRunner, load_all
    from repro.runner.artifact import calibration_spin
    from repro.sim.bandwidth import solver_wall_reset, solver_wall_seconds
    from repro.sim.instrumentation import counters_reset, counters_snapshot

    experiments, selectors, config = resolve_run_inputs(
        load_all(), [], [CELL], [], paper_scale=True
    )
    wall = solver = spin = float("inf")
    for _ in range(REPEAT):
        counters_reset()
        solver_wall_reset()
        started = time.perf_counter()
        report = ParallelRunner(workers=1).run(experiments, config, selectors)
        wall = min(wall, time.perf_counter() - started)
        solver = min(solver, solver_wall_seconds())
        spin = min(spin, calibration_spin())
    counters = counters_snapshot().as_dict()
    return {
        "schema": "blobcr-repro/solver-gate",
        "cell": CELL,
        "repeat": REPEAT,
        "calibration": {"spin_time_s": spin},
        "wall_seconds": wall,
        "solver_seconds": solver,
        "counters": {name: value for name, value in counters.items() if name.startswith("bw_")},
        "experiments": {result.experiment: {"rows": result.rows} for result in report.results},
    }


def check(record: dict, result: dict) -> list:
    """Every failure of ``result`` against ``record``, as messages."""
    from repro.runner.regression import (
        DEFAULT_MAX_REGRESSION,
        calibration_scale,
        check_determinism,
    )

    rows = check_determinism(record, result)
    print("\n".join(f"[solver-gate] rows {line.strip()}" for line in rows.lines))
    failures = list(rows.failures)
    for name in sorted(set(record["counters"]) | set(result["counters"])):
        recorded = record["counters"].get(name, 0)
        measured = result["counters"].get(name, 0)
        if measured > recorded:
            failures.append(f"counter {name} grew: {measured} > recorded {recorded}")
    scale = calibration_scale(record, result)
    allowed = record["solver_seconds"] * scale * (1.0 + DEFAULT_MAX_REGRESSION)
    print(
        f"[solver-gate] solver seconds {result['solver_seconds']:.3f}s vs recorded "
        f"{record['solver_seconds']:.3f}s, calibration scale {scale:.3f}x "
        f"(allowed {allowed:.3f}s, calibrated ratio "
        f"{result['solver_seconds'] / (record['solver_seconds'] * scale):.3f})"
    )
    if result["solver_seconds"] > allowed:
        failures.append(
            f"solver seconds {result['solver_seconds']:.3f}s exceed the calibrated "
            f"allowance {allowed:.3f}s (recorded {record['solver_seconds']:.3f}s, "
            f"threshold {DEFAULT_MAX_REGRESSION:.0%}, no slack)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write this run's document to PATH")
    parser.add_argument(
        "--write-record",
        action="store_true",
        help=f"record this run as the new reference in {RECORD} instead of gating",
    )
    args = parser.parse_args(argv)

    print(f"[solver-gate] cell={CELL}", flush=True)
    result = run_cell()
    print(
        f"[solver-gate] wall={result['wall_seconds']:.2f}s "
        f"solver={result['solver_seconds']:.3f}s "
        f"spin={result['calibration']['spin_time_s']:.4f}s",
        flush=True,
    )
    for path in (args.out, RECORD if args.write_record else None):
        if path:
            with open(path, "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"[solver-gate] wrote {path}")
    if args.write_record:
        return 0

    with open(RECORD) as fh:
        record = json.load(fh)
    failures = check(record, result)
    for failure in failures:
        print(f"[solver-gate] FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("[solver-gate] OK: rows identical, no counter grew, solver time within bound")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
