"""Seeded checkpoint/restart workloads driven through ``repro.api.Session``.

A workload is a fixed operation stream -- ``deploy``, ``guest_write``,
``checkpoint``, ``restart`` and ``guest_read`` -- generated from
``(workload, seed, rounds)`` alone.  :func:`build_stream` makes the stream
and the expected content of every read; :func:`run_stream` issues it as a
single closed-loop client (each call is made when the previous one returns)
and times every call on the host clock.

Every read-back is compared byte for byte with the content the stream
wrote, outside the timed interval.  A mismatch or an exception is a failed
operation.

Rollback events restart every instance from a seeded *earlier* checkpoint,
read a sample of files back, then restart from the latest checkpoint before
the stream continues.  Continuing to write on top of an earlier checkpoint
is not part of the timed stream: BlobCR currently commits such writes onto
the abandoned line of checkpoints (see ``defect_probe`` and
``tests/test_perfbench.py::test_rollback_then_continue_defect``), so a stream
that did so would measure a broken path.
"""

from __future__ import annotations

import gc
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Sequence, Tuple

from reference import Sampler

#: guest file size: not a multiple of the 256 KiB stripe or the 64 KiB
#: cluster, so writes straddle block edges
FILE_SIZE = 1_300_000
#: instances, and files on each, read back after a restart
SAMPLE_INSTANCES = SAMPLE_FILES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    instances: int
    #: files each instance keeps under /ckpt
    files: int
    #: rounds of rewrite + checkpoint in each segment
    rounds: int
    #: files rewritten per instance per round
    rewrites: int = 2
    #: deploys timed per segment; all but the first are throwaway deployments
    #: in fresh sessions, spread evenly over the segment's rounds
    deploys: int = 1
    #: repository dedup on, and half of every payload shared by all instances
    dedup: bool = False


#: a run has ``round(SEGMENTS_PER_SECOND * seconds)`` segments (at least
#: one), each in a fresh session: every operation kind is sampled across the
#: whole run and memory stays bounded
SEGMENTS_PER_SECOND = 0.1
#: every this many rounds the stream restarts from a seeded earlier
#: checkpoint, reads a sample back, then restarts from the latest
ROLLBACK_EVERY = 5

#: sized for 15-30 s of host time in two segments, with at least 100
#: checkpoints in a cycle workload: enough for a p90 with ten samples beyond
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("blobcr-cycle", "blobcr", instances=24, files=16, rounds=56, deploys=6),
        Workload("qcow2-cycle", "qcow2-disk", instances=24, files=16, rounds=56, deploys=6),
        # fingerprinting makes every checkpoint ~5x dearer: one rewrite a round
        Workload("dedup-cycle", "blobcr", instances=8, files=8, rounds=52, rewrites=1,
                 deploys=3, dedup=True),
    )
}


def tiny(workload: Workload) -> Workload:
    """A few-second version of ``workload`` with the same shape."""
    return replace(
        workload,
        instances=min(workload.instances, 8),
        files=min(workload.files, 4),
        rounds=ROLLBACK_EVERY,
        deploys=min(workload.deploys, 2),
    )


# -- the operation stream ------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    kind: str  # deploy | write | checkpoint | restart | read
    instance: int = -1
    path: str = ""
    #: payload key of a write; expected payload key of a read
    key: Tuple = ()
    #: restart target, as an index into the checkpoints taken so far
    target: int = -1


def payload(workload: Workload, key: Tuple):
    """The ``ByteSource`` written for ``key`` (a pure function of the key)."""
    from repro.util.bytesource import SyntheticBytes, concat

    if not workload.dedup:
        return SyntheticBytes(("perfbench",) + key, FILE_SIZE)
    shared = FILE_SIZE // 2
    # key = (seed, instance, path, version): the shared half drops the
    # instance, so every instance writes the same bytes there
    seed, _instance, path, version = key
    return concat([
        SyntheticBytes(("perfbench-shared", seed, path, version), shared),
        SyntheticBytes(("perfbench",) + key, FILE_SIZE - shared),
    ])


def segments_for(seconds: float) -> int:
    return max(1, int(round(SEGMENTS_PER_SECOND * seconds)))


def build_stream(workload: Workload, seed: int, segments: int) -> List[Op]:
    """The whole operation stream, a pure function of its arguments.

    A deploy's ``target`` names its session: 0, 1, ... for the stream's
    sessions (one per segment), -1 for a throwaway deployment.
    """
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    paths = [f"/ckpt/file-{j:02d}.dat" for j in range(workload.files)]
    current: Dict[Tuple[int, str], Tuple] = {}
    versions: Dict[Tuple[int, str], int] = {}
    snapshots: List[Dict[Tuple[int, str], Tuple]] = []
    ops: List[Op] = []

    def write(instance: int, path: str) -> None:
        version = versions.get((instance, path), -1) + 1
        versions[(instance, path)] = version
        key = (seed, instance, path, version)
        current[(instance, path)] = key
        ops.append(Op("write", instance, path, key))

    def checkpoint() -> None:
        snapshots.append(dict(current))
        ops.append(Op("checkpoint"))

    def restart_and_read(target: int) -> None:
        ops.append(Op("restart", target=target))
        for instance in sorted(rng.sample(range(workload.instances), SAMPLE_INSTANCES)):
            for path in rng.sample(paths, SAMPLE_FILES):
                ops.append(Op("read", instance, path, snapshots[target][(instance, path)]))

    extra_deploys = {1 + k * workload.rounds // workload.deploys
                     for k in range(1, workload.deploys)}
    for segment in range(segments):
        current.clear()
        snapshots.clear()
        ops.append(Op("deploy", target=segment))
        for instance in range(workload.instances):
            for path in paths:
                write(instance, path)
        checkpoint()
        for round_no in range(1, workload.rounds + 1):
            if round_no in extra_deploys:
                ops.append(Op("deploy", target=-1))
            for instance in range(workload.instances):
                for path in rng.sample(paths, workload.rewrites):
                    write(instance, path)
            checkpoint()
            if round_no % ROLLBACK_EVERY == 0:
                latest = len(snapshots) - 1
                restart_and_read(rng.randrange(latest))
                ops.append(Op("restart", target=latest))
        # a failure at the end of the segment: recover from the latest checkpoint
        restart_and_read(len(snapshots) - 1)
    return ops


def op_counts(ops: Sequence[Op]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for op in ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    return counts


# -- running it ----------------------------------------------------------------------------


def make_session(workload: Workload, seed: int):
    """A fresh ``Session`` over the workload's cluster (no deployment yet)."""
    from repro.api import GRAPHENE, Session

    # the cluster's jitter seed is an input too, so simulated times vary
    # (slightly) with --seed as the payloads do
    spec = GRAPHENE.scaled(seed=GRAPHENE.seed + seed)
    if workload.dedup:
        spec = with_dedup(spec)
    session = Session.from_spec(spec)
    session.cloud  # build the cloud now, so set-up time is not charged to deploy
    return session


def with_dedup(spec):
    """``spec`` with the repository's content-addressed dedup layer on."""
    blobseer = replace(spec.blobseer, dedup=replace(spec.blobseer.dedup, enabled=True))
    return spec.scaled(blobseer=blobseer)


@dataclass
class RunResult:
    host_ms: Dict[str, List[float]]
    #: start of each call in ``host_ms``, on the sampler's clock
    host_at: Dict[str, List[float]]
    #: (time, seconds) reference samples taken between the operations (see reference.py)
    reference_s: List[Tuple[float, float]]
    sim: Dict[str, List[float]]
    stored_bytes: int
    attempted: int
    failed: int
    #: (op index, kind, reason) of every failed operation
    failures: List[Tuple[int, str, str]]


def run_stream(workload: Workload, seed: int, ops: Sequence[Op], ledger=None) -> RunResult:
    """Issue ``ops`` one after another and time each on the host clock.

    Sessions are built before the deploy that needs them, outside the timed
    call.  ``ledger`` (a :class:`ledger.Ledger`, when the run is traced)
    tags the spans of each call with the operation's index and reads the
    same clock as the timings.
    """
    host_ms: Dict[str, List[float]] = {k: [] for k in ("deploy", "write", "checkpoint",
                                                      "restart", "read")}
    host_at: Dict[str, List[float]] = {k: [] for k in host_ms}
    sim: Dict[str, List[float]] = {k: [] for k in ("deploy", "checkpoint", "restart")}
    session = None
    checkpoints: list = []
    ids: Tuple[str, ...] = ()
    failures: List[Tuple[int, str, str]] = []
    sampler = Sampler()
    clock = sampler.clock
    if ledger is not None:
        ledger.clock = clock

    with sampler:
        for index, op in enumerate(ops):
            root = ledger.operation(index) if ledger is not None else nullcontext()
            try:
                if op.kind == "deploy":
                    deployer = make_session(workload, seed)
                    # A deploy allocates enough to set off a full collection
                    # of the cyclic GC, which then walks the stream's whole
                    # session: whether it fell in a deploy or not could
                    # double that deploy's time, and flipped the median from
                    # seed to seed.  Collecting first leaves the deploy its
                    # own cost.
                    gc.collect()
                    if op.target >= 0:
                        session, ids, checkpoints = deployer, (), []
                    call = partial(deployer.deploy, workload.backend, n=workload.instances)
                    del deployer
                elif op.kind == "write":
                    call = partial(session.guest_write, ids[op.instance], op.path,
                                   payload(workload, op.key))
                elif op.kind == "checkpoint":
                    call = session.checkpoint
                elif op.kind == "restart":
                    call = partial(session.restart, checkpoints[op.target])
                else:
                    call = partial(session.guest_read, ids[op.instance], op.path)
                t0 = clock()
                with root:
                    result = call()
                t1 = clock()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                failures.append((index, op.kind, f"{type(exc).__name__}: {exc}"))
                continue
            finally:
                call = None  # drops a throwaway session
            host_ms[op.kind].append((t1 - t0) * 1e3)
            host_at[op.kind].append(t0)
            if op.kind == "deploy":
                ids = ids or result.instance_ids  # a throwaway deploy keeps the stream's
            elif op.kind == "checkpoint":
                checkpoints.append(result)
            elif op.kind == "read":
                if result != payload(workload, op.key).to_bytes():
                    failures.append((index, op.kind, f"read-back of {op.path} differs"))
            if op.kind in sim:
                sim[op.kind].append(result.duration_s)

    stored = session.deployment.storage_used_bytes() if ids else 0
    return RunResult(host_ms, host_at, sampler.samples, sim, stored, len(ops), len(failures),
                     failures)


# -- the known rollback defect -------------------------------------------------------------


def defect_probe(backend: str, dedup: bool = False) -> int:
    """Number of stale reads in the minimal rollback-then-continue sequence.

    On one instance: write a=a0 and b=b0, checkpoint C1; write a=a1,
    checkpoint C2; restart from C1; write b=b1, checkpoint C3; restart from
    C3 and read a.  The correct answer is a0, so the count is 0 or 1.
    """
    from repro.api import GRAPHENE, Session
    from repro.util.bytesource import SyntheticBytes

    spec = GRAPHENE.scaled(compute_nodes=8, service_nodes=3)
    if dedup:
        spec = with_dedup(spec)
    session = Session.from_spec(spec)
    (vm,) = session.deploy(backend, n=1).instance_ids
    a0 = SyntheticBytes("probe-a0", FILE_SIZE)
    session.guest_write(vm, "/ckpt/a", a0)
    session.guest_write(vm, "/ckpt/b", SyntheticBytes("probe-b0", FILE_SIZE))
    c1 = session.checkpoint()
    session.guest_write(vm, "/ckpt/a", SyntheticBytes("probe-a1", FILE_SIZE))
    session.checkpoint()
    session.restart(c1)
    session.guest_write(vm, "/ckpt/b", SyntheticBytes("probe-b1", FILE_SIZE))
    c3 = session.checkpoint()
    session.restart(c3)
    return int(session.guest_read(vm, "/ckpt/a") != a0.to_bytes())

