"""Per-layer host-time ledger, attached from outside the program.

:meth:`Ledger.attach` wraps the public entry points of each layer of
``repro`` at runtime (it edits nothing on disk) and :meth:`Ledger.detach`
puts the originals back.  Each wrapper pushes its layer on a stack, so a
layer's *self* time excludes the time spent in the layers it calls.  For a
method that returns a generator (a simulation process), the wrapper times
every resumption of the generator rather than the call that creates it.

The bandwidth solver runs inside the DES kernel's flush hooks, which are
not public entry points; the ledger therefore moves the solver's own clock
(``solver_wall_seconds()``) out of whichever layer was on top of the stack
while it advanced and into ``sim.bandwidth``.

Wrappers only account while an operation root (a ``Session`` call, layer
``api``) is on the stack, so the benchmark's own payload generation and
read-back checks are never charged to the program.

Work is counted at the same boundaries: ``on_call`` hooks see every call,
``on_entry`` hooks only calls from another layer, so a byte count is not
added twice when a layer calls itself (``to_bytes`` reading a concatenation
that reads its parts).  Two hot leaves, ``ByteSource.slice`` and
``concat``, are counted but not timed -- timing them made the tracing
overhead on ``qcow2-cycle`` 3.6 times larger -- so their time stays with
their caller.  Boundaries crossed once
per event or per block are timed but not kept as spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: layers in reporting order; ``api`` is the operation roots
LAYERS = (
    "api", "sim", "sim.bandwidth", "cluster", "blobseer", "dedup", "vdisk",
    "guest", "core", "baselines", "util.bytesource",
)

BANDWIDTH = "sim.bandwidth"


class Ledger:
    """Exclusive host time, counters and spans per layer."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.errors: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: spans as [name, start, end, parent index, operation id]
        self.spans: List[list] = []
        #: frames as (layer, own span or -1, innermost span at or above)
        self._stack: List[Tuple[str, int, int]] = []
        self._last = 0.0
        self._solver_last = 0.0
        self._op_id = -1
        self._patches: List[Tuple[object, str, object]] = []
        self._solver_clock: Callable[[], float] = lambda: 0.0
        #: the host clock spans are read from
        self.clock: Callable[[], float] = perf_counter

    # -- the layer stack -------------------------------------------------------------------

    def _charge(self) -> float:
        """Charge the time since the last switch to the frame on top."""
        now = self.clock()
        solver = self._solver_clock()
        elapsed = now - self._last
        top = self._stack[-1][0]
        if top != BANDWIDTH:
            moved = min(max(solver - self._solver_last, 0.0), elapsed)
            self.self_s[BANDWIDTH] += moved
            elapsed -= moved
        self.self_s[top] += elapsed
        self._last = now
        self._solver_last = solver
        return now

    def push(self, layer: str, name: str, spanned: bool = True) -> None:
        if self._stack:
            now = self._charge()
            parent = self._stack[-1][2]
        else:
            now = self._last = self.clock()
            self._solver_last = self._solver_clock()
            parent = -1
        span = -1
        if spanned:
            span = len(self.spans)
            self.spans.append([name, now, 0.0, parent, self._op_id])
        self._stack.append((layer, span, span if spanned else parent))

    def pop(self) -> None:
        now = self._charge()
        span = self._stack.pop()[1]
        if span >= 0:
            self.spans[span][2] = now

    @contextmanager
    def operation(self, op_id: int):
        """Spans recorded inside belong to operation ``op_id``."""
        self._op_id = op_id
        try:
            yield
        finally:
            self._op_id = -1

    # -- wrapping --------------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, *, spanned=True, root=False, timed=True,
              on_call=None, on_entry=None):
        ledger = self
        stack = self._stack

        def crossing() -> bool:
            return not stack or stack[-1][0] != layer

        if not timed:
            # a hot leaf: counted only, its time stays with the caller
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if stack:
                    on_call(ledger, args, result)
                return result
        elif inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if not stack:
                    return fn(*args, **kwargs)
                if on_call is not None:
                    on_call(ledger, args, None)
                return _TimedGenerator(ledger, layer, name, fn(*args, **kwargs), spanned)
        else:
            def wrapper(*args, **kwargs):
                if not stack and not root:
                    return fn(*args, **kwargs)
                entering = crossing()
                ledger.push(layer, name, spanned)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    ledger.errors[layer] += 1
                    raise
                finally:
                    ledger.pop()
                if on_call is not None:
                    on_call(ledger, args, result)
                if on_entry is not None and entering:
                    on_entry(ledger, args, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, layer: str, **options) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = f"{layer}:{getattr(owner, '__name__', '')}.{attr}"
        setattr(owner, attr, self._wrap(layer, label, original, **options))
        self._patches.append((owner, attr, original))

    def attach(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`; idempotent per ledger."""
        if self._patches:
            return
        from repro.sim.bandwidth import solver_wall_seconds

        self._solver_clock = solver_wall_seconds
        for attach_layer in BOUNDARIES:
            attach_layer(self)

    def detach(self) -> None:
        """Restore every wrapped function, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._solver_clock = lambda: 0.0

    @property
    def patched(self) -> int:
        return len(self._patches)


class _TimedGenerator:
    """Stands in for a generator; times each resumption under ``layer``."""

    __slots__ = ("_ledger", "_layer", "_name", "_inner", "_spanned")

    def __init__(self, ledger: Ledger, layer: str, name: str, inner, spanned: bool):
        self._ledger = ledger
        self._layer = layer
        self._name = name
        self._inner = inner
        self._spanned = spanned

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        ledger = self._ledger
        ledger.push(self._layer, self._name, self._spanned)
        try:
            return method(*args)
        except (StopIteration, GeneratorExit):
            raise
        except BaseException:
            ledger.errors[self._layer] += 1
            raise
        finally:
            ledger.pop()

    def send(self, value):
        return self._resume(self._inner.send, value)

    def throw(self, *args):
        return self._resume(self._inner.throw, *args)

    def close(self):
        return self._inner.close()


# -- the boundaries ------------------------------------------------------------------------


def _count(key: str, amount: Optional[Callable] = None):
    """``on_call`` hook adding 1 (or ``amount(args, result)``) to ``key``."""
    if amount is None:
        def hook(ledger, _args, _result):
            ledger.counts[key] += 1
    else:
        def hook(ledger, args, result):
            ledger.counts[key] += amount(args, result)
    return hook


def _sim(ledger: Ledger) -> None:
    from repro.api.session import Session
    from repro.sim.bandwidth import BandwidthSystem
    from repro.sim.core import Environment

    for name in ("deploy", "guest_write", "checkpoint", "restart", "guest_read"):
        ledger._patch(Session, name, "api", root=True)
    # one frame per popped event: timed, but too many to keep as spans
    ledger._patch(Environment, "step", "sim", spanned=False)
    ledger._patch(BandwidthSystem, "transfer", BANDWIDTH, spanned=False)
    ledger._patch(BandwidthSystem, "fail_channel", BANDWIDTH)


def _cluster(ledger: Ledger) -> None:
    from repro.cluster.network import Network
    from repro.cluster.node import LocalDisk
    from repro.cluster.pvfs import PVFSDeployment

    ledger._patch(Network, "transfer", "cluster", spanned=False,
                  on_call=_count("cluster.transfers"))
    ledger._patch(Network, "message", "cluster", spanned=False,
                  on_call=_count("cluster.messages"))
    ledger._patch(LocalDisk, "read", "cluster", spanned=False)
    ledger._patch(LocalDisk, "write", "cluster", spanned=False)
    ledger._patch(PVFSDeployment, "write_file", "cluster")
    ledger._patch(PVFSDeployment, "read_file", "cluster")


def _blobseer(ledger: Ledger) -> None:
    from repro.blobseer.client import BlobClient
    from repro.blobseer.provider import ProviderManager

    def write_batch(led, _args, result):
        led.counts["blobseer.write_batches"] += 1
        led.counts["blobseer.bytes_written"] += result.bytes_written

    ledger._patch(BlobClient, "write_batch", "blobseer", on_call=write_batch)
    ledger._patch(BlobClient, "read_plan", "blobseer")
    ledger._patch(BlobClient, "read", "blobseer")
    ledger._patch(BlobClient, "clone", "blobseer")
    ledger._patch(ProviderManager, "place", "blobseer", spanned=False,
                  on_call=_count("blobseer.chunks_placed"))
    ledger._patch(ProviderManager, "store_replicated", "blobseer", spanned=False)
    ledger._patch(ProviderManager, "fetch_any", "blobseer", spanned=False,
                  on_call=_count("blobseer.chunks_fetched"))


def _dedup(ledger: Ledger) -> None:
    from repro.dedup.engine import DedupEngine

    def ingest(led, _args, decision):
        led.counts["dedup.ingests"] += 1
        led.counts["dedup.hits"] += bool(decision.duplicate)

    ledger._patch(DedupEngine, "ingest", "dedup", spanned=False, on_call=ingest)
    ledger._patch(DedupEngine, "release", "dedup", spanned=False)


def _vdisk(ledger: Ledger) -> None:
    from repro.vdisk.blockdev import BlockDevice, SparseDevice
    from repro.vdisk.qcow2 import QcowImage
    from repro.vdisk.raw import RawImage

    for cls in (SparseDevice, QcowImage, RawImage):
        ledger._patch(cls, "read", "vdisk", spanned=False, on_call=_count("vdisk.reads"))
        write_hook = _count("vdisk.writes")
        if cls is QcowImage:
            def write_hook(led, _args, _result):
                led.counts["vdisk.writes"] += 1
                led.counts["vdisk.qcow2_writes"] += 1
        ledger._patch(cls, "write", "vdisk", spanned=False, on_call=write_hook)
    ledger._patch(BlockDevice, "read_bytes", "vdisk", spanned=False)
    ledger._patch(BlockDevice, "write_bytes", "vdisk", spanned=False)


def _guest(ledger: Ledger) -> None:
    from repro.guest.filesystem import GuestFileSystem

    ledger._patch(GuestFileSystem, "write_file", "guest", on_call=_count("guest.files_written"))
    ledger._patch(GuestFileSystem, "read_file", "guest", on_call=_count("guest.files_read"))
    ledger._patch(GuestFileSystem, "sync", "guest")
    ledger._patch(GuestFileSystem, "fsync", "guest")


def _core(ledger: Ledger) -> None:
    from repro.core.device import RemoteBlobDevice
    from repro.core.mirroring import MirroringModule
    from repro.core.repository import CheckpointRepository

    ledger._patch(MirroringModule, "read", "core", spanned=False)
    ledger._patch(MirroringModule, "write", "core", spanned=False)
    ledger._patch(MirroringModule, "commit", "core",
                  on_call=_count("core.commits"))
    ledger._patch(MirroringModule, "clone", "core")
    ledger._patch(CheckpointRepository, "commit_blocks", "core")
    ledger._patch(CheckpointRepository, "clone_image", "core",
                  on_call=_count("core.clones"))
    ledger._patch(CheckpointRepository, "read_range", "core")
    # every byte of a read is fetched except zero fill past the blob's end,
    # and the blobs span the whole disk
    ledger._patch(RemoteBlobDevice, "read", "core", spanned=False,
                  on_entry=_count("core.remote_bytes_fetched", lambda _args, data: data.size))


def _baselines(ledger: Ledger) -> None:
    from repro.baselines.qcow2_disk import Qcow2DiskDeployment

    ledger._patch(Qcow2DiskDeployment, "checkpoint_instance", "baselines")
    ledger._patch(Qcow2DiskDeployment, "restart_instance", "baselines")


def _bytesource(ledger: Ledger) -> None:
    from repro.util import bytesource
    from repro.util.bytesource import ByteSource

    layer = "util.bytesource"

    def materialised(_args, result):
        return len(result)

    classes = ByteSource.__subclasses__()
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "read" in cls.__dict__:
            ledger._patch(cls, "read", layer, spanned=False,
                          on_entry=_count(f"{layer}.bytes_materialised", materialised))
        if "slice" in cls.__dict__:
            ledger._patch(cls, "slice", layer, timed=False, on_call=_count(f"{layer}.slices"))
    ledger._patch(ByteSource, "to_bytes", layer, spanned=False,
                  on_entry=_count(f"{layer}.bytes_materialised", materialised))
    # ``concat`` is imported by name into its callers: wrap every binding
    original = bytesource.concat
    wrapped = ledger._wrap(layer, f"{layer}:concat", original, timed=False,
                           on_call=_count(f"{layer}.concats"))
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, "concat", None) is original:
            setattr(module, "concat", wrapped)
            ledger._patches.append((module, "concat", original))


#: boundary installers, in the order they are attached
BOUNDARIES = (_sim, _cluster, _blobseer, _dedup, _vdisk, _guest, _core, _baselines, _bytesource)
