"""Span recording and outside hooks for the traced benchmark run.

Nothing in the program is edited.  Inside a ``with Hooks(log,
counters)`` block the public entry points of each layer, and every
callback handed to ``Simulator.schedule`` / ``add_stream``, are wrapped
on their class or module; leaving the block puts the originals back.
Each wrapper opens a span on a :class:`SpanLog`, so spans nest by call
order and a span's *self time* is its duration minus the durations of
its direct children.  Every
span name is ``"<layer>:<detail>"``; a layer's self time is the sum
over its spans, and the self times of all layers add up to the root
span's duration.

A fired event is charged to the layer that owns its callback (the
callback's ``__module__``, see ``MODULE_LAYERS``).  Stream callbacks of a
:class:`~repro.serving.fluid.HybridReplayer` are split after the fact:
an arrival that made the replayer enter a fluid stretch (its
``intervals`` list grew) is charged to ``fluid``, every other arrival to
``exact``.
"""

from __future__ import annotations

import gzip
import time
from array import array

#: Owning module prefix -> layer name for fired-event callbacks
#: (longest prefix wins).  Unlisted modules are benchmark glue.
MODULE_LAYERS = {
    "repro.serving.server": "serving",
    "repro.serving.batcher": "serving",
    "repro.serving.instance": "serving",
    "repro.serving.observability": "obs",
    "repro.serving.fluid": "fluid",
    "repro.continuum.pipeline": "continuum",
    "repro.continuum.uplink": "uplink",
    "repro.continuum.network": "uplink",
    "repro.cache": "cache",
}


def layer_of_module(module: str | None) -> str:
    """The layer a callback defined in ``module`` belongs to."""
    best, layer = -1, "bench"
    for prefix, name in MODULE_LAYERS.items():
        if module and (module == prefix or module.startswith(prefix + ".")):
            if len(prefix) > best:
                best, layer = len(prefix), name
    return layer


class SpanLog:
    """In-memory spans: name, start, end and parent, in open order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.clock = time.perf_counter

    def __len__(self) -> int:
        return len(self.start)

    def begin(self, name: str) -> int:
        """Open a span as a child of the innermost open span."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        """Close span ``index`` (the innermost open one)."""
        self.end[index] = self.clock()
        self._stack.pop()

    def rename(self, index: int, name: str) -> None:
        """Re-label a span after the fact (fluid vs exact arrivals)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id[index] = nid

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = (out.get(name, 0.0)
                         + (self.end[i] - self.start[i]) - child[i])
        return out

    def counts(self) -> dict[str, int]:
        """Span name -> number of spans."""
        out: dict[str, int] = {}
        for nid in self.name_id:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path) -> None:
        """Write every span as gzip TSV: name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}\n")


class Counters:
    """Counters the hooks record at layer boundaries."""

    def __init__(self) -> None:
        self.resident_peak: dict[str, int] = {}
        self.bytes_moved = 0


def _spanned(log: SpanLog, name: str, fn):
    def wrapper(*args, **kwargs):
        index = log.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            log.finish(index)
    wrapper.__wrapped__ = fn
    return wrapper


def _event_wrapper(log: SpanLog, callback):
    owner = getattr(callback, "__self__", None)
    if owner is not None and hasattr(owner, "intervals") and \
            hasattr(owner, "fluid_completed"):
        intervals = owner.intervals

        def fluid_or_exact(*args):
            before = len(intervals)
            index = log.begin("exact:arrival")
            try:
                return callback(*args)
            finally:
                log.finish(index)
                if len(intervals) != before:
                    log.rename(index, "fluid:stretch")
        return fluid_or_exact
    name = layer_of_module(getattr(callback, "__module__", None)) + ":event"

    def fired(*args):
        index = log.begin(name)
        try:
            return callback(*args)
        finally:
            log.finish(index)
    return fired


def _patches(log: SpanLog, counters: Counters) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every outside hook."""
    from repro.cache import keys
    from repro.cache.tiers import CacheTier
    from repro.continuum.network import NetworkLink
    from repro.continuum.pipeline import ContinuumReplayer
    from repro.continuum.uplink import SharedUplink
    from repro.engine.latency import LatencyModel
    from repro.models import functional
    from repro.preprocessing import frameworks, ops
    from repro.serving import exporter
    from repro.serving.batcher import DynamicBatcher
    from repro.serving.events import Simulator
    from repro.serving.server import TritonLikeServer

    orig_schedule = Simulator.schedule
    orig_add_stream = Simulator.add_stream

    def schedule(self, delay, callback, daemon=False):
        return orig_schedule(self, delay, _event_wrapper(log, callback),
                             daemon)

    def add_stream(self, times, callback, daemon=False):
        return orig_add_stream(self, times, _event_wrapper(log, callback),
                               daemon)

    orig_tier_insert = CacheTier.insert

    def tier_insert(self, fp, value, size_bytes):
        index = log.begin(f"cache:{self.name}.insert")
        try:
            return orig_tier_insert(self, fp, value, size_bytes)
        finally:
            log.finish(index)
            counters.resident_peak[self.name] = max(
                counters.resident_peak.get(self.name, 0), len(self.store))

    orig_tier_lookup = CacheTier.lookup

    def tier_lookup(self, fp, trace=None, now=None):
        index = log.begin(f"cache:{self.name}.lookup")
        try:
            return orig_tier_lookup(self, fp, trace=trace, now=now)
        finally:
            log.finish(index)

    def moving(name: str, fn):
        def op(image, *args, **kwargs):
            index = log.begin(name)
            try:
                out = fn(image, *args, **kwargs)
            finally:
                log.finish(index)
            counters.bytes_moved += image.nbytes + out.nbytes
            return out
        return op

    patches = [
        (Simulator, "schedule", schedule),
        (Simulator, "add_stream", add_stream),
        (Simulator, "run", _spanned(log, "events:run", Simulator.run)),
        (TritonLikeServer, "submit",
         _spanned(log, "serving:submit", TritonLikeServer.submit)),
        (DynamicBatcher, "form_batch",
         _spanned(log, "batcher:form_batch", DynamicBatcher.form_batch)),
        (LatencyModel, "latency",
         _spanned(log, "engine:latency", LatencyModel.latency)),
        (ContinuumReplayer, "submit",
         _spanned(log, "continuum:submit", ContinuumReplayer.submit)),
        (ContinuumReplayer, "handle_response",
         _spanned(log, "continuum:handle_response",
                  ContinuumReplayer.handle_response)),
        (SharedUplink, "schedule_transfer",
         _spanned(log, "uplink:schedule_transfer",
                  SharedUplink.schedule_transfer)),
        (NetworkLink, "schedule_transfer",
         _spanned(log, "uplink:link_transfer", NetworkLink.schedule_transfer)),
        (CacheTier, "lookup", tier_lookup),
        (CacheTier, "insert", tier_insert),
        (keys, "fingerprint",
         _spanned(log, "keys:fingerprint", keys.fingerprint)),
        (exporter, "export_registry",
         _spanned(log, "obs:scrape", exporter.export_registry)),
        (ops, "warp_perspective", moving("ops:warp", ops.warp_perspective)),
        (ops, "resize_bilinear", moving("ops:resize", ops.resize_bilinear)),
        (ops, "normalize", moving("ops:normalize", ops.normalize)),
        (ops, "to_chw", moving("ops:to_chw", ops.to_chw)),
        (functional, "vit_forward",
         _spanned(log, "model:forward", functional.vit_forward)),
    ]
    # DALIWarp.estimate calls DALI.estimate: count the outer call only.
    active = []

    def priced(fn):
        def estimate(*args, **kwargs):
            if active:
                return fn(*args, **kwargs)
            active.append(True)
            index = log.begin("prep_model:estimate")
            try:
                return fn(*args, **kwargs)
            finally:
                log.finish(index)
                active.pop()
        return estimate

    for cls in (frameworks.DALI, frameworks.DALIWarp):
        patches.append((cls, "estimate", priced(vars(cls)["estimate"])))
    return patches


class Hooks:
    """Installs the outside hooks; restores the originals on exit."""

    def __init__(self, log: SpanLog, counters: Counters):
        self.log = log
        self.counters = counters
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        for owner, attr, replacement in _patches(self.log, self.counters):
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
