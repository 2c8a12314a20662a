"""Preserved pre-optimization reference implementations.

The perf harness (:mod:`repro.perf.bench`) reports *speedups*, which
are only meaningful against a pinned baseline.  This module freezes the
seed implementations that the hot-path optimization pass replaced, so
the baseline is the actual old code running the actual new workloads —
not a guess:

* :class:`LegacySimulator` — the dataclass-event heap with an
  auxiliary cancelled-sequence set.  Drop-in API compatible with
  :class:`repro.serving.events.Simulator`, so the real serving stack
  runs on it unmodified.
* :class:`LegacyMetricsRegistry` — metrics whose every update rebuilds
  the sorted label key and whose histogram observe linear-scans the
  bucket bounds (the seed cost model).  Its metrics also accept the
  modern ``labels(...)`` call, returning shims that *still* pay the
  per-call label-key rebuild, so instrumented code written against the
  bound-handle API exercises seed-era costs.
* ``legacy_*`` kernels — the seed NumPy ops: per-call weight
  transposes, allocation-per-op im2col, split-and-reshape attention,
  the ``x ** 3`` GELU, and per-call bilinear gathers.  They carry their
  own copies of the seed bilinear sampling and layernorm, so the
  baseline stays fixed when the live kernels change.

These exist for measurement and for determinism cross-checks (the new
tuple-heap simulator must fire in exactly the order the dataclass heap
did); production code must not import them.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.serving.observability import DEFAULT_BUCKETS, LabelKey


# ----------------------------------------------------------------------
# Seed simulator (dataclass events + cancelled-seq set)
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, order=True)
class LegacyEvent:
    """A scheduled callback (ordered by time, then insertion sequence)."""

    time: float
    seq: int
    callback: Callable[[], None] = dataclasses.field(compare=False)
    cancelled: bool = dataclasses.field(default=False, compare=False)
    daemon: bool = dataclasses.field(default=False, compare=False)


class LegacySimulator:
    """The seed event loop, byte-for-byte in behaviour.

    Heap entries are frozen ordered dataclasses (every push/pop pays
    field-by-field ``__lt__``), cancellation goes through an auxiliary
    seq set (which leaks on cancel-after-fire), and every event pops
    individually.  API-compatible with the optimized simulator.
    """

    def __init__(self) -> None:
        self._heap: list[LegacyEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._cancelled: set[int] = set()
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None],
                 daemon: bool = False) -> LegacyEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = LegacyEvent(self._now + delay, next(self._seq), callback,
                            daemon=daemon)
        heapq.heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None],
                    daemon: bool = False) -> LegacyEvent:
        """Schedule ``callback`` at an absolute virtual time."""
        return self.schedule(time - self._now, callback, daemon=daemon)

    def cancel(self, event: LegacyEvent) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        self._cancelled.add(event.seq)

    def run(self, until: float | None = None,
            max_events: int = 10_000_000) -> None:
        """Process events until the heap drains or ``until`` is reached."""
        processed = 0
        while self._heap:
            if processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a self-scheduling loop")
            event = heapq.heappop(self._heap)
            if event.seq in self._cancelled:
                self._cancelled.discard(event.seq)
                continue
            if until is not None and event.time > until:
                heapq.heappush(self._heap, event)  # leave it for later
                self._now = until
                return
            self._now = event.time
            event.callback()
            processed += 1
            self.events_processed += 1
        if until is not None:
            self._now = max(self._now, until)

    def peek_time(self) -> float | None:
        """Time of the next pending event, or None when idle."""
        while self._heap and self._heap[0].seq in self._cancelled:
            self._cancelled.discard(heapq.heappop(self._heap).seq)
        return self._heap[0].time if self._heap else None

    def peek_foreground_time(self) -> float | None:
        """Time of the next pending *non-daemon* event, or None."""
        best: float | None = None
        for event in self._heap:
            if event.daemon or event.seq in self._cancelled:
                continue
            if best is None or event.time < best:
                best = event.time
        return best


# ----------------------------------------------------------------------
# Seed metrics (per-call label keys, linear-scan histograms)
# ----------------------------------------------------------------------

def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _LegacyBound:
    """A ``labels(...)`` shim that still pays per-call label costs.

    The modern instrumentation binds handles once and updates them
    label-free; the seed code rebuilt the sorted label key on every
    update.  This shim lets the modern call sites run against legacy
    metrics while charging the seed cost: every method forwards to the
    parent's kwargs path, which rebuilds the key.
    """

    def __init__(self, parent, labels: dict[str, str]):
        self._parent = parent
        self._labels = labels

    def inc(self, amount: float = 1.0) -> None:
        self._parent.inc(amount, **self._labels)

    def set(self, value: float) -> None:
        self._parent.set(value, **self._labels)

    def add(self, amount: float) -> None:
        self._parent.add(amount, **self._labels)

    def observe(self, value: float) -> None:
        self._parent.observe(value, **self._labels)

    def value(self) -> float:
        return self._parent.value(**self._labels)


class _LegacyMetric:
    kind = "untyped"

    def __init__(self, name: str, help: str, clock: Callable[[], float]):
        self.name = name
        self.help = help
        self._clock = clock
        self.last_updated: dict[LabelKey, float] = {}

    def _touch(self, key: LabelKey) -> None:
        self.last_updated[key] = self._clock()

    def labels(self, **labels: str) -> _LegacyBound:
        """Modern-API entry point; returns a per-call-cost shim."""
        return _LegacyBound(self, labels)

    def label_sets(self) -> list[LabelKey]:
        return sorted(self.last_updated)


class LegacyCounter(_LegacyMetric):
    """Seed counter: per-call sorted label-key rebuild on every inc."""

    kind = "counter"

    def __init__(self, name: str, help: str, clock: Callable[[], float]):
        super().__init__(name, help, clock)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Seed-path inc: rebuilds the label key every call."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._touch(key)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._values.values())

    def items(self) -> list[tuple[LabelKey, float]]:
        """(labels, value) pairs in sorted label order."""
        return sorted(self._values.items())


class LegacyGauge(_LegacyMetric):
    """Seed gauge: per-call sorted label-key rebuild on every update."""

    kind = "gauge"

    def __init__(self, name: str, help: str, clock: Callable[[], float]):
        super().__init__(name, help, clock)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Seed-path set: rebuilds the label key every call."""
        key = _label_key(labels)
        self._values[key] = float(value)
        self._touch(key)

    def add(self, amount: float, **labels: str) -> None:
        """Seed-path add: rebuilds the label key every call."""
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount
        self._touch(key)

    def value(self, **labels: str) -> float:
        """Current value of the labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def remove(self, **labels: str) -> bool:
        """Drop the labelled series; True when it existed."""
        key = _label_key(labels)
        existed = self._values.pop(key, None) is not None
        self.last_updated.pop(key, None)
        return existed

    def items(self) -> list[tuple[LabelKey, float]]:
        """(labels, value) pairs in sorted label order."""
        return sorted(self._values.items())


@dataclasses.dataclass
class _LegacyHistogramSeries:
    bucket_counts: list[int]
    sum: float = 0.0
    count: int = 0


class LegacyHistogram(_LegacyMetric):
    """Seed histogram: linear bucket scan + label-key rebuild per obs."""

    kind = "histogram"

    def __init__(self, name: str, help: str, clock: Callable[[], float],
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, clock)
        self.buckets = tuple(sorted(buckets))
        self._series: dict[LabelKey, _LegacyHistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Seed-path observe: linear bucket scan per call."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = _LegacyHistogramSeries(
                [0] * (len(self.buckets) + 1))
            self._series[key] = series
        index = len(self.buckets)  # overflow (+Inf) bucket
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        series.bucket_counts[index] += 1
        series.sum += value
        series.count += 1
        self._touch(key)

    def count(self, **labels: str) -> int:
        """Observation count for the labelled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series is not None else 0

    def sum(self, **labels: str) -> float:
        """Observation sum for the labelled series."""
        series = self._series.get(_label_key(labels))
        return series.sum if series is not None else 0.0


class LegacyMetricsRegistry:
    """Seed-cost registry, API-compatible with MetricsRegistry."""

    def __init__(self, clock: Callable[[], float] = lambda: 0.0):
        self._clock = clock
        self._metrics: dict[str, _LegacyMetric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, self._clock, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "") -> LegacyCounter:
        """Get or create a legacy counter."""
        return self._get_or_create(LegacyCounter, name, help)

    def gauge(self, name: str, help: str = "") -> LegacyGauge:
        """Get or create a legacy gauge."""
        return self._get_or_create(LegacyGauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  ) -> LegacyHistogram:
        """Get or create a legacy histogram."""
        return self._get_or_create(LegacyHistogram, name, help,
                                   buckets=buckets)

    def get(self, name: str):
        """Look up a metric by name (None if absent)."""
        return self._metrics.get(name)

    def metrics(self) -> list[_LegacyMetric]:
        """Registered metrics in name order."""
        return [self._metrics[k] for k in sorted(self._metrics)]


# ----------------------------------------------------------------------
# Seed kernels (per-call transposes, x**3 GELU, split attention)
# ----------------------------------------------------------------------

def legacy_linear(x: np.ndarray, weight: np.ndarray,
                  bias: np.ndarray | None = None) -> np.ndarray:
    """Seed linear: transpose the weight on every call."""
    y = x @ weight.T
    if bias is not None:
        y = y + bias
    return y


def legacy_im2col(x: np.ndarray, kernel: int, stride: int,
                  padding: int) -> tuple[np.ndarray, int, int]:
    """Seed im2col: fresh pad + fresh patch matrix per call."""
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)))
        h, w = h + 2 * padding, w + 2 * padding
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    view = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False)
    patches = view.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h * out_w, c * kernel * kernel)
    return patches, out_h, out_w


def legacy_conv2d(x: np.ndarray, weight: np.ndarray,
                  bias: np.ndarray | None = None, stride: int = 1,
                  padding: int = 0) -> np.ndarray:
    """Seed conv: reshape-and-transpose the kernel on every call."""
    out_c = weight.shape[0]
    patches, out_h, out_w = legacy_im2col(x, weight.shape[2], stride,
                                          padding)
    y = patches @ weight.reshape(out_c, -1).T
    if bias is not None:
        y = y + bias
    return y.transpose(0, 2, 1).reshape(x.shape[0], out_c, out_h, out_w)


def legacy_gelu(x: np.ndarray) -> np.ndarray:
    """Seed GELU with the generic-pow ``x ** 3``."""
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _legacy_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def legacy_attention(qkv: np.ndarray, heads: int) -> np.ndarray:
    """Seed attention: split + three reshape copies per call."""
    n, t, three_d = qkv.shape
    d = three_d // 3
    head_dim = d // heads
    q, k, v = np.split(qkv, 3, axis=-1)

    def to_heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(n, t, heads, head_dim).transpose(0, 2, 1, 3)

    q, k, v = to_heads(q), to_heads(k), to_heads(v)
    scores = (q @ k.transpose(0, 1, 3, 2)) / math.sqrt(head_dim)
    weights = _legacy_softmax(scores, axis=-1)
    ctx = weights @ v
    return ctx.transpose(0, 2, 1, 3).reshape(n, t, d)


def _legacy_bilinear_gather(image: np.ndarray, xs: np.ndarray,
                            ys: np.ndarray) -> np.ndarray:
    """Seed vectorized bilinear sampling (edge-clamped taps)."""
    h, w = image.shape[:2]
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)[..., None]
    fy = np.clip(ys - y0, 0.0, 1.0)[..., None]
    img = image.astype(np.float32) if image.dtype == np.uint8 else image
    top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
    bottom = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def _legacy_layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      eps: float = 1e-6) -> np.ndarray:
    """Seed layer normalization over the last axis."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def legacy_resize_bilinear(image: np.ndarray, out_h: int,
                           out_w: int) -> np.ndarray:
    """Seed resize: rebuild the coordinate mesh on every call."""
    h, w = image.shape[:2]
    scale_y, scale_x = h / out_h, w / out_w
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * scale_y - 0.5
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * scale_x - 0.5
    grid_x, grid_y = np.meshgrid(xs, ys)
    return _legacy_bilinear_gather(image, grid_x, grid_y).astype(np.float32)


def legacy_warp_perspective(image: np.ndarray, homography: np.ndarray,
                            out_h: int, out_w: int) -> np.ndarray:
    """Seed warp: rebuild the homogeneous coordinate stack per call."""
    inv = np.linalg.inv(np.asarray(homography, dtype=np.float64))
    xs = np.arange(out_w, dtype=np.float64)
    ys = np.arange(out_h, dtype=np.float64)
    grid_x, grid_y = np.meshgrid(xs, ys)
    ones = np.ones_like(grid_x)
    coords = np.stack([grid_x, grid_y, ones], axis=0).reshape(3, -1)
    mapped = inv @ coords
    denom = mapped[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        src_x = (mapped[0] / denom).reshape(out_h, out_w)
        src_y = (mapped[1] / denom).reshape(out_h, out_w)
    src_x = np.nan_to_num(src_x, nan=-1.0)
    src_y = np.nan_to_num(src_y, nan=-1.0)
    out = _legacy_bilinear_gather(image, src_x, src_y)
    h, w = image.shape[:2]
    inside = ((src_x >= -0.5) & (src_x <= w - 0.5)
              & (src_y >= -0.5) & (src_y <= h - 0.5))
    out *= inside[..., None]
    return out.astype(np.float32)


def legacy_vit_forward(cfg, weights: dict[str, np.ndarray],
                       x: np.ndarray) -> np.ndarray:
    """Seed ViT forward pass (the kernel-bench baseline)."""
    n = x.shape[0]
    tokens = legacy_conv2d(x, weights["patch_embed.weight"],
                           weights["patch_embed.bias"],
                           stride=cfg.patch_size)
    tokens = tokens.reshape(n, cfg.dim, -1).transpose(0, 2, 1)
    cls = np.broadcast_to(weights["cls_token"], (n, 1, cfg.dim))
    seq = np.concatenate([cls, tokens], axis=1) + weights["pos_embed"]

    for i in range(cfg.depth):
        p = f"block{i}"
        y = _legacy_layernorm(seq, weights[f"{p}.norm1.gamma"],
                              weights[f"{p}.norm1.beta"])
        qkv = legacy_linear(y, weights[f"{p}.qkv.weight"],
                            weights[f"{p}.qkv.bias"])
        ctx = legacy_attention(qkv, cfg.heads)
        seq = seq + legacy_linear(ctx, weights[f"{p}.proj.weight"],
                                  weights[f"{p}.proj.bias"])
        y = _legacy_layernorm(seq, weights[f"{p}.norm2.gamma"],
                              weights[f"{p}.norm2.beta"])
        y = legacy_gelu(legacy_linear(y, weights[f"{p}.fc1.weight"],
                                      weights[f"{p}.fc1.bias"]))
        seq = seq + legacy_linear(y, weights[f"{p}.fc2.weight"],
                                  weights[f"{p}.fc2.bias"])

    seq = _legacy_layernorm(seq, weights["norm.gamma"], weights["norm.beta"])
    return legacy_linear(seq[:, 0], weights["head.weight"],
                         weights["head.bias"])
