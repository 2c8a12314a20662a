"""Per-layer metrics of the traced run, and what each should move.

``PER_LAYER`` lists every per-layer metric with its unit and the
end-to-end metric and workloads it is expected to move.  Every ``*_s``
metric is a *self time* per repetition (host seconds, span duration
minus child spans, mean over the traced repetitions); counts come from
the program's public state after the last traced repetition.  A layer
idle on a workload reports 0.
"""

from __future__ import annotations

CHURN, STATIC = "continuum_churn", "continuum_static"
BURST, KERNELS = "burst_day_hybrid", "kernels_frames"
CONTINUUM = (CHURN, STATIC)

#: (name, unit, end-to-end metric it moves, workloads where it should).
PER_LAYER: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("events.processed", "count", "items_per_s", (CHURN, BURST)),
    ("events.per_request", "ratio", "items_per_s", (CHURN, BURST)),
    ("events.self_s", "s", "items_per_s", (CHURN, BURST)),
    ("serving.submits", "count", "items_per_s", (CHURN, BURST)),
    ("serving.batches", "count", "items_per_s", (CHURN, BURST)),
    ("serving.images_per_batch", "ratio", "items_per_s", (CHURN, BURST)),
    ("serving.rejected", "count", "items_per_s", (CHURN, BURST)),
    ("serving.self_s", "s", "items_per_s", (CHURN, BURST)),
    ("batcher.form_batch_calls", "count", "items_per_s", (CHURN, BURST)),
    ("batcher.form_batch_s", "s", "items_per_s", (CHURN, BURST)),
    ("engine.latency_calls", "count", "items_per_s", (CHURN,)),
    ("engine.latency_s", "s", "items_per_s", (CHURN,)),
    ("prep_model.calls", "count", "items_per_s", (CHURN,)),
    ("prep_model.s", "s", "items_per_s", (CHURN,)),
    ("fluid.intervals", "count", "items_per_s", (BURST,)),
    ("fluid.completed_frac", "ratio", "items_per_s", (BURST,)),
    ("fluid.self_s", "s", "items_per_s", (BURST,)),
    ("exact.self_s", "s", "items_per_s", (BURST,)),
    ("continuum.submits", "count", "items_per_s", (CHURN,)),
    ("continuum.self_s", "s", "items_per_s", (CHURN,)),
    ("uplink.transfers", "count", "items_per_s", (CHURN,)),
    ("uplink.bytes", "B", "items_per_s", (CHURN,)),
    ("uplink.retransmits", "count", "items_per_s", (CHURN,)),
    ("uplink.peak_concurrency", "count", "items_per_s", (CHURN,)),
    ("uplink.self_s", "s", "items_per_s", (CHURN,)),
] + [
    (f"cache.{tier}.{stat}", unit, "items_per_s", CONTINUUM)
    for tier in ("edge", "cloud")
    for stat, unit in (("lookups", "count"), ("hit_ratio", "ratio"),
                       ("insertions", "count"), ("evictions", "count"),
                       ("admission_rejects", "count"),
                       ("resident_peak", "count"))
] + [
    ("cache.lookup_s", "s", "items_per_s", CONTINUUM),
    ("cache.insert_s", "s", "items_per_s", CONTINUUM),
    ("keys.fingerprint_s", "s", "setup_s", CONTINUUM),
    ("obs.observes", "count", "items_per_s", (CHURN,)),
    ("obs.spans", "count", "items_per_s", (CHURN,)),
    ("obs.traces_retained", "count", "items_per_s", (CHURN,)),
    ("obs.sampler_ticks", "count", "items_per_s", (CHURN,)),
    ("obs.self_s", "s", "items_per_s", (CHURN,)),
    ("obs.scrape_s", "s", "items_per_s", (CHURN,)),
    ("obs.scrape_bytes", "B", "items_per_s", (CHURN,)),
    ("ops.warp_s", "s", "items_per_s", (KERNELS,)),
    ("ops.resize_s", "s", "items_per_s", (KERNELS,)),
    ("ops.normalize_s", "s", "items_per_s", (KERNELS,)),
    ("ops.to_chw_s", "s", "items_per_s", (KERNELS,)),
    ("ops.bytes_moved", "B", "items_per_s", (KERNELS,)),
    ("model.forward_s", "s", "items_per_s", (KERNELS,)),
    ("model.macs", "count", "items_per_s", (KERNELS,)),
    ("model.gflops", "GFLOP/s", "items_per_s", (KERNELS,)),
    ("model.peak_frac", "ratio", "items_per_s", (KERNELS,)),
    ("setup.trace_s", "s", "setup_s", (BURST,)),
    ("setup.frames_s", "s", "setup_s", (CHURN, STATIC, KERNELS)),
    ("setup.build_s", "s", "setup_s", (CHURN, STATIC, BURST, KERNELS)),
    ("bench.self_s", "s", "none", ()),
    ("trace.wall_s", "s", "none", ()),
    ("trace.residual_frac", "ratio", "none", ()),
    ("trace.overhead_frac", "ratio", "none", ()),
]

#: Span-name self times that make up each ``*_s`` metric.  Together with
#: the layers below they cover every span the hooks and the runner open.
SELF_TIME_SPANS = {
    "events.self_s": ("events:",),
    "serving.self_s": ("serving:",),
    "batcher.form_batch_s": ("batcher:",),
    "engine.latency_s": ("engine:",),
    "prep_model.s": ("prep_model:",),
    "fluid.self_s": ("fluid:",),
    "exact.self_s": ("exact:",),
    "continuum.self_s": ("continuum:",),
    "uplink.self_s": ("uplink:",),
    "cache.lookup_s": ("cache:edge_result.lookup", "cache:cloud_tensor.lookup"),
    "cache.insert_s": ("cache:edge_result.insert", "cache:cloud_tensor.insert"),
    "keys.fingerprint_s": ("keys:",),
    "obs.self_s": ("obs:event",),
    "obs.scrape_s": ("obs:scrape",),
    "ops.warp_s": ("ops:warp",),
    "ops.resize_s": ("ops:resize",),
    "ops.normalize_s": ("ops:normalize",),
    "ops.to_chw_s": ("ops:to_chw",),
    "model.forward_s": ("model:",),
    "setup.trace_s": ("setup:trace",),
    "setup.frames_s": ("setup:frames",),
    "setup.build_s": ("setup:build",),
    "bench.self_s": ("bench:",),
}


def self_time_metrics(self_times: dict[str, float]) -> dict[str, float]:
    """Fold span-name self times into the ``*_s`` metrics."""
    out = {}
    for metric, prefixes in SELF_TIME_SPANS.items():
        out[metric] = sum(value for name, value in self_times.items()
                          if name.startswith(prefixes))
    return out


def unattributed(self_times: dict[str, float]) -> float:
    """Self time of spans no ``*_s`` metric claims (should be 0)."""
    prefixes = tuple(p for ps in SELF_TIME_SPANS.values() for p in ps)
    return sum(value for name, value in self_times.items()
               if not name.startswith(prefixes))


def _histogram_observations(registry) -> int:
    total = 0
    for metric in registry.collect():
        if metric.kind == "histogram":
            total += sum(series.count for _, series in metric.items())
    return total


def count_metrics(results: list[dict], counters) -> dict[str, float]:
    """Per-layer counts read from the program's public state.

    ``results`` are the replays of one repetition: counts add up across
    them, ratios are taken over the sums and peaks over the maxima.
    """
    out = {name: 0.0 for name, _, _, _ in PER_LAYER
           if name not in SELF_TIME_SPANS}
    raw: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        raw[key] = raw.get(key, 0.0) + value

    def peak(key: str, value: float) -> None:
        out[key] = max(out[key], value)

    for result in results:
        add("finalized", result["finalized"])
        server = result["server"] if "server" in result else None
        if server is not None:
            add("events.processed", server.sim.events_processed)
            add("serving.submits", server.metrics.get(
                "requests_submitted_total").total())
            for model in server.model_names():
                for stats in server.instance_stats(model):
                    add("serving.batches", stats.batches_served)
                    add("images", stats.images_served)
            add("serving.rejected", sum(1 for r in server.responses
                                        if r.status == "rejected"))
            add("obs.observes", _histogram_observations(server.metrics))
        replayer = result.get("replayer")
        if replayer is not None and hasattr(replayer, "intervals"):
            add("fluid.intervals", len(replayer.intervals))
            add("fluid_completed", replayer.fluid_completed)
            add("arrivals", result["arrivals"])
        uplink = result.get("uplink")
        if uplink is not None:
            add("uplink.transfers", uplink.completed)
            add("uplink.bytes", result["registry"].get(
                "link_bytes_total").value(link=uplink.name,
                                          direction="uplink"))
            add("uplink.retransmits", uplink.total_retransmits)
            peak("uplink.peak_concurrency", uplink.peak_concurrency)
        cache = result.get("cache")
        if cache is not None:
            add("continuum.submits", result["submitted"])
            for short, tier in (("edge", cache.edge), ("cloud", cache.cloud)):
                stats = tier.store.stats
                add(f"cache.{short}.lookups", stats.lookups)
                add(f"{short}.hits", stats.hits)
                add(f"cache.{short}.insertions", stats.insertions)
                add(f"cache.{short}.evictions", stats.evictions)
                add(f"cache.{short}.admission_rejects",
                    stats.admission_rejects)
            add("obs.spans", sum(len(t.spans) for t in replayer.traces))
            add("obs.traces_retained", len(replayer.traces))
            add("obs.sampler_ticks", len(result["sampler"].samples))
            add("obs.scrape_bytes", len(result["scrape"].encode()))
        if "macs" in result:
            add("model.macs", result["macs"])
    for key, value in raw.items():
        if key in out:
            out[key] = value

    def ratio(num: str, den: str) -> float:
        return raw.get(num, 0.0) / raw[den] if raw.get(den) else 0.0

    out["events.per_request"] = ratio("events.processed", "finalized")
    out["serving.images_per_batch"] = ratio("images", "serving.batches")
    out["fluid.completed_frac"] = ratio("fluid_completed", "arrivals")
    for short in ("edge", "cloud"):
        out[f"cache.{short}.hit_ratio"] = ratio(f"{short}.hits",
                                                f"cache.{short}.lookups")
    for tier, short in (("edge_result", "edge"), ("cloud_tensor", "cloud")):
        out[f"cache.{short}.resident_peak"] = counters.resident_peak.get(tier, 0)
    out["ops.bytes_moved"] = counters.bytes_moved
    return out
