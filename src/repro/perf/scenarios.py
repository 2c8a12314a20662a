"""Deterministic workloads for the perf harness, one per optimized layer.

Each scenario pairs the same workload run two ways — the preserved seed
implementation (:mod:`repro.perf.legacy`) and the optimized code — and
verifies the two runs agree before their timings mean anything:

* ``simulator_core`` — pure event churn (schedules, ties, cancels,
  occasional foreground peeks) on the legacy dataclass-heap simulator
  vs. the tuple-heap one; verified by identical processed-event counts.
* ``instrumented_serving`` — the *real* serving stack (server, dynamic
  batcher, backend instances, open-loop client, time-series sampler)
  replayed on (legacy simulator + legacy per-call-label metrics) vs.
  (optimized simulator + bound-handle metrics); verified by identical
  response and event counts.
* ``vit_tiny_forward`` — the seed allocation-per-op ViT forward vs. the
  pre-packed/arena fast path; verified by ``allclose`` logits.
* ``preprocess_warp`` — per-frame mesh rebuilding vs. the cached
  sampling grids on a resize + perspective-warp frame loop; verified by
  ``allclose`` outputs.

The other suites' builders live here too — :func:`build_fluid_scenarios`
(exact vs hybrid fluid/DES replay; verify is the parity contract),
:func:`build_profile_scenarios` (bare vs profiled replay; verify is
byte-identical scrapes), :func:`build_faas_scenarios` and
:func:`build_sweep_scenarios` — and :data:`repro.perf.bench.SUITES`
pairs each with its floors.

All inputs are seeded; no wall-clock or RNG state leaks into the
workload, so any two runs time the same work.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable

import numpy as np

from repro.perf import legacy


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One benchmarked workload: baseline vs. optimized."""

    name: str
    layer: str
    description: str
    baseline: Callable[[], object]
    optimized: Callable[[], object]
    #: Raises AssertionError when the two runs' results diverge.
    verify: Callable[[object, object], None]


def _noop() -> None:
    return None


def _simulator_churn(sim, n_events: int) -> int:
    """Schedule-heavy workload with ties, cancels, and peeks."""
    cancelable = []

    def make_cb(i: int):
        def cb() -> None:
            if i % 5 == 0:
                cancelable.append(sim.schedule(0.25, _noop))
            if i % 7 == 0 and cancelable:
                sim.cancel(cancelable.pop())
            if i % 63 == 0:
                sim.peek_foreground_time()
        return cb

    for i in range(n_events):
        # i and i+1000 collide on the same timestamp: plenty of ties.
        sim.schedule_at((i % 1000) * 0.001, make_cb(i),
                        daemon=(i % 17 == 0))
    sim.run()
    return sim.events_processed


def _serving_replay(sim_cls, registry_cls, requests: int,
                    profiler: str = "none") -> tuple:
    """The real serving stack end to end on the given substrate.

    ``profiler`` is ``"none"``, ``"off"`` (attached but disabled) or
    ``"on"``.  Returns ``(responses, events_processed, registry)``.
    """
    from repro.serving.batcher import BatcherConfig
    from repro.serving.client import OpenLoopClient
    from repro.serving.observability import TimeSeriesSampler
    from repro.serving.profiler import SimProfiler
    from repro.serving.server import ModelConfig, TritonLikeServer

    sim = sim_cls()
    registry = registry_cls(clock=lambda: sim.now)
    server = TritonLikeServer(sim, registry=registry)
    server.register(ModelConfig(
        "vit_tiny", lambda n: 0.0004 + 0.00012 * n,
        batcher=BatcherConfig(max_batch_size=16, max_queue_delay=0.002)))
    if profiler != "none":
        server.attach_profiler(SimProfiler(clock=lambda: sim.now,
                                           enabled=(profiler == "on")))
    client = OpenLoopClient(server, "vit_tiny", rate_per_second=800.0,
                            num_requests=requests, seed=7)
    sampler = TimeSeriesSampler(server, interval=0.05)
    client.start()
    sampler.start()
    sim.run()
    return len(server.responses), sim.events_processed, registry


def _profiled_replay(requests: int, mode: str) -> tuple:
    """The serving replay with the profiler ``"none"``/``"off"``/``"on"``.

    Returns ``(responses, events_processed, scrape)`` — the scrape is
    part of the result on purpose: the verify step compares it byte for
    byte across modes, which *is* the zero-instrumentation-cost
    contract (attaching a profiler must not change what a run reports).
    """
    from repro.serving.events import Simulator
    from repro.serving.exporter import export_registry
    from repro.serving.observability import MetricsRegistry

    responses, events, registry = _serving_replay(
        Simulator, MetricsRegistry, requests, profiler=mode)
    return responses, events, export_registry(registry)


def build_profile_scenarios(quick: bool = False) -> list[Scenario]:
    """The BENCH_profile suite: the profiler's own overhead.

    Both scenarios share the baseline (no profiler at all); the
    "optimized" side is the instrumented run, so the reported speedup
    is the *overhead ratio* — 1.0 means free, and the floors bound how
    far below free each mode may fall.
    """
    requests = 1500 if quick else 6000

    def identical(a, b) -> None:
        assert a[0] == b[0], (
            f"response counts diverged: {a[0]} vs {b[0]}")
        assert a[1] == b[1], (
            f"event counts diverged: {a[1]} vs {b[1]}")
        assert a[2] == b[2], (
            "metrics scrape changed with the profiler attached")

    return [
        Scenario(
            name="profile_off_overhead",
            layer="observability",
            description="serving replay: bare vs profiler attached "
                        "but disabled (the zero-cost contract)",
            baseline=functools.partial(_profiled_replay, requests, "none"),
            optimized=functools.partial(_profiled_replay, requests, "off"),
            verify=identical),
        Scenario(
            name="profile_on_overhead",
            layer="observability",
            description="serving replay: bare vs profiler enabled "
                        "(full sim;run / serve;* / control;* "
                        "attribution)",
            baseline=functools.partial(_profiled_replay, requests, "none"),
            optimized=functools.partial(_profiled_replay, requests, "on"),
            verify=identical),
    ]


def build_scenarios(quick: bool = False) -> list[Scenario]:
    """The BENCH_core scenario set (smaller workloads when ``quick``)."""
    from repro.models.functional import init_vit_weights, vit_forward
    from repro.models.vit import VIT_CONFIGS
    from repro.models.workspace import WeightPack
    from repro.preprocessing.ops import (ground_plane_homography,
                                         resize_bilinear,
                                         warp_perspective)
    from repro.serving.events import Simulator
    from repro.serving.observability import MetricsRegistry

    n_events = 20_000 if quick else 120_000
    n_requests = 400 if quick else 4_000
    batch = 2 if quick else 8
    n_frames = 4 if quick else 24

    def counts_equal(a, b) -> None:
        assert a == b, f"baseline/optimized diverged: {a} != {b}"

    scenarios = [
        Scenario(
            name="simulator_core",
            layer="simulator",
            description=(f"{n_events} events with ties, cancels and "
                         "daemon peeks"),
            baseline=lambda: _simulator_churn(legacy.LegacySimulator(),
                                              n_events),
            optimized=lambda: _simulator_churn(Simulator(), n_events),
            verify=counts_equal,
        ),
        Scenario(
            name="instrumented_serving",
            layer="instrumentation",
            description=(f"{n_requests}-request open-loop replay through "
                         "the instrumented serving stack"),
            baseline=lambda: _serving_replay(
                legacy.LegacySimulator, legacy.LegacyMetricsRegistry,
                n_requests)[:2],
            optimized=lambda: _serving_replay(
                Simulator, MetricsRegistry, n_requests)[:2],
            verify=counts_equal,
        ),
    ]

    cfg = VIT_CONFIGS["vit_tiny"]
    weights = init_vit_weights(cfg, seed=0)
    pack = WeightPack(weights)
    x = np.random.default_rng(11).standard_normal(
        (batch, cfg.in_channels, cfg.img_size, cfg.img_size)
    ).astype(np.float32)

    def logits_close(a, b) -> None:
        assert np.allclose(a, b, rtol=1e-4, atol=1e-5), \
            "packed forward diverged from the seed forward"

    scenarios.append(Scenario(
        name="vit_tiny_forward",
        layer="kernels",
        description=f"ViT-Tiny batch-{batch} forward pass",
        baseline=lambda: legacy.legacy_vit_forward(cfg, weights, x),
        optimized=lambda: vit_forward(cfg, weights, x, pack=pack),
        verify=logits_close,
    ))

    frame_rng = np.random.default_rng(5)
    frames = [frame_rng.integers(0, 255, size=(240, 320, 3))
              .astype(np.uint8) for _ in range(n_frames)]
    hom = ground_plane_homography(320, 240)

    def preprocess_loop(resize, warp) -> np.ndarray:
        acc = 0.0
        for frame in frames:
            warped = warp(frame, hom, 240, 320)
            acc += float(resize(warped, 224, 224).sum())
        return acc

    def sums_close(a, b) -> None:
        assert np.isclose(a, b, rtol=1e-6), \
            f"preprocess outputs diverged: {a} != {b}"

    scenarios.append(Scenario(
        name="preprocess_warp",
        layer="kernels",
        description=(f"{n_frames}-frame CRSA warp + resize loop "
                     "(320x240 -> 224x224)"),
        baseline=lambda: preprocess_loop(legacy.legacy_resize_bilinear,
                                         legacy.legacy_warp_perspective),
        optimized=lambda: preprocess_loop(resize_bilinear,
                                          warp_perspective),
        verify=sums_close,
    ))
    return scenarios


#: Relative tail-quantile tolerance of the fluid parity contract:
#: throughput must match exactly; p95/p99/mean may differ by this
#: fraction (the recursion prices in-batch residency with one constant
#: offset instead of per-batch timing).
FLUID_PARITY_RTOL = 0.12

#: Looser band for the median: on mixed traces p50 sits right at the
#: cliff between unsaturated and backlogged arrivals, where a small
#: horizontal shift in the latency CDF is a large relative error.
FLUID_PARITY_P50_RTOL = 0.30


def _fluid_summary(completed: int, latencies) -> dict:
    """The comparable outcome of one replay (either engine)."""
    values = np.asarray(latencies, dtype=float)
    p50, p95, p99 = np.quantile(values, [0.5, 0.95, 0.99])
    return {"completed": completed, "mean": float(values.mean()),
            "p50": float(p50), "p95": float(p95), "p99": float(p99)}


def _fluid_server(instances: int, model: str = "harvest",
                  per_image: float = 0.05, max_batch_size: int = 64,
                  max_queue_delay: float = 0.1):
    """A one-model server the saturated fluid traces overload.

    The ``harvest`` defaults serve 64 images per 3.21 s batch (~19.9
    req/s per instance): one instance saturates under a peak-30/s
    diurnal day, two under 60/s survey bursts.
    """
    from repro.serving.batcher import BatcherConfig
    from repro.serving.server import ModelConfig, TritonLikeServer

    server = TritonLikeServer()
    server.register(ModelConfig(
        model, service_time=lambda n: 0.01 + per_image * n,
        batcher=BatcherConfig(max_batch_size=max_batch_size,
                              max_queue_delay=max_queue_delay),
        instances=instances))
    return server


def _fluid_parity(base: dict, opt: dict) -> None:
    """The parity contract: exact throughput, quantiles in tolerance."""
    assert base["completed"] == opt["completed"], (
        f"throughput diverged: exact {base['completed']} vs hybrid "
        f"{opt['completed']}")
    bands = (("p95", FLUID_PARITY_RTOL), ("p99", FLUID_PARITY_RTOL),
             ("mean", FLUID_PARITY_RTOL), ("p50", FLUID_PARITY_P50_RTOL))
    for key, rtol in bands:
        lo = base[key] * (1 - rtol)
        hi = base[key] * (1 + rtol)
        assert lo <= opt[key] <= hi, (
            f"{key} diverged past {rtol:.0%}: exact "
            f"{base[key]:.3f}s vs hybrid {opt[key]:.3f}s")


def build_fluid_scenarios(quick: bool = False) -> list[Scenario]:
    """The BENCH_fluid parity scenario set (smaller when ``quick``).

    Both scenarios keep the exact engine feasible (backlogs bounded to
    a few thousand requests) so baseline and hybrid can be compared
    directly — the parity contract is the verification step.  Full
    mode's burst day is a ~1.25M-arrival survey-upload trace: dozens of
    saturated bursts, each a fluid entry/exit cycle.  The workload the
    exact engine *cannot* replay lives in :func:`run_fluid_frontier`.
    """
    from repro.serving.traces import burst_trace, step_trace

    if quick:
        step = step_trace(duration=300.0, base_rate=5.0,
                          step_rate=120.0, step_start=30.0,
                          step_end=150.0, seed=3)
        burst = burst_trace(duration=3600.0, background_rate=6.0,
                            bursts=4, burst_rate=60.0,
                            burst_seconds=100.0, seed=11)
        burst_desc = "1-hour survey-burst trace, exact vs hybrid"
    else:
        step = step_trace(duration=1200.0, base_rate=5.0,
                          step_rate=120.0, step_start=50.0,
                          step_end=500.0, seed=3)
        burst = burst_trace(duration=86400.0, background_rate=8.0,
                            bursts=40, burst_rate=60.0,
                            burst_seconds=300.0, seed=11)
        burst_desc = ("survey-upload day (~1.25M arrivals, 40 "
                      "saturated bursts), exact vs hybrid")

    # capacity ~98 img/s vs a 120/s step
    step_server = functools.partial(
        _fluid_server, 2, model="crop", per_image=0.02,
        max_batch_size=32, max_queue_delay=0.05)
    burst_server = functools.partial(_fluid_server, 2)

    def exact(make_server, model, trace):
        from repro.serving.traces import TraceReplayer

        def run() -> dict:
            server = make_server()
            TraceReplayer(server, model).schedule(trace)
            server.run()
            return _fluid_summary(
                len(server.responses),
                [r.latency for r in server.responses if r.ok])
        return run

    def hybrid(make_server, model, trace):
        from repro.serving.fluid import HybridReplayer

        def run() -> dict:
            server = make_server()
            replayer = HybridReplayer(server, model)
            replayer.schedule(trace)
            server.run()
            return _fluid_summary(replayer.completed,
                                  replayer.latencies())
        return run

    return [
        Scenario(
            name="fluid_step_parity",
            layer="serving",
            description=(f"{len(step)}-arrival step overload, exact "
                         "vs hybrid"),
            baseline=exact(step_server, "crop", step),
            optimized=hybrid(step_server, "crop", step),
            verify=_fluid_parity,
        ),
        Scenario(
            name="fluid_burst_day",
            layer="serving",
            description=burst_desc,
            baseline=exact(burst_server, "harvest", burst),
            optimized=hybrid(burst_server, "harvest", burst),
            verify=_fluid_parity,
        ),
    ]


def run_fluid_frontier(quick: bool = False) -> dict:
    """Replay the deep-saturation diurnal day the exact engine cannot.

    The 1000x-scaled growing-season day (~1M arrivals against ~20
    req/s of capacity) backlogs hundreds of thousands of requests at
    midday; the exact batcher's per-dispatch full-queue scan makes that
    replay take hours, so this workload times the hybrid engine alone.
    Conservation (completions == arrivals) is asserted in place of
    pairwise parity — the parity contract itself is certified by the
    DES-feasible :func:`build_fluid_scenarios` workloads.  The bench
    gate bounds ``wall_seconds`` by the committed ``max_seconds``.
    """
    import time

    from repro.serving.fluid import HybridReplayer
    from repro.serving.traces import diurnal_trace

    if quick:
        trace = diurnal_trace(duration=21600.0, peak_rate=30.0,
                              base_rate=0.5,
                              daylight=(1800.0, 19800.0), seed=11)
        description = "6-hour deep-saturation diurnal (~250k arrivals)"
        max_seconds = 30.0
    else:
        trace = diurnal_trace(duration=86400.0, peak_rate=30.0,
                              base_rate=0.5, seed=11)
        description = ("1000x-scaled diurnal day (~1M arrivals, hours "
                       "of deep saturation; exact replay infeasible)")
        max_seconds = 90.0

    server = _fluid_server(1)
    replayer = HybridReplayer(server, "harvest")
    replayer.schedule(trace)
    start = time.perf_counter()
    server.run()
    wall = time.perf_counter() - start
    assert replayer.completed == len(trace), (
        f"conservation violated: {replayer.completed} completions for "
        f"{len(trace)} arrivals")
    summary = replayer.latency_summary()
    return {
        "name": "fluid_diurnal_million",
        "layer": "serving",
        "description": description,
        "arrivals": len(trace),
        "fluid_completed": replayer.fluid_completed,
        "fluid_intervals": len(replayer.intervals),
        "wall_seconds": wall,
        "max_seconds": max_seconds,
        "p95": summary["p95"],
        "p99": summary["p99"],
    }


# ----------------------------------------------------------------------
# BENCH_faas: the serverless execution model priced against provisioned
# ----------------------------------------------------------------------
def _faas_workload(quick: bool):
    """The shared sparse-diurnal workload both execution models replay."""
    from repro.serving.traces import sparse_diurnal_trace

    duration = 600.0 if quick else 2400.0
    return sparse_diurnal_trace(duration=duration, peak_rate=20.0,
                                night_rate=0.05, seed=7)


def _provisioned_replay(trace) -> tuple:
    """Baseline: the same trace through a provisioned replica."""
    from repro.serving.batcher import BatcherConfig
    from repro.serving.events import Simulator
    from repro.serving.observability import MetricsRegistry
    from repro.serving.server import ModelConfig, TritonLikeServer
    from repro.serving.traces import TraceReplayer

    sim = Simulator()
    server = TritonLikeServer(
        sim, registry=MetricsRegistry(clock=lambda: sim.now))
    server.register(ModelConfig(
        "infer", lambda n: 0.002 * n, instances=2,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.005)))
    TraceReplayer(server, "infer").schedule(trace)
    sim.run()
    ok = sum(1 for r in server.responses if r.status == "ok")
    return ok, 0, 0


def _faas_replay(trace, keep_alive: float) -> tuple:
    """The same trace through the serverless backend."""
    from repro.faas import FaaSBackend, FaaSFunctionConfig
    from repro.faas.platform import FaaSPlatformModel
    from repro.serving.events import Simulator
    from repro.serving.observability import MetricsRegistry
    from repro.serving.traces import TraceReplayer

    platform = FaaSPlatformModel(
        name="bench", cold_start_base_seconds=0.25,
        cold_start_jitter_seconds=0.1, artifact_bytes=100e6,
        artifact_bandwidth_bps=1e9, memory_gb=2.0)
    sim = Simulator()
    backend = FaaSBackend(
        sim, registry=MetricsRegistry(clock=lambda: sim.now), seed=7)
    backend.register(FaaSFunctionConfig(
        "infer", lambda n: 0.002 * n, platform=platform,
        concurrency_limit=32, keep_alive_seconds=keep_alive))
    TraceReplayer(backend, "infer").schedule(trace)
    sim.run()
    stats = backend.function_stats("infer")
    ok = sum(1 for r in backend.responses if r.status == "ok")
    return ok, stats.cold_starts, stats.reaps


def build_faas_scenarios(quick: bool = False) -> list[Scenario]:
    """The BENCH_faas suite: what the serverless model costs to run.

    Like BENCH_profile, these floors bound *overhead*, not gains: the
    serverless backend spawns, tracks, and reaps an instance per
    concurrency slot where the provisioned server batches into a
    static pool, so its replay is allowed to be slower — the floors
    bound how much slower before the gate trips.
    """
    trace = _faas_workload(quick)

    def served_equal(a, b) -> None:
        assert a[0] == b[0], (
            f"served counts diverged: {a[0]} vs {b[0]}")

    def scale_to_zero_works(a, b) -> None:
        assert a[0] == b[0], (
            f"served counts diverged: {a[0]} vs {b[0]}")
        assert b[1] > a[1], (
            f"short keep-alive produced no extra cold starts "
            f"({b[1]} vs {a[1]})")
        assert b[2] > 0, "short keep-alive never reaped an instance"

    return [
        Scenario(
            name="faas_vs_provisioned",
            layer="faas",
            description="sparse diurnal trace: provisioned replica "
                        "vs on-demand serverless instances",
            baseline=lambda: _provisioned_replay(trace),
            optimized=lambda: _faas_replay(trace, keep_alive=60.0),
            verify=served_equal),
        Scenario(
            name="faas_scale_to_zero",
            layer="faas",
            description="serverless replay: never-reap warm pool vs "
                        "scale-to-zero keep-alive reaping",
            baseline=lambda: _faas_replay(trace, keep_alive=1e9),
            optimized=lambda: _faas_replay(trace, keep_alive=15.0),
            verify=scale_to_zero_works),
    ]


def build_sweep_scenarios(quick: bool = False,
                          jobs: int = 4) -> list[Scenario]:
    """The BENCH_sweep suite: the sweep engine against itself.

    One scenario: a seed-replicated sparse-diurnal grid run
    sequentially (baseline) and through a ``jobs``-worker process pool
    (optimized).  The verify step *is* the engine's determinism
    contract — the merged metrics scrape, folded sim-time profile, and
    bucket-re-accumulated summary must be byte-identical across the
    two runs before the wall-clock ratio means anything.  Floors live
    in :func:`repro.perf.bench.sweep_min_speedup` because the honest
    bar depends on the host's core count.
    """
    from repro.serving.exporter import export_registry
    from repro.sweep import (SweepRunner, SweepSpec, merge_profiles,
                             merge_registries, merge_summaries)

    spec = SweepSpec(
        worker="repro.sweep.workloads:replay_sparse_diurnal",
        base_params={
            "duration": 600.0 if quick else 3600.0,
            "peak_rate": 3.0 if quick else 8.0,
            "instances": 2,
        },
        replications=4 if quick else 8,
        base_seed=1234)

    def run_with(n_jobs: int):
        def run() -> dict:
            result = SweepRunner(jobs=n_jobs).run(spec)
            result.raise_on_error()
            values = result.values()
            registry = merge_registries(v["registry"] for v in values)
            profiler = merge_profiles(v["profiler"] for v in values)
            summary = merge_summaries(v["summary"] for v in values)
            return {
                "scrape": export_registry(registry),
                "folded": profiler.render_folded(),
                "summary": summary.as_dict(),
                "completed": sum(v["completed"] for v in values),
            }
        return run

    def merged_identical(base: dict, opt: dict) -> None:
        assert base["completed"] == opt["completed"], (
            f"completion counts diverged: sequential "
            f"{base['completed']} vs pooled {opt['completed']}")
        assert base["scrape"] == opt["scrape"], (
            "merged metrics scrape diverged between sequential and "
            "pooled runs — the merge is order- or process-dependent")
        assert base["folded"] == opt["folded"], (
            "merged folded profile diverged between sequential and "
            "pooled runs")
        assert base["summary"] == opt["summary"], (
            f"merged summary diverged: {base['summary']} vs "
            f"{opt['summary']}")

    return [
        Scenario(
            name="sweep_parallel_replay",
            layer="sweep",
            description=(f"{len(spec.shards())}-shard seeded "
                         f"sparse-diurnal grid, sequential vs "
                         f"{jobs}-worker pool"),
            baseline=run_with(1),
            optimized=run_with(jobs),
            verify=merged_identical),
    ]
