"""Deterministic workloads for the perf harness's ratio suites.

Each scenario runs the same workload two ways and verifies the two
runs agree before their timings mean anything:

* :func:`build_profile_scenarios` — a bare serving replay vs. the same
  replay with the profiler attached; verify is byte-identical scrapes;
* :func:`build_faas_scenarios` — a provisioned replica vs. the
  serverless backend, and never-reap vs. scale-to-zero;
* :func:`build_sweep_scenarios` — the sweep engine sequential vs. a
  process pool; verify is the merge determinism contract.

:data:`repro.perf.bench.SUITES` pairs each builder with its floors.
All inputs are seeded; no wall-clock or RNG state leaks into the
workload, so any two runs time the same work.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Callable


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


def _profiled_replay(requests: int, mode: str) -> tuple:
    """The real serving stack end to end, profiler ``mode`` applied.

    ``mode`` is ``"none"``, ``"off"`` (attached but disabled) or
    ``"on"``.  Returns ``(responses, events_processed, scrape)`` — the
    scrape is part of the result on purpose: the verify step compares
    it byte for byte across modes, which *is* the
    zero-instrumentation-cost contract (attaching a profiler must not
    change what a run reports).
    """
    from repro.serving.batcher import BatcherConfig
    from repro.serving.client import OpenLoopClient
    from repro.serving.exporter import export_registry
    from repro.serving.observability import TimeSeriesSampler
    from repro.serving.profiler import SimProfiler
    from repro.serving.server import ModelConfig, TritonLikeServer

    server = TritonLikeServer()
    sim = server.sim
    server.register(ModelConfig(
        "vit_tiny", lambda n: 0.0004 + 0.00012 * n,
        batcher=BatcherConfig(max_batch_size=16, max_queue_delay=0.002)))
    if mode != "none":
        server.attach_profiler(SimProfiler(clock=lambda: sim.now,
                                           enabled=(mode == "on")))
    client = OpenLoopClient(server, "vit_tiny", rate_per_second=800.0,
                            num_requests=requests, seed=7)
    sampler = TimeSeriesSampler(server, interval=0.05)
    client.start()
    sampler.start()
    sim.run()
    return (len(server.responses), sim.events_processed,
            export_registry(server.metrics))


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
    from repro.serving.server import ModelConfig, TritonLikeServer
    from repro.serving.traces import TraceReplayer

    server = TritonLikeServer()
    server.register(ModelConfig(
        "infer", lambda n: 0.002 * n, instances=2,
        batcher=BatcherConfig(max_batch_size=8,
                              max_queue_delay=0.005)))
    TraceReplayer(server, "infer").schedule(trace)
    server.run()
    ok = sum(1 for r in server.responses if r.status == "ok")
    return ok, 0, 0


def _faas_replay(trace, keep_alive: float) -> tuple:
    """The same trace through the serverless backend."""
    from repro.faas import FaaSBackend, FaaSFunctionConfig
    from repro.faas.platform import FaaSPlatformModel
    from repro.serving.events import Simulator
    from repro.serving.traces import TraceReplayer

    platform = FaaSPlatformModel(
        name="bench", cold_start_base_seconds=0.25,
        cold_start_jitter_seconds=0.1, artifact_bytes=100e6,
        artifact_bandwidth_bps=1e9, memory_gb=2.0)
    sim = Simulator()
    backend = FaaSBackend(sim, seed=7)
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
