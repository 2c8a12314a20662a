"""Spawn-safe sweep workers.

Every function here is a module-level callable taking one ``params``
dict and returning a picklable result — the shape
:func:`repro.sweep.spec.resolve_worker` demands, so a
:class:`~repro.sweep.spec.SweepSpec` can name them by import path
(``"repro.sweep.workloads:replay_sparse_diurnal"``) and re-resolve them
inside ``spawn``- or ``fork``-started pool workers without pickling a
closure.

:func:`replay_sparse_diurnal` is the production workload behind
``repro sweep``; the ``_probe``/``_always_fails``/``_flaky_once``/
``_sleep_forever`` workers exist for the runner's fault-path and
determinism tests (module-level here because test-module functions are
not importable from spawned workers).
"""

from __future__ import annotations

import os
import time

#: Summary bounds for the replay workload: dense through the
#: 10-100 ms band where a batched edge server's latencies actually
#: live, so merged quantiles resolve the batching-delay structure
#: instead of collapsing into one coarse bucket.
LATENCY_BOUNDS: tuple[float, ...] = (
    0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045,
    0.05, 0.055, 0.06, 0.065, 0.07, 0.075, 0.08, 0.09, 0.1,
    0.125, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0,
)


def replay_sparse_diurnal(params: dict) -> dict:
    """Replay one seeded sparse-diurnal day against a Triton-like server.

    The sweep's canonical shard: builds the paper's orchard-gateway
    arrival pattern (quiet nights, scouting-flight mornings) for the
    shard's derived ``seed``, serves it, and returns mergeable pieces —
    a metrics registry, a sim-time profiler, and a
    :class:`~repro.sweep.merge.BucketSummary` over request latencies —
    alongside scalar per-shard fields for the sweep table.

    Recognized ``params`` (beyond the runner-injected ``seed`` /
    ``shard_index`` / ``replication``): ``duration``, ``peak_rate``,
    ``night_rate``, ``service_time_base``, ``service_time_per_image``,
    ``instances``, ``max_batch_size``, ``max_queue_delay``.
    """
    from repro.analysis.stats import nearest_rank_quantile
    from repro.serving.batcher import BatcherConfig
    from repro.serving.observability import MetricsRegistry
    from repro.serving.profiler import SimProfiler
    from repro.serving.events import Simulator
    from repro.serving.server import ModelConfig, TritonLikeServer
    from repro.serving.traces import TraceReplayer, sparse_diurnal_trace
    from repro.sweep.merge import BucketSummary

    seed = int(params["seed"])
    trace = sparse_diurnal_trace(
        duration=float(params.get("duration", 3600.0)),
        peak_rate=float(params.get("peak_rate", 2.0)),
        night_rate=float(params.get("night_rate", 0.01)),
        seed=seed)

    sim = Simulator()
    registry = MetricsRegistry(clock=lambda: sim.now)
    server = TritonLikeServer(sim, registry=registry)
    profiler = SimProfiler(clock=lambda: sim.now)
    server.attach_profiler(profiler)
    base = float(params.get("service_time_base", 0.012))
    per_image = float(params.get("service_time_per_image", 0.004))
    server.register(ModelConfig(
        "infer", service_time=lambda n: base + per_image * n,
        batcher=BatcherConfig(
            max_batch_size=int(params.get("max_batch_size", 8)),
            max_queue_delay=float(params.get("max_queue_delay", 0.05))),
        instances=int(params.get("instances", 1))))
    TraceReplayer(server, "infer").schedule(trace)
    server.run()

    latencies = [r.latency for r in server.responses if r.ok]
    # Per-shard quantiles are exact (the raw samples are right here);
    # only cross-shard aggregation goes through the mergeable summary.
    summary = BucketSummary.from_values(latencies, LATENCY_BOUNDS)
    return {
        "seed": seed,
        "shard_index": int(params["shard_index"]),
        "replication": int(params.get("replication", 0)),
        "arrivals": len(trace),
        "completed": len(latencies),
        "sim_seconds": sim.now,
        "events": sim.events_processed,
        "p50": nearest_rank_quantile(latencies, 0.50),
        "p95": nearest_rank_quantile(latencies, 0.95),
        "p99": nearest_rank_quantile(latencies, 0.99),
        "summary": summary,
        "registry": registry,
        "profiler": profiler,
    }


# ---------------------------------------------------------------------
# Deterministic micro-workers for runner tests (importable from spawned
# processes, unlike functions defined inside test modules).
# ---------------------------------------------------------------------

def _probe(params: dict) -> dict:
    """Echo worker: derived seed, pid, and a seed-dependent value."""
    return {
        "shard_index": params["shard_index"],
        "seed": params["seed"],
        "value": (params["seed"] % 1000) * params.get("scale", 1),
        "pid": os.getpid(),
    }


def _probe_or_fail(params: dict) -> dict:
    """Echo worker that raises when ``params['fail_on']`` is truthy."""
    if params.get("fail_on"):
        raise RuntimeError(
            f"shard {params['shard_index']} told to fail")
    return _probe(params)


def _always_fails(params: dict) -> dict:
    """Raise on every attempt (exercises retry exhaustion)."""
    raise RuntimeError(
        f"shard {params['shard_index']} failed as designed")


def _flaky_once(params: dict) -> dict:
    """Fail the first attempt per shard, succeed on the retry.

    A marker file (under ``params['marker_dir']``) records that the
    first attempt happened, so the retry — which reruns with the *same*
    derived seed — succeeds and proves retry determinism across process
    boundaries.
    """
    marker = os.path.join(
        params["marker_dir"], f"shard-{params['shard_index']}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(str(params["seed"]))
        raise RuntimeError("first attempt fails by design")
    with open(marker, encoding="utf-8") as fh:
        first_seed = int(fh.read())
    return {"shard_index": params["shard_index"],
            "seed": params["seed"],
            "first_attempt_seed": first_seed,
            "seeds_match": first_seed == params["seed"]}


def _sleep_forever(params: dict) -> dict:
    """Block far past any test timeout (exercises pool teardown)."""
    time.sleep(params.get("sleep_seconds", 3600.0))
    return {"shard_index": params["shard_index"]}


def _unpicklable_failure(params: dict) -> dict:
    """Raise an exception that cannot cross the process boundary.

    A classic ``ProcessPoolExecutor`` wedge: an exception holding an
    unpicklable payload kills the result pipe.  The runner stringifies
    tracebacks worker-side, so this must surface as a normal
    ``ShardError``.
    """
    class _Local(Exception):
        def __init__(self) -> None:
            super().__init__("unpicklable by design")
            self.payload = lambda: None

    raise _Local()
