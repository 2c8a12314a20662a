"""Fig 8 continuum benchmark: end-to-end host throughput per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload continuum_churn --seed 1 \\
        --seconds 20 --trace 0

Each run generates its inputs from ``--seed``, then repeats
set-up -> timed replay -> output check until ``--seconds`` have passed
(after one warm-up repetition), and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` (repetitions) and
``metrics``.  ``--trace 0`` reports the end-to-end metrics (medians over
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of ``layers.PER_LAYER``.
``--workload all`` runs every workload, each in its own process, and
prints a table.  ``--digest`` runs one repetition and prints the
simulated-statistics digest, failing if it differs from the one
committed in ``digests.json`` for that workload and seed.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("continuum_churn", "continuum_static", "burst_day_hybrid",
                  "kernels_frames")
END_TO_END = (("items_per_s", "items/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
#: Repetitions timed at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Stop starting repetitions after this many seconds of measurement.
HARD_STOP_S = 120.0


def _import_program():
    """Import the benchmark modules (and the program under test).

    The program must come from this checkout's ``src``, never from an
    installed copy, so a missing ``src`` is an import error.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise ImportError(f"no program source under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    import tracer
    import workloads
    return workloads, tracer, layers


def _phase(log, name: str, fn, *args):
    if log is None:
        return fn(*args)
    index = log.begin(name)
    try:
        return fn(*args)
    finally:
        log.finish(index)


def _build_all(workload, trace, frames) -> list[dict]:
    return [workload.build(trace, frames) for _ in range(workload.replays)]


def _replay_all(workload, topos: list[dict], probe) -> tuple:
    """Replay every topology; returns (results, replay seconds, loops).

    ``probe`` (a host-speed loop, or None) runs after each replay; its
    time is not replay time.
    """
    results, loops, replay_s = [], [], 0.0
    for topo in topos:
        start = time.perf_counter()
        results.append(workload.replay(topo))
        replay_s += time.perf_counter() - start
        if probe is not None:
            loops.append(probe())
    return results, replay_s, loops


def one_rep(workload, seed: int, log=None, probe=None) -> dict:
    """Set up, replay (timed) and check one repetition.

    A repetition replays ``workload.replays`` independent copies of the
    topology built from one set of inputs; every copy must produce the
    same digest.  ``probe`` (the host-speed loop) runs between set-up
    and replay and after each replay, outside the timed regions; its
    times are returned as ``loops_s``.
    """
    gc.collect()
    clock = time.perf_counter
    root = log.begin("bench:rep") if log is not None else None
    t0 = clock()
    trace = _phase(log, "setup:trace", workload.make_trace, seed)
    frames = _phase(log, "setup:frames", workload.make_frames, seed)
    topos = _phase(log, "setup:build", _build_all, workload, trace, frames)
    setup_s = clock() - t0
    loops = [probe()] if probe is not None else []
    results, replay_s, more = _phase(log, "bench:replay", _replay_all,
                                     workload, topos, probe)
    if log is not None:
        log.finish(root)
    errors = []
    for result in results:
        result["finalized"] = workload.count(result)
        errors += workload.check(result)
    digests = [workload.digest(result) for result in results]
    if any(d != digests[0] for d in digests):
        errors.append("replays of one input set disagree")
    return {"setup_s": setup_s, "replay_s": replay_s,
            "wall_s": setup_s + replay_s, "loops_s": loops + more,
            "items": sum(r["finalized"] for r in results),
            "results": results, "digest": digests[0], "errors": errors}


def py_loop() -> float:
    """Seconds this host takes for a fixed pure-Python heap/dict loop."""
    start = time.perf_counter()
    heap, seen = [], {}
    for i in range(40_000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        seen[i % 4096] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def np_loop() -> float:
    """Seconds this host takes for fixed small GEMMs and a pixel gather."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192)).astype(np.float32)
    image = rng.integers(0, 255, (240, 320, 3), dtype=np.uint8)
    ys = rng.integers(0, 240, 240 * 320)
    xs = rng.integers(0, 320, 240 * 320)
    start = time.perf_counter()
    for _ in range(30):
        a @ a
    for _ in range(6):
        image[ys, xs].astype(np.float32)
    return time.perf_counter() - start


#: Host-speed units: a loop like the workload's own work, and the loop
#: time of the reference host that gated times are scaled to.  The
#: loop runs around every set-up and after each replay, so it tracks
#: how fast the (shared, noisy) host runs at that moment.
HOST_UNITS = {"python": (py_loop, 0.030), "numpy": (np_loop, 0.015)}


def gemm_gflops() -> float:
    """Best float32 GEMM rate of the host (pinned BLAS threads)."""
    from repro.hardware.gemm import GemmBenchmark

    sweep = GemmBenchmark(sizes=(256, 512), repeats=5).run_host(
        theoretical_tflops=1.0, max_size=512)
    return max(r.achieved_tflops for r in sweep.results) * 1e3


def manifest(seed: int) -> dict:
    import numpy as np

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        head = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        head = "unknown"
    return {"seed": seed, "git_head": head,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "host.py_loop_s": statistics.median(py_loop() for _ in range(3)),
            "host.gemm_gflops": gemm_gflops()}


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, traced: bool, tracer):
    """The repetition loop.

    Returns (untraced repetitions, traced repetitions, attempted,
    failed, check messages).
    """
    reps, traced_reps = [], []
    attempted = failed = 0
    messages: list[str] = []

    loop, reference = HOST_UNITS[workload.host_unit]

    def attempt(log=None, counters=None):
        nonlocal attempted, failed
        attempted += 1
        before = loop()
        try:
            if log is None:
                rep = one_rep(workload, seed, probe=loop)
            else:
                with tracer.Hooks(log, counters):
                    rep = one_rep(workload, seed, log)
        except Exception as exc:  # a crashed repetition is a failed one
            failed += 1
            messages.append(f"{type(exc).__name__}: {exc}")
            return None
        loops = rep["loops_s"]
        if loops:  # one loop before replaying, then one per replay
            setup_loop = (before + loops[0]) / 2
            replay_loop = statistics.fmean(loops)
        else:
            setup_loop = replay_loop = (before + loop()) / 2
        rep["replay_loop_s"] = replay_loop
        # How much faster than the reference host each phase ran.
        rep["setup_speed"] = reference / setup_loop
        rep["replay_speed"] = reference / replay_loop
        if rep["errors"]:
            failed += 1
            messages.extend(rep["errors"])
        return rep

    attempt()  # warm-up: imports, grid caches, BLAS start-up
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(reps) >= MIN_REPS and (
            not traced or len(traced_reps) >= MIN_REPS)
        if (elapsed >= seconds and enough) or elapsed >= HARD_STOP_S:
            break
        rep = attempt()
        if rep is not None:
            del rep["results"]  # keep peak memory to one repetition's
            reps.append(rep)
        if traced:
            log, counters = tracer.SpanLog(), tracer.Counters()
            rep = attempt(log, counters)
            if rep is not None:
                rep["log"], rep["counters"] = log, counters
                if traced_reps:
                    del traced_reps[-1]["results"]
                traced_reps.append(rep)
    return reps, traced_reps, attempted, failed, messages


def end_to_end(reps: list[dict]) -> dict:
    """Medians over repetitions, at reference host speed."""
    return {
        "items_per_s": statistics.median(
            r["items"] / r["replay_s"] / r["replay_speed"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"]
                                     for r in reps),
        "peak_rss_mb": _rss_mb(),
    }


def per_layer(reps: list[dict], traced_reps: list[dict], host: dict,
              layers) -> dict:
    """The per-layer metrics from the traced (and untraced) repetitions."""
    totals: dict[str, float] = {}
    for rep in traced_reps:
        for span, value in rep["log"].self_times().items():
            totals[span] = totals.get(span, 0.0) + value
    mean = {span: value / len(traced_reps) for span, value in totals.items()}
    last = traced_reps[-1]
    out = layers.count_metrics(last["results"], last["counters"])
    out.update(layers.self_time_metrics(mean))
    counts = last["log"].counts()
    out["batcher.form_batch_calls"] = counts.get("batcher:form_batch", 0)
    out["engine.latency_calls"] = counts.get("engine:latency", 0)
    out["prep_model.calls"] = counts.get("prep_model:estimate", 0)
    if out["model.forward_s"] > 0:
        out["model.gflops"] = 2.0 * out["model.macs"] / out["model.forward_s"] / 1e9
        out["model.peak_frac"] = out["model.gflops"] / host["host.gemm_gflops"]

    def normalized_wall(rep):
        return (rep["setup_s"] * rep["setup_speed"]
                + rep["replay_s"] * rep["replay_speed"])

    traced_wall = statistics.median(map(normalized_wall, traced_reps))
    plain_wall = statistics.median(map(normalized_wall, reps))
    # Span 0 of each traced repetition is its root, ``bench:rep``.
    out["trace.wall_s"] = sum(r["log"].end[0] - r["log"].start[0]
                              for r in traced_reps) / len(traced_reps)
    out["trace.residual_frac"] = out["bench.self_s"] / out["trace.wall_s"]
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    missing = layers.unattributed(mean)
    if abs(missing) > 1e-9:
        raise RuntimeError(f"{missing:.6f} s of span self time unclaimed")
    return out


def run_one(args) -> int:
    try:
        workloads, tracer, layers = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.digest:
        return run_digest(workload, args.seed)
    info = manifest(args.seed)
    reps, traced_reps, attempted, failed, messages = measure(
        workload, args.seed, args.seconds, bool(args.trace), tracer)
    if not reps or (args.trace and not traced_reps):
        print(f"error: no repetition succeeded: {messages[:3]}",
              file=sys.stderr)
        return 1
    info["host.unit"] = workload.host_unit
    info["host.unit_loop_s"] = statistics.median(
        r["replay_loop_s"] for r in reps + traced_reps)
    print("manifest " + json.dumps(info, sort_keys=True))
    for message in sorted(set(messages)):
        print(f"check failed: {message}")
    if args.trace:
        values = per_layer(reps, traced_reps, info, layers)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        traced_reps[-1]["log"].write(spans)
        print(f"spans: {len(traced_reps[-1]['log'])} written to "
              f"{spans.relative_to(ROOT)}")
    else:
        values = end_to_end(reps)
        units = dict(END_TO_END)
        raw = sorted(r["items"] / r["replay_s"] for r in reps)
        print(f"{workload.unit_label}: {values['items_per_s']:.4f} "
              f"{workload.unit_label.rsplit('_per_', 1)[0]}/s at reference "
              f"host speed (median of {len(reps)} repetitions, "
              f"{reps[0]['items']} per repetition; as measured: median "
              f"{statistics.median(raw):.4f}, range {raw[0]:.4f}.."
              f"{raw[-1]:.4f})")
        print(f"failed_frac: {failed / attempted:.4f} "
              f"({failed} of {attempted} repetitions)")
    for name in units:
        print(f"{name}: {values[name]:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_digest(workload, seed: int) -> int:
    rep = one_rep(workload, seed)
    digest = rep["digest"]
    print(json.dumps({"workload": workload.name, "seed": seed,
                      "digest": digest, "errors": rep["errors"]},
                     sort_keys=True))
    committed = json.loads((HERE / "digests.json").read_text())
    expected = committed.get(workload.name, {}).get(str(seed))
    if rep["errors"]:
        return 1
    if expected is not None and expected != digest:
        print(f"digest differs from digests.json: {expected}",
              file=sys.stderr)
        return 1
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines[:-1]:
            print(f"  {line}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print the simulated-statistics digest only")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
