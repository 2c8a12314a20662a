"""One bench harness for every suite: verify, then time both sides.

``run_suite`` builds one suite's scenarios from
:mod:`repro.perf.scenarios`, verifies that each scenario's baseline and
optimized runs agree, then times both (best of N repeats, which rejects
scheduler noise better than the mean) and returns a JSON-serializable
results document.  :data:`SUITES` holds what differs per suite — the
results name, the scenario builder, the full and quick floors, the
default repeats and an optional post-step:

* ``core`` (``BENCH_core``) — each optimized hot path against the seed
  implementation preserved in :mod:`repro.perf.legacy`;
* ``fluid`` (``BENCH_fluid``) — the hybrid fluid/DES engine against the
  exact replay on saturated traces; verify is the parity contract, and
  the post-step adds the frontier workload the exact engine cannot
  replay, gated on a wall-clock ceiling instead of a speedup;
* ``profile`` (``BENCH_profile``) — the observability layer's own
  overhead; verify compares metrics scrapes byte for byte;
* ``faas`` (``BENCH_faas``) — the serverless backend against a
  provisioned replica, and scale-to-zero against never-reap;
* ``sweep`` (``BENCH_sweep``) — the sweep engine sequential against a
  ``jobs``-worker pool; verify is the merge determinism contract, and
  the post-step applies the core-count-aware floor.

``check_regression`` compares a fresh run against a committed
reference: every scenario must hold its absolute ``min_speedup`` floor
and stay within a relative tolerance band of the recorded speedup.
Each suite commits a full and a quick reference under
``benchmarks/results/`` (``BENCH_<suite>.json`` and
``BENCH_<suite>_quick.json``); CI runs ``repro bench --suite <suite>
--quick --check benchmarks/results/BENCH_<suite>_quick.json`` for every
suite, so an optimization that quietly rots fails the build instead of
the next paper figure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections.abc import Callable
from pathlib import Path

from repro.perf.scenarios import (
    Scenario,
    build_faas_scenarios,
    build_fluid_scenarios,
    build_profile_scenarios,
    build_scenarios,
    build_sweep_scenarios,
    run_fluid_frontier,
)

#: Relative band around the recorded speedup (0.5 = may lose up to half
#: the recorded advantage before failing).  Generous on purpose: CI
#: machines are noisy, and the absolute floors do the hard gating.
DEFAULT_TOLERANCE = 0.5

#: Default timing repeats per side in ``--quick`` mode, every suite.
QUICK_REPEATS = 2


@dataclasses.dataclass(frozen=True)
class Suite:
    """What one bench suite runs, how it is gated, and its defaults."""

    #: ``"suite"`` field of the results document (``BENCH_<suite>``).
    results_name: str
    #: ``builder(quick, jobs)`` -> the suite's scenarios.
    builder: Callable[[bool, int], list[Scenario]]
    #: Absolute speedup floor per scenario, full and ``--quick`` runs.
    floors: dict[str, float]
    quick_floors: dict[str, float]
    #: Default timing repeats per side in full mode.
    repeats: int
    #: Optional ``finish(results, quick, jobs)`` step after timing.
    finish: Callable[[dict, bool, int], None] | None = None

    def default_repeats(self, quick: bool) -> int:
        """Timing repeats per side when ``--repeats`` is not given."""
        return QUICK_REPEATS if quick else self.repeats


def sweep_min_speedup(jobs: int, cpu_count: int | None = None,
                      quick: bool = False) -> float:
    """The BENCH_sweep floor this host can honestly be held to.

    With at least four effective cores (``min(jobs, cpu_count)``) the
    acceptance bar is 2.5x; with two or three the pool can still win
    but less; on one core a worker pool is pure overhead, so the floor
    only bounds how much (the determinism verify still runs in full).
    Quick mode shaves each bar — its shards are too small to amortize
    worker spawn cost.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    effective = min(max(1, jobs), max(1, cpu_count))
    if effective >= 4:
        return 1.5 if quick else 2.5
    if effective >= 2:
        return 1.05 if quick else 1.2
    return 0.4 if quick else 0.5


def _add_fluid_frontier(results: dict, quick: bool, jobs: int) -> None:
    """BENCH_fluid post-step: time the workload exact replay cannot."""
    results["frontier"] = run_fluid_frontier(quick=quick)


def _apply_sweep_floor(results: dict, quick: bool, jobs: int) -> None:
    """BENCH_sweep post-step: hold the pool to this host's floor.

    ``jobs``, ``cpu_count`` and the applied floor ride along in the
    document, so :func:`check_regression` can hold a multicore host to
    the real bar even against a reference recorded on fewer cores.
    """
    cpu_count = os.cpu_count() or 1
    floor = sweep_min_speedup(jobs, cpu_count, quick)
    results.update(jobs=jobs, cpu_count=cpu_count)
    for entry in results["scenarios"].values():
        entry.update(jobs=jobs, cpu_count=cpu_count, min_speedup=floor)


SUITES: dict[str, Suite] = {
    # Full floors are the acceptance bars of the optimization pass.
    # Quick workloads amortize fixed setup over far less work, so the
    # same code shows smaller speedups (and the tiny warp loop barely
    # exercises the grid cache).
    "core": Suite(
        results_name="BENCH_core",
        builder=lambda quick, jobs: build_scenarios(quick),
        floors={"simulator_core": 1.2, "instrumented_serving": 2.0,
                "vit_tiny_forward": 1.5, "preprocess_warp": 1.0},
        quick_floors={"simulator_core": 1.2,
                      "instrumented_serving": 1.4,
                      "vit_tiny_forward": 1.5, "preprocess_warp": 0.85},
        repeats=4),
    # The diurnal workload spends most of its day saturated, so nearly
    # all arrivals integrate analytically; the step workload has a
    # larger exact fraction.  The short quick burst day is mostly
    # unsaturated, where both engines run the same exact path.  One
    # full repeat: the baseline replays ~1M arrivals exactly.
    "fluid": Suite(
        results_name="BENCH_fluid",
        builder=lambda quick, jobs: build_fluid_scenarios(quick),
        floors={"fluid_step_parity": 3.0, "fluid_burst_day": 1.5},
        quick_floors={"fluid_step_parity": 2.0, "fluid_burst_day": 1.1},
        repeats=1,
        finish=_add_fluid_frontier),
    # Overhead bounds, not gains: 1.0 means the instrumentation is free.
    # Attached-but-disabled must stay within noise of free (the
    # zero-cost contract); the enabled profiler pays real perf_counter
    # calls per batch and may cost up to half the run.
    "profile": Suite(
        results_name="BENCH_profile",
        builder=lambda quick, jobs: build_profile_scenarios(quick),
        floors={"profile_off_overhead": 0.85,
                "profile_on_overhead": 0.5},
        quick_floors={"profile_off_overhead": 0.8,
                      "profile_on_overhead": 0.45},
        repeats=4),
    # Overhead bounds too: the serverless backend spawns, tracks and
    # reaps per-instance state where the provisioned server batches
    # into a static pool; never-reap vs reaping should be near parity.
    "faas": Suite(
        results_name="BENCH_faas",
        builder=lambda quick, jobs: build_faas_scenarios(quick),
        floors={"faas_vs_provisioned": 0.3, "faas_scale_to_zero": 0.5},
        quick_floors={"faas_vs_provisioned": 0.25,
                      "faas_scale_to_zero": 0.4},
        repeats=4),
    # The tabled floors are the >=4-core bars; the post-step lowers
    # them to what this host's cores can honestly deliver.
    "sweep": Suite(
        results_name="BENCH_sweep",
        builder=lambda quick, jobs: build_sweep_scenarios(quick, jobs),
        floors={"sweep_parallel_replay": sweep_min_speedup(4, 4)},
        quick_floors={"sweep_parallel_replay":
                      sweep_min_speedup(4, 4, quick=True)},
        repeats=3,
        finish=_apply_sweep_floor),
}


def _best_time(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_scenario(scenario: Scenario, repeats: int,
                 floors: dict[str, float] | None = None) -> dict:
    """Verify agreement, then time both sides of one scenario."""
    base_result = scenario.baseline()
    opt_result = scenario.optimized()
    scenario.verify(base_result, opt_result)
    baseline_s = _best_time(scenario.baseline, repeats)
    optimized_s = _best_time(scenario.optimized, repeats)
    return {
        "layer": scenario.layer,
        "description": scenario.description,
        "baseline_seconds": baseline_s,
        "optimized_seconds": optimized_s,
        "speedup": baseline_s / optimized_s if optimized_s > 0
        else float("inf"),
        "min_speedup": (floors or {}).get(scenario.name, 1.0),
        "repeats": repeats,
    }


def run_suite(name: str, quick: bool = False, repeats: int | None = None,
              jobs: int = 4) -> dict:
    """Build, verify and time one :data:`SUITES` entry.

    ``jobs`` is the sweep suite's pool size; other suites ignore it.
    Returns the results document ``check_regression`` gates.
    """
    suite = SUITES[name]
    if repeats is None:
        repeats = suite.default_repeats(quick)
    floors = suite.quick_floors if quick else suite.floors
    results: dict = {"suite": suite.results_name, "quick": quick,
                     "scenarios": {}}
    for scenario in suite.builder(quick, jobs):
        results["scenarios"][scenario.name] = run_scenario(
            scenario, repeats, floors)
    if suite.finish is not None:
        suite.finish(results, quick, jobs)
    return results


def write_results(results: dict, path: str | Path) -> None:
    """Write a results document as stable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rounded = json.loads(json.dumps(results))
    for entry in rounded.get("scenarios", {}).values():
        for field in ("baseline_seconds", "optimized_seconds", "speedup"):
            entry[field] = round(entry[field], 4)
    frontier = rounded.get("frontier")
    if frontier is not None:
        for field in ("wall_seconds", "p95", "p99"):
            frontier[field] = round(frontier[field], 4)
    path.write_text(json.dumps(rounded, indent=2, sort_keys=True) + "\n")


def load_results(path: str | Path) -> dict:
    """Load a previously written results document."""
    return json.loads(Path(path).read_text())


def check_regression(current: dict, reference: dict,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Failure messages (empty = pass) for ``current`` vs ``reference``.

    A scenario fails when it is missing, below its absolute
    ``min_speedup`` floor, or below ``reference_speedup * (1 -
    tolerance)``.  Runs of different suites, or of quick and full
    workloads, are not comparable, so a suite or mode mismatch fails
    outright with one message.

    Core-count-aware scenarios (BENCH_sweep) record ``cpu_count`` and
    their host-applied ``min_speedup`` per entry.  The floor enforced
    is the *larger* of the reference's and the current run's — so a
    reference committed from a 1-core CI box cannot weaken the 2.5x
    bar on a 4-core host — while the relative band is skipped when the
    two runs saw different core counts (their speedups measure
    different machines, not different code).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must lie in [0, 1)")
    if current.get("suite") != reference.get("suite"):
        return [f"suite mismatch: reference is a "
                f"{reference.get('suite')} run, current is "
                f"{current.get('suite')}; point --check at the "
                "matching reference"]
    if bool(current.get("quick")) != bool(reference.get("quick")):
        mode = "quick" if reference.get("quick") else "full"
        return [f"mode mismatch: reference is a {mode}-mode run; "
                f"re-run with{'' if mode == 'quick' else 'out'} --quick "
                "or point --check at the matching reference"]
    failures: list[str] = []
    for name, ref in sorted(reference.get("scenarios", {}).items()):
        cur = current.get("scenarios", {}).get(name)
        if cur is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = max(ref.get("min_speedup", 1.0),
                    cur.get("min_speedup", 0.0))
        cores_differ = (
            "cpu_count" in ref and "cpu_count" in cur
            and ref["cpu_count"] != cur["cpu_count"])
        band = (0.0 if cores_differ
                else ref["speedup"] * (1.0 - tolerance))
        required = max(floor, band)
        if cur["speedup"] < required:
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x below required "
                f"{required:.2f}x (floor {floor:.2f}x, reference "
                f"{ref['speedup']:.2f}x - {tolerance:.0%} band)")
    ref_frontier = reference.get("frontier")
    if ref_frontier is not None:
        cur_frontier = current.get("frontier")
        if cur_frontier is None:
            failures.append(
                f"{ref_frontier['name']}: missing from current run")
        else:
            ceiling = ref_frontier["max_seconds"]
            if cur_frontier["wall_seconds"] > ceiling:
                failures.append(
                    f"{ref_frontier['name']}: wall time "
                    f"{cur_frontier['wall_seconds']:.1f}s exceeds the "
                    f"committed {ceiling:.1f}s ceiling")
            if cur_frontier["arrivals"] != ref_frontier["arrivals"]:
                failures.append(
                    f"{ref_frontier['name']}: arrival count "
                    f"{cur_frontier['arrivals']} != reference "
                    f"{ref_frontier['arrivals']} (workload drifted)")
    return failures


def render_results(results: dict) -> str:
    """One table row per scenario, aligned for terminal output."""
    header = (f"{'scenario':<22} {'layer':<16} {'baseline':>10} "
              f"{'optimized':>10} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for name, entry in sorted(results["scenarios"].items()):
        lines.append(
            f"{name:<22} {entry['layer']:<16} "
            f"{entry['baseline_seconds'] * 1e3:>8.1f}ms "
            f"{entry['optimized_seconds'] * 1e3:>8.1f}ms "
            f"{entry['speedup']:>7.2f}x")
    frontier = results.get("frontier")
    if frontier is not None:
        lines.append(
            f"{frontier['name']:<22} {frontier['layer']:<16} "
            f"{'(infeasible)':>10} "
            f"{frontier['wall_seconds'] * 1e3:>8.1f}ms "
            f"{frontier['arrivals']:>7} arrivals, "
            f"{frontier['fluid_intervals']} fluid stretches "
            f"(ceiling {frontier['max_seconds']:.0f}s)")
    if "cpu_count" in results:
        floor = max(entry["min_speedup"]
                    for entry in results["scenarios"].values())
        lines.append(f"pool: {results['jobs']} job(s) on "
                     f"{results['cpu_count']} core(s); floor "
                     f"{floor:.2f}x (core-count aware)")
    return "\n".join(lines)
