"""Tests for the hot-path optimization pass and its perf harness.

Covers the regression guarantees the optimization PR makes:
``schedule_at`` round-off clamping, bounded cancel state, firing-order
parity between the tuple-heap simulator and the preserved seed
simulator, bound-handle export parity, trace sampling + span pooling,
MAC-accounting parity on the packed kernel path, the preprocessing grid
cache, and the ``repro bench --suite`` regression-check logic.
"""

import numpy as np
import pytest

from repro.perf import legacy
from repro.perf.bench import (
    SUITES,
    check_regression,
    render_results,
    run_scenario,
)
from repro.perf.scenarios import Scenario
from repro.serving.events import Simulator


class TestScheduleAtClamp:
    """Float round-off near ``now`` must not kill a replay."""

    def test_ulp_past_target_clamps_to_now(self):
        # A cumulative-sum arrival trace lands the clock on a value
        # whose float neighbourhood the next schedule_at target falls
        # just below.
        sim = Simulator()
        fired = []
        t = 0.1 + 0.2  # 0.30000000000000004
        sim.schedule_at(t, lambda: sim.schedule_at(
            0.3, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [t]

    def test_genuinely_past_target_still_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(0.5, lambda: None)

    def test_clamp_scales_with_magnitude(self):
        # At now=1e6 a ULP is ~1e-10; an absolute tolerance would
        # either miss it or swallow real milliseconds.
        sim = Simulator()
        sim.schedule(1e6, lambda: None)
        sim.run()
        fired = []
        sim.schedule_at(1e6 - 1e-10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1e6]


class TestBoundedCancelState:
    """Cancel bookkeeping must not outlive the event (seed leak)."""

    def test_cancel_after_fire_holds_no_state(self):
        # The seed simulator put cancelled seqs in a set that only
        # lazy-deletion at pop could drain — cancelling an event that
        # already fired leaked the entry forever.  The optimized
        # simulator keeps no auxiliary structure at all.
        sim = Simulator()
        events = [sim.schedule(i * 0.001, lambda: None)
                  for i in range(100)]
        sim.run()
        for event in events:
            sim.cancel(event)  # all no-ops: already fired
        assert not sim._heap and not sim._fg_heap
        assert all(e.fired and not e.cancelled for e in events)

    def test_seed_simulator_exhibits_the_leak(self):
        # Documents what the test above guards against.
        sim = legacy.LegacySimulator()
        events = [sim.schedule(i * 0.001, lambda: None)
                  for i in range(100)]
        sim.run()
        for event in events:
            sim.cancel(event)
        assert len(sim._cancelled) == 100  # leaked forever

    def test_cancelled_entries_drain_from_both_heaps(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        for i in range(50):
            sim.cancel(sim.schedule(0.5, lambda: None))
        sim.run()
        assert keep.fired
        assert not sim._heap and not sim._fg_heap

    def test_foreground_pending_tracks_cancel(self):
        sim = Simulator()
        event = sim.schedule(0.5, lambda: None)
        assert sim.peek_foreground_time() == 0.5
        sim.cancel(event)
        assert sim.peek_foreground_time() is None
        sim.cancel(event)  # double-cancel must not underflow
        assert sim.peek_foreground_time() is None


class TestLegacyParity:
    """The tuple-heap loop must fire exactly like the seed loop."""

    @staticmethod
    def _workload(sim):
        order = []
        cancelable = []

        def make(i):
            def cb():
                order.append(i)
                if i % 3 == 0:
                    cancelable.append(
                        sim.schedule(0.125, lambda: order.append(-i)))
                if i % 4 == 0 and cancelable:
                    sim.cancel(cancelable.pop())
                if i % 11 == 0:
                    sim.peek_foreground_time()
            return cb

        for i in range(500):
            # (i % 50) collides timestamps: heavy tie traffic.
            sim.schedule_at((i % 50) * 0.01, make(i),
                            daemon=(i % 13 == 0))
        sim.run()
        return order

    def test_firing_order_identical_under_ties_and_cancels(self):
        assert (self._workload(Simulator())
                == self._workload(legacy.LegacySimulator()))

    def test_events_processed_identical(self):
        new, old = Simulator(), legacy.LegacySimulator()
        self._workload(new)
        self._workload(old)
        assert new.events_processed == old.events_processed

    def test_run_until_parity(self):
        def staged(sim):
            seen = []
            for i in range(20):
                sim.schedule(i * 0.1, lambda i=i: seen.append(i))
            sim.run(until=0.95)
            seen.append(("paused", sim.now))
            sim.run()
            return seen

        assert staged(Simulator()) == staged(legacy.LegacySimulator())


class TestBoundHandleParity:
    """labels() handles must be observationally identical to kwargs."""

    @staticmethod
    def _scrape(registry):
        from repro.serving.exporter import export_registry

        return export_registry(registry)

    def test_counter_gauge_histogram_exports_match(self):
        from repro.serving.observability import MetricsRegistry

        kwargs_reg = MetricsRegistry(clock=lambda: 2.5)
        bound_reg = MetricsRegistry(clock=lambda: 2.5)

        c = kwargs_reg.counter("reqs_total", "Requests.")
        g = kwargs_reg.gauge("depth", "Depth.")
        h = kwargs_reg.histogram("lat_seconds", "Latency.")
        for _ in range(3):
            c.inc(2.0, model="m", status="ok")
        g.set(4.0, model="m")
        g.add(-1.5, model="m")
        for v in (0.001, 0.4, 99.0):
            h.observe(v, stage="infer")

        bc = bound_reg.counter("reqs_total", "Requests.").labels(
            model="m", status="ok")
        bg = bound_reg.gauge("depth", "Depth.").labels(model="m")
        bh = bound_reg.histogram("lat_seconds", "Latency.").labels(
            stage="infer")
        for _ in range(3):
            bc.inc(2.0)
        bg.set(4.0)
        bg.add(-1.5)
        for v in (0.001, 0.4, 99.0):
            bh.observe(v)

        assert self._scrape(bound_reg) == self._scrape(kwargs_reg)
        assert bc.value() == 6.0 and bg.value() == 2.5

    def test_bound_and_kwargs_paths_share_series(self):
        from repro.serving.observability import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("mix_total", "Mixed paths.")
        handle = counter.labels(tier="edge")
        handle.inc()
        counter.inc(tier="edge")  # kwargs path, same series
        assert counter.value(tier="edge") == 2.0
        assert handle.value() == 2.0

    def test_unobserved_bound_histogram_leaves_no_series(self):
        from repro.serving.observability import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("quiet_seconds", "Never hit.")
        histogram.labels(stage="idle")  # bound but never observed
        assert histogram.label_sets() == []


class TestTraceSampling:
    """Sampling bounds trace retention without touching metrics."""

    def _replay(self, rate, n=40):
        from repro.continuum.network import get_link
        from repro.continuum.pipeline import ContinuumReplayer
        from repro.serving.batcher import BatcherConfig
        from repro.serving.observability import MetricsRegistry
        from repro.serving.request import Request
        from repro.serving.server import ModelConfig, TritonLikeServer

        sim = Simulator()
        registry = MetricsRegistry(clock=lambda: sim.now)
        server = TritonLikeServer(sim, registry=registry)
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(max_batch_size=4,
                                  max_queue_delay=0.002)))
        replayer = ContinuumReplayer(
            server, get_link("station_ethernet"),
            edge_preprocess_time=lambda n: 0.002 * n,
            image_bytes=100_000.0, registry=registry,
            trace_sample_rate=rate)
        for i in range(n):
            sim.schedule(i * 0.02,
                         lambda i=i: replayer.submit(
                             Request("m", request_id=i + 1)))
        sim.run()
        return replayer, registry

    def test_quarter_rate_retains_quarter_of_traces(self):
        replayer, _ = self._replay(0.25)
        assert len(replayer.traces) == 10
        assert all(t.sampled for t in replayer.traces)

    def test_sampling_leaves_metrics_identical(self):
        from repro.serving.exporter import export_registry

        _, full = self._replay(1.0)
        _, sampled = self._replay(0.25)
        assert export_registry(sampled) == export_registry(full)

    def test_unsampled_requests_still_served_and_counted(self):
        replayer, registry = self._replay(0.0)
        assert replayer.traces == []
        finished = registry.get("continuum_requests_total")
        assert finished.total() == 40.0

    def test_span_pool_reuses_records(self):
        from repro.serving.tracectx import SpanPool, TraceContext

        pool = SpanPool()
        ctx = TraceContext(1, pool=pool)
        first = ctx.begin("a", 0.0)
        ctx.end(first, 1.0)
        ctx.close(1.0)
        released = {id(ctx.root), id(first)}
        ctx.recycle()
        assert len(pool) == 2
        ctx2 = TraceContext(2, pool=pool)
        reused = ctx2.begin("b", 2.0)
        # Both records of the new context come from the freed pool —
        # zero allocations for the unsampled steady state.
        assert {id(ctx2.root), id(reused)} == released
        assert reused.name == "b" and not reused.closed

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            self._replay(1.5)


class TestMacTallyPackedParity:
    """Packed fast path must charge exactly the seed MAC counts."""

    def _tiny(self):
        from repro.models.functional import init_vit_weights
        from repro.models.vit import ViTConfig

        cfg = ViTConfig("tally_probe", img_size=32, patch_size=8,
                        dim=64, depth=2, heads=2)
        weights = init_vit_weights(cfg, seed=3)
        x = np.random.default_rng(9).standard_normal(
            (2, 3, 32, 32)).astype(np.float32)
        return cfg, weights, x

    def test_vit_macs_identical_and_logits_close(self):
        from repro.models.functional import MacTally, vit_forward
        from repro.models.workspace import WeightPack

        cfg, weights, x = self._tiny()
        slow_tally, fast_tally = MacTally(), MacTally()
        slow = vit_forward(cfg, weights, x, tally=slow_tally)
        fast = vit_forward(cfg, weights, x, tally=fast_tally,
                           pack=WeightPack(weights))
        assert fast_tally.macs == slow_tally.macs > 0
        np.testing.assert_allclose(fast, slow, rtol=1e-4, atol=1e-5)

    def test_build_functional_packed_matches_unpacked(self):
        from repro.models.functional import build_functional

        packed = build_functional("vit_tiny", seed=1, packed=True)
        loose = build_functional("vit_tiny", seed=1, packed=False)
        x = np.random.default_rng(4).standard_normal(
            (1, *packed.input_shape)).astype(np.float32)
        np.testing.assert_allclose(packed(x), loose(x),
                                   rtol=1e-4, atol=1e-5)
        assert packed.pack is not None and packed.pack.packed_count > 0
        assert loose.pack is None


class TestGridCache:
    """Cached sampling grids must not change preprocessing output."""

    def test_resize_identical_across_calls(self):
        from repro.preprocessing.ops import resize_bilinear

        rng = np.random.default_rng(2)
        img = rng.integers(0, 255, size=(60, 80, 3)).astype(np.uint8)
        first = resize_bilinear(img, 48, 48)
        again = resize_bilinear(img, 48, 48)  # cached grid path
        np.testing.assert_array_equal(again, first)

    def test_warp_identical_across_calls(self):
        from repro.preprocessing.ops import (ground_plane_homography,
                                             warp_perspective)

        rng = np.random.default_rng(3)
        img = rng.integers(0, 255, size=(60, 80, 3)).astype(np.uint8)
        hom = ground_plane_homography(80, 60)
        first = warp_perspective(img, hom, 60, 80)
        again = warp_perspective(img, hom, 60, 80)
        np.testing.assert_array_equal(again, first)

    def test_cache_is_bounded(self):
        from repro.preprocessing.ops import _GridCache

        cache = _GridCache(maxsize=2)
        for i in range(5):
            cache.get(("k", i), lambda: (np.zeros(1),))
        assert len(cache._entries) == 2

    def test_cached_grids_are_read_only(self):
        from repro.preprocessing.ops import _GridCache

        cache = _GridCache(maxsize=2)
        grid, = cache.get(("ro",), lambda: (np.zeros(3),))
        with pytest.raises(ValueError):
            grid[0] = 1.0


class TestBenchHarness:
    """The regression-check logic behind ``repro bench --check``."""

    @staticmethod
    def _doc(quick=False, suite="BENCH_core", **speedups):
        return {"suite": suite, "quick": quick, "scenarios": {
            name: {"layer": "x", "speedup": s,
                   "min_speedup": SUITES["core"].floors.get(name, 1.0),
                   "baseline_seconds": s, "optimized_seconds": 1.0,
                   "repeats": 2}
            for name, s in speedups.items()}}

    def test_pass_within_band_and_floor(self):
        ref = self._doc(simulator_core=10.0)
        cur = self._doc(simulator_core=6.0)  # >= 10*(1-0.5) and >= 1.2
        assert check_regression(cur, ref) == []

    def test_floor_violation_fails(self):
        ref = self._doc(vit_tiny_forward=1.6)
        cur = self._doc(vit_tiny_forward=1.1)  # within band, under 1.5
        [failure] = check_regression(cur, ref)
        assert "vit_tiny_forward" in failure

    def test_band_violation_fails(self):
        ref = self._doc(simulator_core=20.0)
        cur = self._doc(simulator_core=4.0)  # above floor, under band
        [failure] = check_regression(cur, ref, tolerance=0.5)
        assert "below required 10.00x" in failure

    def test_missing_scenario_fails(self):
        ref = self._doc(simulator_core=10.0)
        cur = self._doc()
        [failure] = check_regression(cur, ref)
        assert "missing" in failure

    def test_mode_mismatch_fails(self):
        ref = self._doc(quick=False, simulator_core=10.0)
        cur = self._doc(quick=True, simulator_core=10.0)
        [failure] = check_regression(cur, ref)
        assert "mode mismatch" in failure

    def test_suite_mismatch_fails_once(self):
        # A reference from another suite must not read as one
        # "missing" line per scenario — or, with a shared scenario
        # name, pass silently.
        ref = self._doc(suite="BENCH_fluid", simulator_core=10.0,
                        vit_tiny_forward=2.0)
        cur = self._doc(simulator_core=10.0)
        [failure] = check_regression(cur, ref)
        assert "suite mismatch" in failure and "BENCH_fluid" in failure

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_regression(self._doc(), self._doc(), tolerance=1.0)

    def test_run_scenario_verifies_before_timing(self):
        broken = Scenario(
            name="broken", layer="x", description="disagrees",
            baseline=lambda: 1, optimized=lambda: 2,
            verify=lambda a, b: (_ for _ in ()).throw(
                AssertionError("diverged")))
        with pytest.raises(AssertionError, match="diverged"):
            run_scenario(broken, repeats=1)

    def test_run_scenario_shape_and_render(self):
        trivial = Scenario(
            name="trivial", layer="x", description="noop",
            baseline=lambda: 0, optimized=lambda: 0,
            verify=lambda a, b: None)
        entry = run_scenario(trivial, repeats=1)
        assert entry["speedup"] > 0 and entry["repeats"] == 1
        table = render_results(
            {"scenarios": {"trivial": entry}})
        assert "trivial" in table and "x" in table

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_floors_gate_every_scenario(self, name):
        # A scenario without a floor would silently be held to 1.0.
        suite = SUITES[name]
        names = {s.name for s in suite.builder(True, 2)}
        assert names == set(suite.quick_floors) == set(suite.floors)
