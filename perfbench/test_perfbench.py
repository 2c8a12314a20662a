"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent


def small_churn(name="continuum_churn", rate=0.9):
    return workloads.ContinuumWorkload(name, scene_change_rate=rate,
                                       endpoints=2, frames_per_endpoint=12,
                                       edge_entries=8, cloud_entries=4)


def small_burst():
    return workloads.BurstWorkload(segments=1, segment_seconds=900.0,
                                   burst_seconds=120.0)


def small_kernels():
    return workloads.KernelsWorkload(frames=2, batch=2)


SMALL = {"continuum": small_churn, "burst": small_burst,
         "kernels": small_kernels}


def replay(workload, seed=3):
    rep = run.one_rep(workload, seed)
    assert rep["errors"] == []
    return rep["results"][0]


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
class TestSelfTime:
    def test_nested_and_sibling_spans(self):
        ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.5, 9.0, 10.0])
        log = tracer.SpanLog()
        log.clock = lambda: next(ticks)
        root = log.begin("bench:rep")                    # 0
        first = log.begin("serving:event")               # 1
        log.finish(first)                                # 4
        sibling = log.begin("serving:event")             # 5
        leaf = log.begin("cache:edge_result.lookup")     # 6
        log.finish(leaf)                                 # 7.5
        log.finish(sibling)                              # 9
        log.finish(root)                                 # 10
        assert list(log.parent) == [-1, root, root, sibling]
        self_times = log.self_times()
        assert self_times == pytest.approx({
            "bench:rep": 10.0 - 3.0 - 4.0,
            "serving:event": 3.0 + (4.0 - 1.5),
            "cache:edge_result.lookup": 1.5})
        assert sum(self_times.values()) == pytest.approx(10.0)
        assert log.counts() == {"bench:rep": 1, "serving:event": 2,
                                "cache:edge_result.lookup": 1}

    def test_fluid_arrivals_are_relabelled(self):
        class Replayer:
            def __init__(self):
                self.intervals, self.fluid_completed = [], 0

            def arrive(self, index):
                if index == 1:
                    self.intervals.append("stretch")

        log = tracer.SpanLog()
        callback = tracer._event_wrapper(log, Replayer().arrive)
        for index in range(3):
            callback(index)
        assert log.counts() == {"exact:arrival": 2, "fluid:stretch": 1}

    def test_every_span_name_has_a_metric(self):
        names = {"events:run", "serving:submit", "batcher:form_batch",
                 "engine:latency", "prep_model:estimate", "fluid:stretch",
                 "fluid:event", "exact:arrival", "continuum:event",
                 "uplink:event", "cache:edge_result.lookup",
                 "cache:cloud_tensor.insert", "keys:fingerprint",
                 "obs:event", "obs:scrape", "ops:warp", "ops:resize",
                 "ops:normalize", "ops:to_chw", "model:forward",
                 "setup:trace", "setup:frames", "setup:build",
                 "bench:rep", "bench:event"}
        assert layers.unattributed({name: 1.0 for name in names}) == 0.0
        folded = layers.self_time_metrics({name: 1.0 for name in names})
        assert sum(folded.values()) == pytest.approx(len(names))

    def test_fluid_handoff_is_fluid_time(self):
        log = tracer.SpanLog()
        with tracer.Hooks(log, tracer.Counters()):
            rep = run.one_rep(small_burst(), 3, log)
        assert rep["errors"] == []
        counts = log.counts()
        # Each fluid stretch ends in one handoff event scheduled by fluid.py.
        assert counts["fluid:event"] == counts["fluid:stretch"] >= 1
        assert "bench:event" not in counts

    def test_traced_repetition_adds_up(self):
        log, counters = tracer.SpanLog(), tracer.Counters()
        with tracer.Hooks(log, counters):
            rep = run.one_rep(small_churn(), 3, log)
        assert rep["errors"] == []
        self_times = log.self_times()
        assert layers.unattributed(self_times) == 0.0
        root = log.end[0] - log.start[0]
        assert sum(self_times.values()) == pytest.approx(root, rel=1e-9)
        counts = log.counts()
        assert counts["continuum:submit"] == 24
        assert counts["keys:fingerprint"] == 24
        assert counters.resident_peak["edge_result"] <= 8

    def test_hooks_restore_the_program(self):
        from repro.serving.events import Simulator
        from repro.cache import keys

        before = (Simulator.schedule, keys.fingerprint)
        with tracer.Hooks(tracer.SpanLog(), tracer.Counters()):
            assert Simulator.schedule is not before[0]
        assert (Simulator.schedule, keys.fingerprint) == before


# ----------------------------------------------------------------------
# Seeded input generation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(SMALL))
def test_inputs_depend_only_on_the_seed(kind):
    workload = SMALL[kind]()
    first = workload.input_bytes(5)
    assert first == workload.input_bytes(5)
    assert first != workload.input_bytes(6)


def test_default_workloads_are_the_documented_ones():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _, _ in layers.PER_LAYER]


# ----------------------------------------------------------------------
# Output checks catch planted faults
# ----------------------------------------------------------------------
class TestContinuumCheck:
    def test_clean_run_passes(self):
        workload = small_churn()
        result = replay(workload)
        assert workload.check(result) == []
        assert result["finalized"] == 24

    def test_dropped_request(self):
        workload = small_churn()
        topo = workload.build(workload.make_trace(3), workload.make_frames(3))
        replayer = topo["replayer"]
        submit = replayer.submit
        seen = []

        def lossy(request):
            seen.append(request)
            if len(seen) != 5:
                submit(request)

        replayer.submit = lossy
        result = workload.replay(topo)
        assert any("conservation" in e for e in workload.check(result))

    def test_misplaced_cache_response(self):
        workload = small_churn("continuum_static", rate=0.01)
        result = replay(workload)
        assert result["replayer"].cache_responses
        result["replayer"].cache_responses.pop()
        assert any("edge_cache" in e for e in workload.check(result))


class TestBurstCheck:
    def test_clean_run_passes(self):
        workload = small_burst()
        result = replay(workload)
        assert workload.check(result) == []

    def test_dropped_arrival(self):
        workload = small_burst()
        topo = workload.build(workload.make_trace(3), None)
        server = topo["server"]
        submit = server.submit
        calls = []

        def lossy(request):
            calls.append(request)
            if len(calls) != 10:
                submit(request)

        server.submit = lossy
        result = workload.replay(topo)
        assert any("conservation" in e for e in workload.check(result))


class TestKernelsCheck:
    def test_clean_run_passes(self):
        workload = small_kernels()
        result = replay(workload)
        assert workload.check(result) == []
        assert result["macs"] == workload.analytic_macs()

    def test_perturbed_logit(self):
        workload = small_kernels()
        result = replay(workload)
        result["logits"][1, 3] = np.nan
        assert "non-finite logits" in workload.check(result)

    def test_mac_tally_mismatch(self):
        workload = small_kernels()
        result = replay(workload)
        result["macs"] += 1
        assert any("MAC tally" in e for e in workload.check(result))


def test_digest_repeats_for_a_seed():
    workload = small_churn()
    assert run.one_rep(workload, 3)["digest"] == \
        run.one_rep(workload, 3)["digest"]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "kernels_frames", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
