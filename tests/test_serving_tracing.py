"""Tests for the execution views over trace contexts: Gantt and breakdown.

``execute_spans`` / ``queued_seconds`` / ``render_gantt`` /
``stage_breakdown`` in :mod:`repro.serving.trace_export` read the
``execute`` spans a :class:`~repro.serving.tracectx.TraceContext`
collects as a request moves through backend instances.
"""

import pytest

from repro.serving.batcher import BatcherConfig
from repro.serving.request import Request
from repro.serving.server import (
    EnsembleConfig,
    ModelConfig,
    TritonLikeServer,
)
from repro.serving.trace_export import (
    execute_spans,
    queued_seconds,
    render_gantt,
    stage_breakdown,
)
from repro.serving.tracectx import TraceContext


def _traced(model):
    """A request carrying a trace whose id is the request id."""
    request = Request(model)
    request.trace = TraceContext(request.request_id)
    return request


def _labels(trace):
    return [label for label, _ in execute_spans(trace)]


@pytest.fixture()
def two_stage_trace():
    server = TritonLikeServer()
    server.register(ModelConfig("pre", lambda n: 0.002,
                                batcher=BatcherConfig(enabled=False)))
    server.register(ModelConfig("mdl", lambda n: 0.005,
                                batcher=BatcherConfig(enabled=False),
                                preprocess_model="pre"))
    request = _traced("mdl")
    server.submit(request)
    server.run()
    return request.trace


class TestTraceOf:
    def test_spans_cover_both_stages(self, two_stage_trace):
        rows = execute_spans(two_stage_trace)
        assert [label for label, _ in rows] == ["pre#0", "mdl#0"]
        assert rows[0][1].duration == pytest.approx(0.002)
        assert rows[1][1].duration == pytest.approx(0.005)

    def test_latency_decomposes(self, two_stage_trace):
        assert two_stage_trace.latency == pytest.approx(0.007)
        assert queued_seconds(two_stage_trace) == pytest.approx(
            0.0, abs=1e-12)

    def test_spans_ordered_by_start(self, two_stage_trace):
        rows = execute_spans(two_stage_trace)
        starts = [span.start for _, span in rows]
        assert starts == sorted(starts)

    def test_queueing_shows_up(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", lambda n: 0.01,
                                    batcher=BatcherConfig(enabled=False)))
        first, second = _traced("m"), _traced("m")
        server.submit(first)
        server.submit(second)  # waits behind the first
        server.run()
        assert queued_seconds(second.trace) == pytest.approx(0.01)


class TestRetriedSpans:
    def _retried_trace(self):
        from repro.serving.faults import FaultModel

        server = TritonLikeServer()
        server.register(ModelConfig(
            "m", lambda n: 0.01,
            batcher=BatcherConfig(enabled=False),
            fault_model=FaultModel(1.0, detect_seconds=0.2, seed=1),
            max_retries=1))
        request = _traced("m")
        server.submit(request)

        def clear():  # exactly one failure, then the retry succeeds
            server._models["m"].fault_model.failure_probability = 0.0

        server.sim.schedule(0.1, clear)
        [response] = server.run()
        assert response.status == "ok"
        return request.trace

    def test_each_attempt_keeps_its_own_span(self):
        # The failed attempt keeps its own span next to the retry.
        rows = execute_spans(self._retried_trace())
        assert [label for label, _ in rows] == ["m#0", "m#0@1"]
        assert [span.args["attempt"] for _, span in rows] == [0, 1]
        # Failed attempt spans the 0.2 s detection window; the retry
        # spans the 0.01 s service time.
        assert rows[0][1].duration == pytest.approx(0.2)
        assert rows[1][1].duration == pytest.approx(0.01)

    def test_detection_window_not_misread_as_queueing(self):
        # The 0.2 s detection window is execute time, not queueing.
        assert queued_seconds(self._retried_trace()) == pytest.approx(
            0.0, abs=1e-9)

    def test_breakdown_surfaces_retried_attempts(self):
        breakdown = stage_breakdown([self._retried_trace()])
        assert breakdown["m"]["count"] == 2
        assert breakdown["m"]["retried_attempts"] == 1
        assert breakdown["m"]["total_seconds"] == pytest.approx(0.21)
        assert breakdown["queued"]["retried_attempts"] == 0

    def test_span_model_collapses_instance_and_attempt(self):
        rows = execute_spans(self._retried_trace())
        assert all(span.args["stage"] == "m" for _, span in rows)
        assert set(stage_breakdown(
            [self._retried_trace()])) == {"m", "queued"}


class TestEnsembleFanOut:
    def _fanout_trace(self):
        server = TritonLikeServer()
        for name, seconds in (("pre", 0.001), ("a", 0.01), ("b", 0.01)):
            server.register(ModelConfig(
                name, lambda n, s=seconds: s,
                batcher=BatcherConfig(enabled=False)))
        server.register_ensemble(EnsembleConfig("e", "pre", ("a", "b")))
        request = _traced("e")
        server.submit(request)
        [response] = server.run()
        assert response.latency == pytest.approx(0.011)
        return request.trace

    def test_parallel_branches_are_not_double_counted(self):
        # Both consumers run at once: the union of execute spans covers
        # the whole latency, so nothing is queued (summing the spans
        # would report -10 ms).
        trace = self._fanout_trace()
        assert _labels(trace) == ["pre#0", "a#0", "b#0"]
        assert queued_seconds(trace) == pytest.approx(0.0, abs=1e-12)
        breakdown = stage_breakdown([trace])
        assert breakdown["queued"]["total_seconds"] == pytest.approx(
            0.0, abs=1e-12)
        assert breakdown["a"]["total_seconds"] == pytest.approx(0.01)
        assert breakdown["b"]["total_seconds"] == pytest.approx(0.01)


class TestRendering:
    def test_gantt_includes_all_stages(self, two_stage_trace):
        text = render_gantt(two_stage_trace)
        assert "pre#0" in text and "mdl#0" in text
        assert "#" in text

    def test_gantt_width_validated(self, two_stage_trace):
        with pytest.raises(ValueError):
            render_gantt(two_stage_trace, width=5)

    def test_gantt_zero_duration_trace_degenerates(self):
        # A request shed the instant it arrived has arrival ==
        # completion; scaling bars against the total would divide by
        # zero.  It must render as a one-column chart.
        trace = TraceContext(9, start=0.5)
        span = trace.begin("execute", 0.5, category="execute",
                           stage="m", instance="m#0", attempt=0)
        trace.end(span, 0.5)
        trace.close(0.5, status="rejected")
        lines = render_gantt(trace).splitlines()
        assert "0.00 ms" in lines[0]
        # Exactly one bar column at the origin, no leading dots.
        bar = lines[1].split()[1]
        assert bar == "#"

    def test_gantt_zero_duration_trace_without_spans(self):
        trace = TraceContext(9, start=1.0)
        trace.close(1.0, status="rejected")
        assert "rejected" in render_gantt(trace)

    def test_open_trace_rejected(self):
        with pytest.raises(ValueError, match="open"):
            render_gantt(TraceContext(1))
        with pytest.raises(ValueError, match="open"):
            stage_breakdown([TraceContext(1)])


class TestBreakdown:
    def test_aggregates_collapse_instances(self):
        server = TritonLikeServer()
        server.register(ModelConfig("m", lambda n: 0.01, instances=2,
                                    batcher=BatcherConfig(enabled=False)))
        requests = [_traced("m") for _ in range(4)]
        for request in requests:
            server.submit(request)
        server.run()
        breakdown = stage_breakdown([r.trace for r in requests])
        assert breakdown["m"]["count"] == 4
        assert breakdown["m"]["mean_seconds"] == pytest.approx(0.01)
        assert "queued" in breakdown

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            stage_breakdown([])

    def test_section31_decomposition(self):
        # The Section 3.1 latency decomposition: dataset preprocessing,
        # model preprocessing, inference — three traced stages.
        server = TritonLikeServer()
        server.register(ModelConfig("dataset_pre", lambda n: 0.003,
                                    batcher=BatcherConfig(enabled=False)))
        server.register(ModelConfig("model_pre", lambda n: 0.002,
                                    batcher=BatcherConfig(enabled=False),
                                    preprocess_model="dataset_pre"))
        server.register(ModelConfig("infer", lambda n: 0.004,
                                    batcher=BatcherConfig(enabled=False),
                                    preprocess_model="model_pre"))
        request = _traced("infer")
        server.submit(request)
        server.run()
        trace = request.trace
        # Only the direct preprocess chain of "infer" runs: model_pre
        # then infer (dataset_pre is model_pre's own preprocess and runs
        # first in its chain).
        assert trace.latency == pytest.approx(0.003 + 0.002 + 0.004,
                                              abs=1e-9) or \
            trace.latency == pytest.approx(0.002 + 0.004, abs=1e-9)
        assert len(execute_spans(trace)) >= 2
