"""Tests for the span tracer and its Chrome trace_event export."""

import json
import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import Tracer


@pytest.fixture
def fake_clock(monkeypatch):
    """Route ``wall_clock()`` through a clock advancing 1s per call."""
    state = {"t": 0.0}

    def _tick():
        state["t"] += 1.0
        return state["t"]

    monkeypatch.setattr(tracing, "wall_clock", _tick)


class TestSpans:
    def test_span_records_duration(self, fake_clock):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        (span,) = tracer.find("work")
        assert span.duration_s == pytest.approx(1.0)
        assert span.depth == 0

    def test_nested_spans_track_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.find("outer")[0]
        inner = tracer.find("inner")[0]
        assert outer.depth == 0
        assert inner.depth == 1
        assert inner.start_s >= outer.start_s
        assert (inner.start_s + inner.duration_s
                <= outer.start_s + outer.duration_s)

    def test_span_args_recorded(self):
        tracer = Tracer()
        with tracer.span("run", category="ftdmp", run=3):
            pass
        span = tracer.find("run")[0]
        assert span.category == "ftdmp"
        assert span.args == {"run": 3}

    def test_total_seconds_and_summary(self, fake_clock):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        summary = tracer.summary()
        assert summary["step"]["total_s"] == pytest.approx(3.0)
        assert summary["step"]["count"] == 3
        assert summary["step"]["mean_s"] == pytest.approx(1.0)

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped_spans == 3
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped_spans == 0

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer.find("doomed")) == 1

    def test_span_from_another_thread_raises_and_records_nothing(self):
        """The tracer is single-owner: a span opened on a thread other
        than its creator raises before it records anything, and leaves
        the owner's nesting depth alone."""
        tracer = Tracer()
        errors = []

        def worker():
            try:
                with tracer.span("thread-span"):
                    pass
            except RuntimeError as exc:
                errors.append(exc)

        with tracer.span("main-span"):
            before = list(tracer.spans)
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=30)
            assert not t.is_alive()
            assert tracer.spans == before
            with tracer.span("inner") as inner:
                pass
        assert len(errors) == 1 and "thread" in str(errors[0])
        assert inner.depth == 1
        assert [s.name for s in tracer.spans] == ["inner", "main-span"]


class TestChromeTraceExport:
    def test_export_is_loadable_chrome_trace_json(self, fake_clock):
        """The export must satisfy the chrome://tracing JSON object format."""
        tracer = Tracer()
        with tracer.span("cluster.finetune", epochs=1):
            with tracer.span("ftdmp.store_stage", category="ftdmp"):
                pass
        payload = json.loads(tracer.export_chrome_trace())

        # Object format: top-level dict with a traceEvents array.
        assert isinstance(payload, dict)
        events = payload["traceEvents"]
        assert isinstance(events, list)

        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "process_name"

        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {
            "cluster.finetune", "ftdmp.store_stage",
        }
        for event in complete:
            # Required trace_event fields, ts/dur in microseconds.
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["cat"], str)
            assert isinstance(event["args"], dict)

        inner = next(e for e in complete if e["name"] == "ftdmp.store_stage")
        outer = next(e for e in complete if e["name"] == "cluster.finetune")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert outer["args"]["epochs"] == 1
