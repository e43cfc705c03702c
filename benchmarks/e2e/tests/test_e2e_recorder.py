"""SpanRecorder: self-time arithmetic, thread adoption, seam patching."""

import pytest

from ndpipe_e2e.spans import BENCH_LAYER, Seam, Span, SpanRecorder
from repro.core import ThreadedPipeline


def _span(recorder, name, layer, start, end, parent=None, thread=0):
    span = Span(name, layer, parent, thread, None)
    span.start, span.end = start, end
    recorder.spans.append(span)
    return span


def test_nested_and_sibling_self_time():
    rec = SpanRecorder()
    root = _span(rec, "root", BENCH_LAYER, 0.0, 10.0)
    outer = _span(rec, "outer", "a", 1.0, 7.0, root)
    _span(rec, "inner", "b", 2.0, 5.0, outer)
    _span(rec, "sibling", "b", 8.0, 9.5, root)
    out = rec.analyze()
    assert out.wall_s == 10.0
    assert out.self_s["a"] == pytest.approx(3.0)         # 6 - 3
    assert out.self_s["b"] == pytest.approx(4.5)         # 3 + 1.5
    assert out.unattributed_s == pytest.approx(2.5)      # 10 - 6 - 1.5
    assert out.calls == {BENCH_LAYER: 1, "a": 1, "b": 2}
    assert out.inclusive_s["outer"] == pytest.approx(6.0)
    assert sum(out.self_s.values()) == pytest.approx(out.wall_s)


def test_overlapping_worker_threads_split_the_covered_wall():
    rec = SpanRecorder()
    root = _span(rec, "root", BENCH_LAYER, 0.0, 10.0)
    _span(rec, "stage1", "a", 1.0, 6.0, root, thread=1)
    _span(rec, "stage2", "b", 4.0, 9.0, root, thread=2)
    out = rec.analyze()
    # the union [1, 9] is covered; its 8 s are split 5:5 between the stages
    assert out.unattributed_s == pytest.approx(2.0)
    assert out.self_s["a"] == pytest.approx(4.0)
    assert out.self_s["b"] == pytest.approx(4.0)
    assert sum(out.self_s.values()) == pytest.approx(out.wall_s)


def test_threaded_pipeline_spans_are_adopted_by_the_blocked_caller():
    rec = SpanRecorder()
    double = rec.wrap("a", "double", lambda x: 2 * x)
    incr = rec.wrap("b", "incr", lambda x: x + 1)
    with rec.span("root") as root:
        results = ThreadedPipeline(
            [("double", double), ("incr", incr)]).run(range(50))
    assert results == [2 * x + 1 for x in range(50)]
    workers = [s for s in rec.spans if s is not root]
    assert len(workers) == 100
    assert all(s.parent is root and s.thread != root.thread for s in workers)
    out = rec.analyze()
    assert out.calls == {BENCH_LAYER: 1, "a": 50, "b": 50}
    assert sum(out.self_s.values()) == pytest.approx(out.wall_s)


def test_operation_ids_are_shared_by_the_spans_under_them():
    rec = SpanRecorder()
    work = rec.wrap("a", "work", lambda: None)
    with rec.span("root"):
        for _ in range(2):
            with rec.operation("request"):
                work()
    ops = {s.op for s in rec.spans if s.name == "work"}
    assert len(ops) == 2 and None not in ops
    assert set(rec.analyze().self_by_op) >= {("request", "a"), ("", BENCH_LAYER)}


def test_missing_seam_is_skipped_and_reported_and_patches_are_undone():
    import repro.core.pipestore as pipestore
    import repro.storage.compression as compression

    original = compression.deflate
    rec = SpanRecorder()
    rec.install([
        Seam("storage.compression", "repro.storage.compression", "deflate"),
        Seam("gone", "repro.storage.compression", "no_such_function"),
        Seam("gone", "repro.no_such_module", "f"),
        Seam("gone", "repro.storage.objectstore", "ObjectStore.no_method"),
    ])
    try:
        assert rec.missing == ["compression.no_such_function",
                               "no_such_module.f",
                               "objectstore.ObjectStore.no_method"]
        # the ``from ..storage.compression import deflate`` copy is rebound
        assert pipestore.deflate is compression.deflate is not original
        with rec.span("root"):
            assert pipestore.deflate(b"abc") == original(b"abc")
        assert [s.name for s in rec.spans] == ["compression.deflate", "root"]
    finally:
        rec.uninstall()
    assert pipestore.deflate is compression.deflate is original


def test_chrome_trace_export(tmp_path):
    import json

    rec = SpanRecorder()
    with rec.span("root"):
        with rec.operation("request"):
            pass
    path = tmp_path / "trace.json"
    rec.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["request", "root"]
    assert events[0]["ph"] == "X" and events[0]["args"]["parent"] == 1
