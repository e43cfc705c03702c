"""Tests for the MetricsRegistry: instruments, labels, exports."""

import json
import math
import threading

import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    iter_samples,
)


class TestCounter:
    def test_unlabelled_counting(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        assert c.total() == 3.5

    def test_labelled_counting_is_per_label_set(self):
        c = Counter("bytes_total", label_names=("kind",))
        c.inc(10, kind="ingest")
        c.inc(5, kind="labels")
        c.inc(1, kind="ingest")
        assert c.value(kind="ingest") == 11
        assert c.value(kind="labels") == 5
        assert c.total() == 16

    def test_unknown_label_set_reads_zero(self):
        c = Counter("bytes_total", label_names=("kind",))
        assert c.value(kind="never-seen") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("jobs_total").inc(-1)

    def test_wrong_labels_rejected(self):
        c = Counter("bytes_total", label_names=("kind",))
        with pytest.raises(ValueError):
            c.inc(1, flavour="x")
        with pytest.raises(ValueError):
            c.inc(1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name!")

    def test_thread_safety(self):
        c = Counter("n")

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 40_000


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("journal_entries")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12

    def test_labelled_gauge(self):
        g = Gauge("fleet_up", label_names=("store",))
        g.set(1, store="pipestore-0")
        g.set(0, store="pipestore-1")
        assert g.value(store="pipestore-0") == 1
        assert g.value(store="pipestore-1") == 0


class TestHistogram:
    def test_observe_counts_and_sums(self):
        h = Histogram("latency_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert h.count() == 3
        assert h.sum() == pytest.approx(5.55)

    def test_buckets_are_cumulative_in_export(self):
        h = Histogram("latency_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        samples = dict(h.samples())
        assert samples['latency_seconds_bucket{le="0.1"}'] == 1
        assert samples['latency_seconds_bucket{le="1"}'] == 2
        assert samples['latency_seconds_bucket{le="+Inf"}'] == 3
        assert samples["latency_seconds_count"] == 3

    def test_labelled_histogram(self):
        h = Histogram("run_seconds", label_names=("stage",), buckets=(1.0,))
        h.observe(0.5, stage="store")
        h.observe(0.7, stage="tuner")
        assert h.count(stage="store") == 1
        assert h.count(stage="tuner") == 1

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())

    def test_nan_is_refused_and_leaves_the_state_alone(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.5)
        with pytest.raises(ValueError, match="NaN"):
            h.observe(math.nan)
        samples = dict(h.samples())
        assert samples['lat_bucket{le="+Inf"}'] == samples["lat_count"] == 1
        assert samples["lat_sum"] == 0.5

    def test_a_value_on_a_bound_lands_in_that_bucket(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        for v in (0.1, 1.0, -math.inf, math.inf):
            h.observe(v)
        assert h.as_dict()["values"][0]["bucket_counts"] == [2, 1, 1]

    @given(bounds=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           values=st.lists(st.floats(allow_nan=False), max_size=40))
    def test_inf_bucket_equals_count_for_any_finite_sequence(self, bounds,
                                                             values):
        """The exposition law: ``le="+Inf"`` == ``_count``, and each
        value sits in the first bucket whose bound is >= it."""
        h = Histogram("lat", buckets=bounds)
        for v in values:
            h.observe(v)
        samples = dict(h.samples())
        assert samples.get('lat_bucket{le="+Inf"}', 0) == h.count() \
            == len(values)
        counts = [0] * len(h.buckets)
        for v in values:
            counts[next(i for i, b in enumerate(h.buckets) if v <= b)] += 1
        if values:
            assert h.as_dict()["values"][0]["bucket_counts"] == counts


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", "help text")
        b = reg.counter("jobs_total")
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_label_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", label_names=("kind",))
        with pytest.raises(ValueError, match="labels"):
            reg.counter("x", label_names=("flavour",))

    def test_get_and_contains(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        assert "g" in reg
        assert reg.get("g").kind == "gauge"
        with pytest.raises(KeyError):
            reg.get("missing")

    def test_prometheus_export_format(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", "bytes moved",
                    label_names=("kind",)).inc(42, kind="ingest")
        reg.gauge("up", "health").set(1)
        text = reg.export_prometheus()
        assert "# HELP bytes_total bytes moved" in text
        assert "# TYPE bytes_total counter" in text
        assert 'bytes_total{kind="ingest"} 42' in text
        assert "# TYPE up gauge" in text
        assert "up 1" in text.splitlines()

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c", label_names=("k",)).inc(1, k='a"b\\c')
        assert 'k="a\\"b\\\\c"' in reg.export_prometheus()

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("bytes_total", label_names=("kind",)).inc(7, kind="x")
        reg.histogram("h", buckets=(1.0,)).observe(0.2)
        payload = json.loads(reg.export_json())
        assert payload["bytes_total"]["type"] == "counter"
        assert payload["bytes_total"]["values"] == [
            {"labels": ["x"], "value": 7}
        ]
        assert payload["h"]["values"][0]["count"] == 1

    def test_iter_samples_covers_all_families(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2)
        names = [name for name, _ in iter_samples(reg)]
        assert names == ["a", "b"]
