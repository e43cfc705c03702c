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
)


def iter_samples(registry: MetricsRegistry):
    """Every (sample_name, value) pair across the registry."""
    for name in registry.names():
        yield from registry.get(name).samples()


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

    @pytest.mark.parametrize("name", ["1bad_total", "café_total", "",
                                      "a-b_total", "ok\n"])
    def test_names_outside_the_exposition_grammar_rejected(self, name):
        with pytest.raises(ValueError, match="metric name"):
            Counter(name)

    @pytest.mark.parametrize("label", ["bad-label", "1st", "__reserved",
                                       "", "colon:label", "é"])
    def test_label_names_outside_the_grammar_rejected(self, label):
        with pytest.raises(ValueError, match="label name"):
            Counter("x_total", label_names=(label,))

    def test_grammar_edges_accepted(self):
        assert Counter("_x:y_total").name == "_x:y_total"
        assert Counter("x", label_names=("_a", "le")).label_names == (
            "_a", "le")

    def test_nan_increment_rejected(self):
        c = Counter("jobs_total")
        c.inc(2)
        with pytest.raises(ValueError, match="NaN"):
            c.inc(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            c.labels().inc(math.nan)
        assert c.value() == 2

    def test_report_from_another_thread_raises_and_changes_nothing(self):
        """Instruments are single-owner: a report from a thread other
        than the family's creator is refused, leaving every value as it
        was (DESIGN section 8)."""
        reg = MetricsRegistry()
        c = reg.counter("n_total")
        labelled = reg.counter("m_total", label_names=("k",))
        g = reg.gauge("g")
        h = reg.histogram("h_seconds", buckets=(1.0,))
        c.inc(3)
        labelled.inc(1, k="x")
        g.set(4)
        h.observe(0.5)
        before = reg.to_dict()
        child = labelled.labels(k="x")
        reports = [c.inc, c.labels().inc, lambda: labelled.inc(1, k="x"),
                   child.inc, lambda: g.set(1), g.inc, g.dec,
                   lambda: h.observe(0.1), lambda: h.labels().observe(0.1)]
        errors = []

        def report_all():
            for report in reports:
                try:
                    report()
                except RuntimeError as exc:
                    errors.append(exc)

        worker = threading.Thread(target=report_all)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(errors) == len(reports)
        assert "thread" in str(errors[0])
        assert reg.to_dict() == before


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

    def test_le_label_rejected(self):
        with pytest.raises(ValueError, match="label name 'le'"):
            Histogram("lat_seconds", label_names=("le",))
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="label name 'le'"):
            reg.histogram("lat_seconds", label_names=("stage", "le"))
        assert "lat_seconds" not in reg

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

    def test_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="buckets"):
            reg.histogram("lat_seconds", buckets=(0.001, 0.01))
        # the same bounds, in any order and with or without +Inf, are one
        # family
        assert reg.histogram("lat_seconds",
                             buckets=(1.0, 0.1, math.inf)) is h
        assert h.buckets == (0.1, 1.0, math.inf)

    def test_registration_from_another_thread_raises_and_changes_nothing(
            self):
        """The registry is single-owner, like its instruments: a
        registration from a thread other than its creator is refused,
        new name or old, and the family table is left as it was."""
        reg = MetricsRegistry()
        reg.counter("jobs_total")
        before = reg.names()
        registrations = [lambda: reg.counter("jobs_total"),
                         lambda: reg.counter("other_total"),
                         lambda: reg.gauge("g"),
                         lambda: reg.histogram("h_seconds")]
        errors = []

        def register_all():
            for register in registrations:
                try:
                    register()
                except RuntimeError as exc:
                    errors.append(exc)

        worker = threading.Thread(target=register_all)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(errors) == len(registrations)
        assert "thread" in str(errors[0])
        assert reg.names() == before
        # reads and exports stay open to any thread
        seen = []
        reader = threading.Thread(
            target=lambda: seen.append(reg.export_prometheus()))
        reader.start()
        reader.join(timeout=30)
        assert seen == [reg.export_prometheus()]

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


class TestChildren:
    def test_child_reports_into_its_family(self):
        c = Counter("bytes_total", label_names=("kind",))
        ingest = c.labels(kind="ingest")
        ingest.inc(10)
        c.inc(5, kind="ingest")
        assert ingest.value() == c.value(kind="ingest") == 15
        assert c.labels(kind="ingest") is ingest

    def test_bound_but_unreported_child_exports_nothing(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", label_names=("kind",))
        h = reg.histogram("h_seconds", label_names=("kind",))
        c.labels(kind="idle")
        h.labels(kind="idle")
        c.by_labels()["also-idle"]
        assert reg.to_dict()["c_total"]["values"] == []
        assert reg.to_dict()["h_seconds"]["values"] == []
        assert "idle" not in reg.export_prometheus()

    def test_inc_zero_creates_a_zero_sample(self):
        c = Counter("c_total", label_names=("kind",))
        c.labels(kind="a").inc(0)
        assert c.samples() == [('c_total{kind="a"}', 0.0)]

    def test_unlabelled_family_has_one_child(self):
        c = Counter("c_total")
        assert c.labels() is c.labels()
        with pytest.raises(ValueError):
            c.labels(kind="x")

    def test_labels_are_validated_at_bind_time(self):
        c = Counter("c_total", label_names=("kind", "src"))
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(kind="x")
        with pytest.raises(ValueError, match="expects labels"):
            c.by_labels()["x"]

    def test_child_map_keys_are_label_values_in_declared_order(self):
        c = Counter("c_total", label_names=("kind", "src"))
        edges = c.by_labels()
        edges["ingest", "a"].inc(3)
        assert edges["ingest", "a"] is c.labels(kind="ingest", src="a")
        assert c.by_labels() is edges
        shards = Counter("s_total", label_names=("shard",)).by_labels()
        shards[7].inc()
        assert shards[7].value() == 1

    def test_child_checks_survive_binding(self):
        child = Counter("c_total").labels()
        with pytest.raises(ValueError, match="only go up"):
            child.inc(-1)
        with pytest.raises(ValueError, match="NaN"):
            Histogram("h").labels().observe(math.nan)
        gauge = Gauge("g").labels()
        gauge.set(math.nan)  # NaN is a legal gauge value
        assert math.isnan(gauge.value())


# -- property: children, the family spelling and a dict-of-sums agree -------
_FAMILIES = {
    "c_total": ("counter", ("a", "b")),
    "u_total": ("counter", ()),
    "g": ("gauge", ("a",)),
    "h_seconds": ("histogram", ("a",)),
}
_BOUNDS = (0.1, 1.0, math.inf)
_OPS = {"counter": ["inc"], "gauge": ["set", "inc", "dec"],
        "histogram": ["observe"]}


@st.composite
def _report(draw):
    name = draw(st.sampled_from(sorted(_FAMILIES)))
    kind, label_names = _FAMILIES[name]
    values = tuple(draw(st.sampled_from(["x", "y", 'q"z']))
                   for _ in label_names)
    op = draw(st.sampled_from(_OPS[kind] + ["bind"]))
    amount = draw(st.sampled_from([0, 1, 2.5, 0.125, 7]))
    spelling = draw(st.sampled_from(["family", "child", "map"]))
    return name, values, op, amount, spelling


def _reference(reports):
    """The registry's to_dict() and Prometheus text, from plain dicts."""
    sums = {name: {} for name in _FAMILIES}
    for name, values, op, amount, _ in reports:
        kind = _FAMILIES[name][0]
        book = sums[name]
        if op == "bind":
            continue
        if kind == "histogram":
            counts, count, total = book.get(values, ([0] * 3, 0, 0.0))
            counts = list(counts)
            counts[next(i for i, b in enumerate(_BOUNDS) if amount <= b)] += 1
            book[values] = (counts, count + 1, total + amount)
        elif op == "set":
            book[values] = float(amount)
        else:
            sign = -1 if op == "dec" else 1
            book[values] = book.get(values, 0.0) + sign * amount

    def fmt(value):
        value = float(value)
        if value == math.inf:
            return "+Inf"
        return str(int(value)) if value.is_integer() else repr(value)

    def labels(names, values):
        if not names:
            return ""
        inner = ",".join(f'{k}="{v.replace(chr(34), chr(92) + chr(34))}"'
                         for k, v in zip(names, values))
        return "{" + inner + "}"

    as_dict, lines = {}, []
    for name in sorted(_FAMILIES):
        kind, names = _FAMILIES[name]
        book = sorted(sums[name].items())
        lines.append(f"# TYPE {name} {kind}")
        entry = {"type": kind, "help": ""}
        if kind == "histogram":
            entry.update(labels=list(names),
                         buckets=["0.1", "1", "+Inf"],
                         values=[{"labels": list(k), "count": n, "sum": s,
                                  "bucket_counts": c}
                                 for k, (c, n, s) in book])
            for key, (counts, count, total) in book:
                running = 0
                for bound, in_bucket in zip(_BOUNDS, counts):
                    running += in_bucket
                    lines.append(f"{name}_bucket"
                                 f"{labels(names + ('le',), key + (fmt(bound),))}"
                                 f" {running}")
                lines.append(f"{name}_sum{labels(names, key)} {fmt(total)}")
                lines.append(f"{name}_count{labels(names, key)} {count}")
        else:
            if names:
                entry.update(labels=list(names),
                             values=[{"labels": list(k), "value": v}
                                     for k, v in book])
            else:
                entry["value"] = dict(book).get((), 0.0)
            lines += [f"{name}{labels(names, k)} {fmt(v)}" for k, v in book]
        as_dict[name] = entry
    return as_dict, "\n".join(lines) + "\n"


@given(reports=st.lists(_report(), max_size=40))
def test_children_and_family_spelling_match_a_dict_of_sums(reports):
    reg = MetricsRegistry()
    families = {}
    for name, (kind, names) in _FAMILIES.items():
        register = getattr(reg, kind)
        families[name] = (register(name, label_names=names, buckets=(0.1, 1))
                          if kind == "histogram"
                          else register(name, label_names=names))
    for name, values, op, amount, spelling in reports:
        family = families[name]
        labels = dict(zip(family.label_names, values))
        if spelling == "child":
            target = family.labels(**labels)
        elif spelling == "map":
            target = family.by_labels()[
                values[0] if len(values) == 1 else values]
        else:
            target = None
        if op == "bind":
            continue
        if target is None:
            getattr(family, op)(amount, **labels)
        else:
            getattr(target, op)(amount)
    as_dict, text = _reference(reports)
    assert reg.to_dict() == as_dict
    assert reg.export_prometheus() == text
