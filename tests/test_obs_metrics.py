"""Metrics registry: counters/gauges/histograms, merging and exports.

The histogram bucket-edge tests pin the Prometheus ``le`` convention on
the digest-backed histogram (a value equal to an edge counts at that
edge); the exposition tests check the text format against both the
repo's own validator and hand-written expectations.  The merge tests
check :meth:`MetricsRegistry.update` -- how an engine chunk's books
reach the run's -- against the monoid laws with hypothesis, as the
accumulator and digest merges are checked.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.export import load_metrics, write_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import BUCKET_COUNT, EDGES, QuantileDigest
from tests.obscheck import validate_prometheus_text


def bucket_samples(registry: MetricsRegistry, name: str) -> list[tuple[str, int]]:
    """(le, cumulative count) pairs of one unlabeled histogram."""
    pairs = []
    for line in registry.render_prometheus().splitlines():
        if line.startswith(f"{name}_bucket{{"):
            labels, value = line.rsplit(" ", 1)
            pairs.append((labels.split('le="')[1].rstrip('"}'), int(value)))
    return pairs


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(4)
        assert registry.value("jobs_total") == 5.0

    def test_labelsets_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("rule_seconds_total", rule="parse").inc(1.5)
        registry.counter("rule_seconds_total", rule="tidy").inc(0.5)
        assert registry.value("rule_seconds_total", rule="parse") == 1.5
        assert registry.value("rule_seconds_total", rule="tidy") == 0.5
        assert len(registry.find("rule_seconds_total")) == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        registry.counter("c", b="2", a="1").inc()
        assert registry.value("c", a="1", b="2") == 2.0

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)


class TestGauge:
    def test_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(3)
        gauge.inc(-1)
        assert registry.value("queue_depth") == 2.0
        gauge.set(7)
        assert registry.value("queue_depth") == 7.0


class TestHistogramBucketEdges:
    # 0.01 is a layout edge: 1e-6 * 10 ** (64 / 16).
    EDGE = EDGES.index(0.01)

    def test_value_on_bound_falls_in_that_bucket(self):
        """Prometheus ``le`` is inclusive: observe(0.01) lands in the
        le="0.01" bucket, not the next one up."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(0.01)
        assert histogram.digest.counts == {self.EDGE: 1}
        samples = dict(bucket_samples(registry, "h"))
        assert samples["0.01"] == 1
        assert samples[repr(EDGES[self.EDGE - 1])] == 0

    def test_value_just_above_bound_falls_in_next(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(math.nextafter(0.01, 1.0))
        assert histogram.digest.counts == {self.EDGE + 1: 1}
        samples = dict(bucket_samples(registry, "h"))
        assert samples["0.01"] == 0
        assert samples[repr(EDGES[self.EDGE + 1])] == 1

    def test_value_above_top_bound_goes_to_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(1e12)
        assert histogram.digest.counts == {BUCKET_COUNT - 1: 1}
        samples = bucket_samples(registry, "h")
        assert samples[-2] == (repr(EDGES[-1]), 0)
        assert samples[-1] == ("+Inf", 1)

    def test_cumulative_counts_are_monotone_and_end_at_total(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        cumulative = [count for _, count in bucket_samples(registry, "h")]
        assert cumulative == sorted(cumulative)
        assert dict(bucket_samples(registry, "h"))["1.0"] == 2
        assert cumulative[-1] == 5
        assert histogram.digest.count == 5
        assert histogram.digest.total == pytest.approx(106.0)

    def test_default_seconds_buckets(self):
        """Every histogram exposes every layout edge, observed or not,
        so the ``le`` set is the same at every scrape."""
        registry = MetricsRegistry()
        registry.histogram("h")
        empty = [le for le, _ in bucket_samples(registry, "h")]
        registry.histogram("h").observe(0.25)
        assert [le for le, _ in bucket_samples(registry, "h")] == empty
        assert empty == [repr(edge) for edge in EDGES] + ["+Inf"]


class TestPrometheusExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("repro_docs_total").inc(50)
        registry.counter("repro_worker_seconds_total", stage="parse").inc(0.25)
        registry.gauge("repro_workers").set(4)
        histogram = registry.histogram("repro_chunk_seconds")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_exposition_passes_validator(self):
        text = self.build().render_prometheus()
        assert validate_prometheus_text(text) == []

    def test_type_lines_and_samples(self):
        lines = self.build().render_prometheus().splitlines()
        assert "# TYPE repro_docs_total counter" in lines
        assert "# TYPE repro_workers gauge" in lines
        assert "# TYPE repro_chunk_seconds histogram" in lines
        assert "repro_docs_total 50" in lines
        assert 'repro_worker_seconds_total{stage="parse"} 0.25' in lines
        assert "repro_workers 4" in lines

    def test_histogram_series_cumulative_with_inf(self):
        lines = self.build().render_prometheus().splitlines()
        assert 'repro_chunk_seconds_bucket{le="0.1"} 1' in lines
        assert 'repro_chunk_seconds_bucket{le="1.0"} 2' in lines
        assert 'repro_chunk_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_chunk_seconds_count 3" in lines
        assert any(line.startswith("repro_chunk_seconds_sum ") for line in lines)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert r'c{path="a\"b\\c\nd"} 1' in text
        assert validate_prometheus_text(text) == []

    def test_label_escape_order_backslash_first(self):
        """Backslash must escape before quote/newline, or the inserted
        escape backslashes would themselves be doubled."""
        registry = MetricsRegistry()
        registry.counter("c", path="\\n").inc()
        text = registry.render_prometheus()
        # A literal backslash + n: escaped backslash then literal n,
        # NOT a doubly-escaped newline.
        assert 'c{path="\\\\n"} 1' in text
        assert validate_prometheus_text(text) == []

    def test_label_values_with_braces_pass_validator(self):
        """Label paths like ``resume{2}`` carry braces; the sample
        regex must parse quoted values, not just scan for ``}``."""
        registry = MetricsRegistry()
        registry.counter("c", path="resume{2}.name", doc="a}b{c").inc()
        text = registry.render_prometheus()
        assert validate_prometheus_text(text) == []


class TestHelpText:
    def test_help_line_emitted_before_type(self):
        registry = MetricsRegistry()
        registry.describe("repro_docs_total", "Documents converted.")
        registry.counter("repro_docs_total").inc(3)
        lines = registry.render_prometheus().splitlines()
        help_index = lines.index("# HELP repro_docs_total Documents converted.")
        type_index = lines.index("# TYPE repro_docs_total counter")
        assert help_index == type_index - 1
        assert validate_prometheus_text(registry.render_prometheus()) == []

    def test_help_text_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.describe("c", 'multi\nline \\ with "quotes"')
        registry.counter("c").inc()
        text = registry.render_prometheus()
        # Backslash and newline escaped; double quotes left alone (the
        # 0.0.4 format only escapes quotes in label values).
        assert '# HELP c multi\\nline \\\\ with "quotes"' in text
        assert validate_prometheus_text(text) == []

    def test_help_survives_json_round_trip(self):
        registry = MetricsRegistry()
        registry.describe("docs", "Total docs.")
        registry.counter("docs").inc(2)
        clone = MetricsRegistry.from_json(json.loads(registry.render_json()))
        assert clone.help_text("docs") == "Total docs."
        assert clone.render_prometheus() == registry.render_prometheus()

    def test_first_description_wins(self):
        registry = MetricsRegistry()
        registry.describe("docs", "first")
        registry.describe("docs", "second")
        assert registry.help_text("docs") == "first"


class TestJsonRoundTrip:
    def test_round_trip_preserves_all_series(self):
        registry = TestPrometheusExposition().build()
        clone = MetricsRegistry.from_json(json.loads(registry.render_json()))
        assert clone.value("repro_docs_total") == 50
        assert clone.value("repro_worker_seconds_total", stage="parse") == 0.25
        assert clone.value("repro_workers") == 4
        histogram = clone.histogram("repro_chunk_seconds")
        assert histogram.digest == registry.histogram("repro_chunk_seconds").digest
        assert histogram.digest.count == 3
        assert clone.render_prometheus() == registry.render_prometheus()


class TestHistogramQuantile:
    def build(self):
        return MetricsRegistry().histogram("h").digest

    def test_empty_histogram_is_zero(self):
        assert self.build().quantile(0.5) == 0.0

    def test_interpolates_within_bucket(self):
        digest = self.build()
        index = EDGES.index(1.0)
        low, high = EDGES[index - 1], EDGES[index]
        for step in range(10):
            digest.observe(low + (high - low) * (step + 0.5) / 10)
        assert digest.counts == {index: 10}
        assert low < digest.quantile(0.5) <= high

    def test_first_bucket_interpolates_from_zero(self):
        digest = self.build()
        digest.observe_many([0.0, 0.0, EDGES[0], EDGES[0]])
        assert digest.counts == {0: 4}
        assert digest.quantile(0.5) == pytest.approx(EDGES[0] / 2)

    def test_spread_observations(self):
        digest = self.build()
        digest.observe_many([0.05, 0.5, 0.5, 5.0])
        assert digest.quantile(0.0) == 0.05
        assert 0.1 < digest.quantile(0.5) <= 1.0
        assert digest.quantile(1.0) == 5.0


class TestLoadMetrics:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("docs_total").inc(12)
        registry.counter("rule_seconds_total", rule="parse").inc(0.5)
        registry.gauge("workers").set(4)
        registry.gauge("peak_queue").set(7)
        registry.histogram("chunk_seconds").observe(0.05)
        registry.histogram("stage_seconds", stage="parse").observe(3.0)
        return registry

    def test_json_round_trip_via_files(self, tmp_path):
        registry = self.build()
        target = tmp_path / "nested" / "m.json"  # parents created
        write_metrics(registry, target)
        clone = load_metrics(target)
        assert clone.value("docs_total") == 12
        assert clone.value("rule_seconds_total", rule="parse") == 0.5
        assert clone.value("workers") == 4
        assert clone.histogram("chunk_seconds").digest == (
            registry.histogram("chunk_seconds").digest
        )
        assert clone.histogram("stage_seconds", stage="parse").digest.max_value == 3.0
        assert clone.render_prometheus() == registry.render_prometheus()

    def test_gauge_merge_key_of_older_files_ignored(self, tmp_path, capsys):
        """Metrics files saved while gauges carried a merge mode still
        load, and ``repro-web report`` still renders them."""
        snapshot = self.build().to_json()
        for entry in snapshot["metrics"]:
            if entry["kind"] == "gauge":
                entry["merge"] = "max"
        target = tmp_path / "older.json"
        target.write_text(json.dumps(snapshot))
        assert load_metrics(target).to_json() == self.build().to_json()
        assert main(["report", str(target)]) == 0
        assert "Corpus engine run" in capsys.readouterr().out

    def test_old_fixed_bucket_form_rejected(self, tmp_path):
        target = tmp_path / "old.json"
        target.write_text(json.dumps({"metrics": [{
            "name": "repro_engine_chunk_seconds", "kind": "histogram",
            "labels": {}, "buckets": [0.1, 1.0], "counts": [1, 0, 0],
            "sum": 0.05, "count": 1,
        }]}))
        with pytest.raises(ValueError, match="fixed-bucket"):
            load_metrics(target)

    def test_malformed_digest_rejected(self, tmp_path):
        snapshot = self.build().to_json()
        entry = next(e for e in snapshot["metrics"] if e["kind"] == "histogram")
        entry["digest"]["count"] += 1
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="sum"):
            load_metrics(target)

    def test_prometheus_suffixes_rejected(self, tmp_path):
        registry = self.build()
        for suffix in (".prom", ".txt"):
            target = tmp_path / f"m{suffix}"
            write_metrics(registry, target)
            with pytest.raises(ValueError):
                load_metrics(target)


class TestValidation:
    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name!")

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


# Recordings for the merge laws: a name fixes the metric's kind, and
# every value is a multiple of 2**-10 so float sums are exact in any
# grouping.
exact_values = st.integers(min_value=0, max_value=2**20).map(lambda k: k * 2.0**-10)
recordings = st.lists(
    st.tuples(
        st.sampled_from(["docs_total", "nodes_total", "stage_seconds"]),
        st.sampled_from(["parse", "tidy"]),
        exact_values,
    ),
    max_size=20,
)


def recorded(ops) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, stage, value in ops:
        if name.endswith("_total"):
            registry.counter(name, stage=stage).inc(value)
        else:
            registry.histogram(name, stage=stage).observe(value)
    return registry


def merged(*parts) -> dict:
    """The JSON snapshot of the parts' registries merged left to right."""
    registry = MetricsRegistry()
    for part in parts:
        registry.update(recorded(part))
    return registry.to_json()


class TestUpdate:
    @given(recordings)
    def test_identity(self, ops):
        expected = recorded(ops).to_json()
        held = recorded(ops)
        held.update(MetricsRegistry())
        assert held.to_json() == expected
        assert merged(ops) == expected

    @given(recordings, recordings)
    def test_commutative(self, left, right):
        assert merged(left, right) == merged(right, left)

    @given(recordings, recordings, recordings)
    @settings(max_examples=50)
    def test_associative(self, one, two, three):
        grouped = recorded(two)
        grouped.update(recorded(three))
        right = recorded(one)
        right.update(grouped)
        assert merged(one, two, three) == right.to_json()

    @given(recordings, st.integers(min_value=1, max_value=5))
    def test_chunked_books_equal_one_book(self, ops, chunk_size):
        """Recording in chunks and merging equals recording once -- the
        engine's any-worker-count books."""
        chunks = [ops[i : i + chunk_size] for i in range(0, len(ops), chunk_size)]
        assert merged(*chunks) == recorded(ops).to_json()

    def test_incoming_digest_not_aliased(self):
        incoming = MetricsRegistry()
        incoming.histogram("stage_seconds", stage="parse").observe(0.5)
        held = MetricsRegistry()
        held.update(incoming)
        held.histogram("stage_seconds", stage="parse").observe(1.0)
        assert incoming.histogram("stage_seconds", stage="parse").digest.count == 1

    def test_kind_clash_rejected(self):
        held = MetricsRegistry()
        held.counter("x")
        incoming = MetricsRegistry()
        incoming.histogram("x").observe(1.0)
        with pytest.raises(ValueError):
            held.update(incoming)

    def test_gauge_rejected(self):
        incoming = MetricsRegistry()
        incoming.gauge("workers").set(2)
        with pytest.raises(ValueError):
            MetricsRegistry().update(incoming)
