"""QuantileDigest: monoid laws (hypothesis), accuracy, ``le`` edges,
serialization and validation of loaded digests.

Mirrors the :class:`PathAccumulator` suite in test_runtime_merge.py:
the engine ships one digest per chunk and merges parent-side, so any
chunking of the observations, merged in any grouping, must equal the
single-pass digest.  Bucket counts and extrema are exact, so the laws
hold exactly for everything ``quantile`` reads; only the float ``total``
is compared with ``pytest.approx``.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import (
    BUCKET_COUNT,
    EDGES,
    QuantileDigest,
    bucket_index,
    merge_digest_maps,
)

# Latency-shaped observations: most values in the microsecond-to-minute
# range the layout resolves, plus 0.0 (sub-resolution timer reads) and
# out-of-range magnitudes that exercise the clamped edge buckets.
latencies = st.one_of(
    st.floats(min_value=1e-7, max_value=1e3),
    st.just(0.0),
    st.floats(min_value=1e6, max_value=1e9),
)
samples = st.lists(latencies, min_size=0, max_size=50)


def from_values(values) -> QuantileDigest:
    digest = QuantileDigest()
    digest.observe_many(values)
    return digest


def assert_equivalent(a: QuantileDigest, b: QuantileDigest) -> None:
    """Exact on everything quantile() reads, approx on the float sum."""
    assert a.counts == b.counts
    assert a.count == b.count
    assert a.min_value == b.min_value
    assert a.max_value == b.max_value
    assert a.total == pytest.approx(b.total)
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert a.quantile(q) == b.quantile(q)


class TestMonoidLaws:
    @given(samples)
    def test_identity(self, values):
        digest = from_values(values)
        empty = QuantileDigest()
        assert digest.merge(empty) == digest
        assert empty.merge(digest) == digest

    @given(samples, samples)
    def test_commutative(self, left, right):
        a, b = from_values(left), from_values(right)
        # Counter addition commutes exactly; IEEE float addition does
        # too, so equality is exact here.
        assert a.merge(b) == b.merge(a)

    @given(samples, samples, samples)
    @settings(max_examples=50)
    def test_associative(self, one, two, three):
        a, b, c = from_values(one), from_values(two), from_values(three)
        assert_equivalent(a.merge(b).merge(c), a.merge(b.merge(c)))

    @given(samples, samples)
    def test_merge_is_pure(self, left, right):
        a, b = from_values(left), from_values(right)
        a_before, b_before = a.copy(), b.copy()
        a.merge(b)
        assert a == a_before
        assert b == b_before


class TestPartitionEquivalence:
    @given(samples, st.integers(min_value=1, max_value=5))
    def test_chunked_merge_equals_single_pass(self, values, chunk_size):
        """Any partition of the observations, merged in order, answers
        every quantile identically to the single-pass digest -- the
        4-worker == serial guarantee."""
        whole = from_values(values)
        merged = QuantileDigest()
        for start in range(0, len(values), chunk_size):
            merged.update(from_values(values[start : start + chunk_size]))
        assert_equivalent(merged, whole)

    @given(st.lists(latencies, min_size=1, max_size=30))
    def test_digest_map_fold(self, values):
        half = len(values) // 2
        held: dict[str, QuantileDigest] = {}
        merge_digest_maps(held, {"parse": from_values(values[:half])})
        merge_digest_maps(held, {"parse": from_values(values[half:]),
                                 "tidy": from_values(values)})
        assert_equivalent(held["parse"], from_values(values))
        assert_equivalent(held["tidy"], from_values(values))

    def test_digest_map_fold_copies_first_contribution(self):
        incoming = from_values([0.5])
        held: dict[str, QuantileDigest] = {}
        merge_digest_maps(held, {"parse": incoming})
        held["parse"].observe(1.0)
        assert incoming.count == 1  # caller's digest not aliased


class TestQuantileAccuracy:
    def test_empty_digest(self):
        digest = QuantileDigest()
        assert digest.quantile(0.5) == 0.0
        assert digest.mean == 0.0
        assert digest.summary()["count"] == 0

    def test_single_value_all_quantiles(self):
        digest = from_values([0.125])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == pytest.approx(0.125, rel=1e-9)

    def test_extremes_are_exact(self):
        digest = from_values([0.003, 0.4, 0.007, 12.0, 0.0001])
        assert digest.quantile(0.0) == 0.0001
        assert digest.quantile(1.0) == 12.0

    @given(st.lists(st.floats(min_value=1e-5, max_value=100.0),
                    min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_within_documented_relative_error(self, values):
        """Every reported quantile lies within the documented one-bucket
        relative error of the true order statistic (clamping to min/max
        can only tighten this)."""
        digest = from_values(values)
        ordered = sorted(values)
        tolerance = digest.relative_error
        for q in (0.5, 0.95, 0.99):
            rank = q * (len(ordered) - 1)
            low = ordered[int(rank)]
            high = ordered[min(len(ordered) - 1, int(rank) + 1)]
            estimate = digest.quantile(q)
            assert estimate >= low * (1 - tolerance) * (1 - 1e-9)
            assert estimate <= high * (1 + tolerance) * (1 + 1e-9)

    def test_zero_and_negative_fall_into_first_bucket(self):
        digest = QuantileDigest()
        digest.observe(0.0)
        digest.observe(-1.0)  # clock skew reads clamp to zero
        assert digest.counts == {0: 2}
        assert digest.min_value == 0.0
        assert digest.quantile(0.5) == 0.0

    def test_overflow_clamps_to_last_bucket(self):
        digest = QuantileDigest()
        digest.observe(1e12)
        assert digest.counts == {BUCKET_COUNT - 1: 1}
        assert digest.quantile(1.0) == 1e12  # exact max survives

    def test_relative_error_matches_layout(self):
        digest = QuantileDigest()
        for low, high in zip(EDGES, EDGES[1:]):
            assert high / low - 1.0 == pytest.approx(digest.relative_error)
        assert digest.relative_error < 0.16


class TestLeEdges:
    """The layout's edges are inclusive upper bounds, as Prometheus
    ``le`` requires: the registry publishes them as ``le`` labels."""

    def test_layout_shape(self):
        assert len(EDGES) == 191
        assert BUCKET_COUNT == 192
        assert list(EDGES) == sorted(set(EDGES))
        assert EDGES[0] == pytest.approx(1e-6 * 10 ** (1 / 16))
        # Decade edges are exact, so their `le` labels read cleanly.
        assert {1e-5, 1e-3, 0.01, 0.1, 1.0, 10.0} <= set(EDGES)

    def test_every_edge_lands_in_its_own_bucket(self):
        for index, edge in enumerate(EDGES):
            digest = QuantileDigest()
            digest.observe(edge)
            assert digest.counts == {index: 1}, edge
            assert bucket_index(math.nextafter(edge, math.inf)) == index + 1
            assert bucket_index(math.nextafter(edge, 0.0)) == index

    @given(st.lists(latencies, max_size=40))
    @settings(max_examples=40)
    def test_cumulative_le_count_is_observations_at_or_below_edge(self, values):
        values = values + [EDGES[3], EDGES[100], EDGES[-1]]
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in values:
            histogram.observe(value)
        lines = registry.render_prometheus().splitlines()
        buckets = [line for line in lines if line.startswith("h_bucket")]
        assert len(buckets) == len(EDGES) + 1
        for edge, line in zip(EDGES, buckets):
            assert line.startswith(f'h_bucket{{le="{edge!r}"}} ')
            assert int(line.rsplit(" ", 1)[1]) == sum(v <= edge for v in values)
        assert buckets[-1] == f'h_bucket{{le="+Inf"}} {len(values)}'


class TestSerialization:
    @given(samples)
    @settings(max_examples=40)
    def test_pickle_round_trip(self, values):
        digest = from_values(values)
        assert pickle.loads(pickle.dumps(digest)) == digest

    @given(samples)
    @settings(max_examples=40)
    def test_json_round_trip(self, values):
        digest = from_values(values)
        wire = json.loads(json.dumps(digest.to_json()))
        assert QuantileDigest.from_json(wire) == digest

    def test_summary_is_json_ready(self):
        digest = from_values([0.001, 0.01, 0.1])
        summary = json.loads(json.dumps(digest.summary()))
        assert summary["count"] == 3
        assert summary["min"] == 0.001
        assert summary["max"] == 0.1
        assert 0.001 <= summary["p50"] <= 0.1

    def test_wire_forms_carry_no_layout(self):
        digest = from_values([0.001, 0.5])
        assert set(digest.to_json()) == {
            "indices", "counts", "count", "total", "min", "max"
        }
        assert len(digest.__getstate__()) == 6


class TestLoadedDigestValidation:
    """A digest read from a file is checked: ``from_json`` raises
    ``ValueError`` for any state no observe sequence produces."""

    def saved(self):
        return from_values([0.001, 0.001, 0.5]).to_json()

    def test_valid_digest_loads(self):
        assert QuantileDigest.from_json(self.saved()) == from_values(
            [0.001, 0.001, 0.5]
        )

    @pytest.mark.parametrize("index", [-1, BUCKET_COUNT, 10_000])
    def test_index_outside_layout_rejected(self, index):
        data = self.saved()
        data["indices"][0] = index
        with pytest.raises(ValueError, match="outside"):
            QuantileDigest.from_json(data)

    def test_repeated_index_rejected(self):
        data = self.saved()
        data["indices"][1] = data["indices"][0]
        with pytest.raises(ValueError, match="repeats"):
            QuantileDigest.from_json(data)

    def test_negative_count_rejected(self):
        data = self.saved()
        data["counts"] = [3, -1]
        with pytest.raises(ValueError, match="negative"):
            QuantileDigest.from_json(data)

    def test_mismatched_lengths_rejected(self):
        data = self.saved()
        data["counts"].append(1)
        with pytest.raises(ValueError, match="indices"):
            QuantileDigest.from_json(data)

    def test_count_not_sum_of_counts_rejected(self):
        data = self.saved()
        data["count"] = 4
        with pytest.raises(ValueError, match="sum"):
            QuantileDigest.from_json(data)
