"""Unit tests for the engine's scaling machinery.

Covers the default chunk size, the worker-side XML sink, the
:class:`ChunkStats` pickle round trip (every chunk's books ride home in
its registry), and the scaling-efficiency metrics :class:`EngineStats` derives from
the ``doc_seconds`` counter.  The end-to-end guarantees (sink files ==
collected strings, default == forced chunk size bytes) live in
test_fast_tidy_differential.py; these tests pin the mechanisms in
isolation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.runtime.engine import CorpusEngine, EngineConfig, XmlSink
from repro.runtime.pool import CHUNK_SIZE
from repro.runtime.stats import (
    DOC_SECONDS,
    DOCUMENTS,
    DOCUMENTS_FAILED,
    STAGE_SECONDS,
    WORKER_SECONDS,
    ChunkStats,
    EngineStats,
)


def chunk(index=0, documents=4, seconds=0.0, doc_seconds=0.0):
    stats = ChunkStats(index)
    stats.registry.counter(DOCUMENTS).inc(documents)
    stats.registry.counter(WORKER_SECONDS).inc(seconds)
    stats.registry.counter(DOC_SECONDS).inc(doc_seconds)
    return stats


class TestEngineConfigChunking:
    def test_default_is_one_chunk_size(self):
        assert EngineConfig().chunk_size == CHUNK_SIZE


class TestXmlSink:
    def test_write_creates_named_file(self, tmp_path):
        sink = XmlSink(str(tmp_path / "out"))
        sink.prepare()
        sink.write("resume0007", "<doc/>")
        assert (tmp_path / "out" / "resume0007.xml").read_text(encoding="utf-8") == "<doc/>"

    def test_rewrite_is_idempotent(self, tmp_path):
        sink = XmlSink(str(tmp_path))
        sink.write("a", "<first/>")
        sink.write("a", "<second/>")
        assert (tmp_path / "a.xml").read_text() == "<second/>"
        assert len(list(tmp_path.glob("*.xml"))) == 1

    def test_prepare_makes_nested_directories(self, tmp_path):
        sink = XmlSink(str(tmp_path / "deep" / "nested"))
        sink.prepare()
        assert (tmp_path / "deep" / "nested").is_dir()

    def test_failed_document_leaves_no_file(self, kb, tmp_path):
        """A document the skip policy drops must not produce a sink file."""
        from repro.convert.config import ConversionConfig

        engine = CorpusEngine(
            kb,
            ConversionConfig(chaos_fail_marker="__POISON__"),
            engine_config=EngineConfig(
                max_workers=1, chunk_size=2, error_policy="skip"
            ),
        )
        sink_dir = tmp_path / "sunk"
        result = engine.convert_corpus(
            ["<html><body><p>ok</p></body></html>", "<p>__POISON__</p>"],
            collect_xml=False,
            xml_sink=str(sink_dir),
            names=["good", "bad"],
        )
        assert result.stats.documents_failed == 1
        assert sorted(p.stem for p in sink_dir.glob("*.xml")) == ["good"]


class TestChunkStatsWire:
    def test_pickle_round_trip(self):
        """The stage digests are the chunk's only record of stage time,
        so they and their totals must survive the pickle."""
        stats = chunk(index=3, documents=7, seconds=1.5, doc_seconds=1.2)
        stats.registry.counter(DOCUMENTS_FAILED, stage="parse").inc(2)
        for doc, index, seconds, stages in (
            ("doc0", 0, 0.25, {"group": 0.2, "parse": 0.01}),
            ("doc1", 1, 0.95, {"group": 0.3, "parse": 0.02}),
        ):
            for stage, elapsed in (*stages.items(), ("document", seconds)):
                stats.registry.histogram(STAGE_SECONDS, stage=stage).observe(elapsed)
            stats.consider_slowest(doc, index, seconds, {})
        stats.finalize_slowest()
        restored = pickle.loads(pickle.dumps(stats))
        assert not hasattr(restored, "rule_seconds")
        assert restored.registry.to_json() == stats.registry.to_json()
        assert restored.index == 3
        assert restored.documents == 7
        assert restored.documents_failed == 2
        assert restored.failures_by_stage == {"parse": 2}
        assert restored.worker_seconds == 1.5
        assert restored.doc_seconds == 1.2
        assert restored.stage_digests == stats.stage_digests
        assert set(restored.stage_digests) == {"group", "parse", "document"}
        assert restored.stage_digests["group"].total == 0.2 + 0.3
        assert restored.stage_digests["document"].total == 0.25 + 0.95
        assert restored.stage_digests["group"].count == 2
        assert restored.slowest_docs == stats.slowest_docs


class TestScalingMetrics:
    def test_doc_seconds_absorbed_into_registry(self):
        stats = EngineStats(workers=2, chunk_size=4)
        stats.absorb(chunk(0, documents=4, seconds=2.0, doc_seconds=1.5))
        stats.absorb(chunk(1, documents=4, seconds=2.0, doc_seconds=1.5))
        assert stats.doc_seconds == pytest.approx(3.0)

    def test_chunk_overhead_fraction(self):
        stats = EngineStats(workers=2, chunk_size=4)
        stats.absorb(chunk(documents=4, seconds=2.0, doc_seconds=1.5))
        assert stats.chunk_overhead_fraction == pytest.approx(0.25)

    def test_chunk_overhead_fraction_zero_without_measurements(self):
        assert EngineStats().chunk_overhead_fraction == 0.0

    def test_docs_per_second_per_worker_divides_by_workers(self):
        stats = EngineStats(workers=4, chunk_size=4)
        stats.absorb(chunk(documents=8))
        stats.wall_seconds = 2.0
        assert stats.docs_per_second == pytest.approx(4.0)
        assert stats.docs_per_second_per_worker == pytest.approx(1.0)

    def test_summary_includes_scaling_rows(self):
        stats = EngineStats(workers=2, chunk_size=4)
        stats.absorb(chunk(documents=4, seconds=2.0, doc_seconds=1.5))
        stats.wall_seconds = 1.0
        names = [row[0] for row in stats.summary_rows()]
        assert "docs/sec/worker" in names
        assert "chunk overhead" in names
