"""Unit tests for the engine's scaling machinery.

Covers the adaptive chunk-size controller (:class:`ChunkSizer`), the
worker-side XML sink, the :class:`ChunkStats` compact wire form (the
pickle every chunk rides home on), and the scaling-efficiency metrics
:class:`EngineStats` derives from the new ``doc_seconds`` counter.  The
end-to-end guarantees (sink files == collected strings, adaptive ==
static bytes) live in test_fast_tidy_differential.py; these tests pin
the mechanisms in isolation.
"""

from __future__ import annotations

import pickle

import pytest

from repro.runtime.engine import ChunkSizer, CorpusEngine, EngineConfig, XmlSink
from repro.runtime.stats import ChunkStats, EngineStats


def chunk(index=0, documents=4, seconds=0.0, doc_seconds=0.0, failed=0):
    return ChunkStats(
        index=index,
        documents=documents,
        documents_failed=failed,
        seconds=seconds,
        doc_seconds=doc_seconds,
    )


class TestEngineConfigChunking:
    def test_default_is_adaptive(self):
        config = EngineConfig()
        assert config.adaptive_chunking()
        assert config.resolved_chunk_size() == config.min_chunk_size

    def test_static_size_resolves_to_itself(self):
        config = EngineConfig(chunk_size=16)
        assert not config.adaptive_chunking()
        assert config.resolved_chunk_size() == 16


class TestChunkSizer:
    def test_static_sizer_never_moves(self):
        sizer = ChunkSizer.from_config(EngineConfig(chunk_size=8))
        for index in range(5):
            sizer.observe(chunk(index, documents=8, seconds=0.001, doc_seconds=0.0008))
        assert sizer.size == 8

    def test_fast_chunks_grow_the_size(self):
        sizer = ChunkSizer.from_config(
            EngineConfig(chunk_size=None, min_chunk_size=4, target_chunk_seconds=0.05)
        )
        sizer.observe(chunk(documents=4, seconds=0.004, doc_seconds=0.001))
        assert sizer.size > 4

    def test_growth_bounded_at_4x_per_step(self):
        sizer = ChunkSizer.from_config(
            EngineConfig(chunk_size=None, min_chunk_size=4, target_chunk_seconds=1.0)
        )
        # Per-doc time is tiny, so the desired size is enormous -- but a
        # single observation may only quadruple the size.
        sizer.observe(chunk(documents=4, seconds=0.0001, doc_seconds=0.00008))
        assert sizer.size == 16

    def test_growth_capped_at_max_chunk_size(self):
        sizer = ChunkSizer.from_config(
            EngineConfig(
                chunk_size=None,
                min_chunk_size=4,
                max_chunk_size=10,
                target_chunk_seconds=1.0,
            )
        )
        for index in range(5):
            sizer.observe(chunk(index, documents=sizer.size, seconds=0.0001))
        assert sizer.size == 10

    def test_slow_chunks_back_off_toward_initial(self):
        sizer = ChunkSizer.from_config(
            EngineConfig(chunk_size=None, min_chunk_size=4, target_chunk_seconds=0.05)
        )
        sizer.observe(chunk(0, documents=4, seconds=0.004))  # grow first
        grown = sizer.size
        sizer.observe(chunk(1, documents=grown, seconds=1.0))  # 20x over target
        assert sizer.size < grown
        assert sizer.size >= sizer.initial

    def test_never_shrinks_below_initial(self):
        sizer = ChunkSizer.from_config(
            EngineConfig(chunk_size=None, min_chunk_size=4, target_chunk_seconds=0.05)
        )
        for index in range(5):
            sizer.observe(chunk(index, documents=4, seconds=10.0))
        assert sizer.size == 4

    def test_empty_or_instant_chunks_are_ignored(self):
        sizer = ChunkSizer.from_config(EngineConfig(chunk_size=None, min_chunk_size=4))
        sizer.observe(chunk(documents=0, failed=0, seconds=0.0))
        sizer.observe(chunk(documents=4, seconds=0.0))
        assert sizer.size == 4


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
        """The v2 wire form: the stage digests are the chunk's only
        record of stage time, so they and their totals must survive."""
        stats = chunk(index=3, documents=7, seconds=1.5, doc_seconds=1.2, failed=2)
        stats.failures_by_stage = {"parse": 2}
        stats.observe_document("doc0", 0, 0.25, {"group": 0.2, "parse": 0.01})
        stats.observe_document("doc1", 1, 0.95, {"group": 0.3, "parse": 0.02})
        stats.finalize_slowest()
        state = stats.__getstate__()
        assert state[0] == 2
        restored = pickle.loads(pickle.dumps(stats))
        assert not hasattr(restored, "rule_seconds")
        assert restored.index == 3
        assert restored.documents == 7
        assert restored.documents_failed == 2
        assert restored.failures_by_stage == {"parse": 2}
        assert restored.seconds == 1.5
        assert restored.doc_seconds == 1.2
        assert restored.stage_digests == stats.stage_digests
        assert set(restored.stage_digests) == {"group", "parse", "document"}
        assert restored.stage_digests["group"].total == 0.2 + 0.3
        assert restored.stage_digests["document"].total == 0.25 + 0.95
        assert restored.stage_digests["group"].count == 2
        assert restored.slowest_docs == stats.slowest_docs

    def test_wire_form_is_tuple_not_dict(self):
        """The pickle must carry the version-tagged tuple, not dataclass
        dict state (no per-instance field-name strings on the wire)."""
        state = chunk().__getstate__()
        assert isinstance(state, tuple)
        assert state[0] == ChunkStats._WIRE_VERSION

    def test_unknown_wire_version_rejected(self):
        stats = ChunkStats.__new__(ChunkStats)
        with pytest.raises(ValueError):
            stats.__setstate__((99,))


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

    def test_chunk_sizes_row_only_when_nontail_sizes_vary(self):
        static = EngineStats(workers=1, chunk_size=4)
        for index, docs in enumerate([4, 4, 2]):  # static run, partial tail
            static.absorb(chunk(index, documents=docs))
        assert "chunk sizes" not in [row[0] for row in static.summary_rows()]

        adaptive = EngineStats(workers=1, chunk_size=4)
        for index, docs in enumerate([4, 8, 16, 3]):  # grown sizes + tail
            adaptive.absorb(chunk(index, documents=docs))
        rows = {row[0]: row[1] for row in adaptive.summary_rows()}
        assert rows["chunk sizes"] == "4..16"


class TestAdaptiveStream:
    def test_chunk_sizes_grow_across_a_run(self, kb):
        """On a corpus of fast documents the observed chunk sizes must
        actually grow (the controller is live, not decorative)."""
        html = ["<html><body><p>doc</p></body></html>"] * 60
        engine = CorpusEngine(
            kb,
            engine_config=EngineConfig(
                max_workers=1,
                chunk_size=None,
                min_chunk_size=2,
                max_chunk_size=32,
            ),
        )
        result = engine.convert_corpus(html)
        ordered = sorted(result.stats.per_chunk, key=lambda c: c.index)
        sizes = [c.documents + c.documents_failed for c in ordered[:-1]]
        assert max(sizes) > sizes[0]
        assert sizes == sorted(sizes)  # monotone growth on a uniform corpus
