"""Differential tests: the parallel engine must equal the serial path.

For seed corpora at several sizes and worker counts the engine's output
is compared against :meth:`DocumentConverter.convert_many`:

* byte-identical serialized XML, document for document, in order;
* an identical frequent-path set and an identical rendered DTD when
  discovery runs over the merged accumulator instead of the
  materialized corpus.

Worker count 1 exercises the inline chunked path (chunking effects
only); 2 and 4 exercise the process pool and the in-order merge.
"""

from __future__ import annotations

import pytest

from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.schema.dtd import derive_dtd
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import extract_paths

WORKER_COUNTS = [1, 2, 4]


def serial_baseline(kb, converter, html):
    """XML bytes + frequent paths + DTD via the serial reference path."""
    results = converter.convert_many(html)
    xml = [result.to_xml() for result in results]
    documents = [extract_paths(result.root) for result in results]
    frequent = mine_frequent_paths(
        documents,
        sup_threshold=0.4,
        constraints=kb.constraints,
        candidate_labels=kb.concept_tags(),
    )
    dtd = derive_dtd(MajoritySchema.from_frequent_paths(frequent), documents)
    return xml, frequent, dtd


@pytest.fixture(scope="module")
def corpus_html(small_corpus):
    return [doc.html for doc in small_corpus]


@pytest.fixture(scope="module")
def baseline(kb, converter, corpus_html):
    return serial_baseline(kb, converter, corpus_html)


def make_engine(kb, workers, chunk_size=3):
    return CorpusEngine(
        kb,
        engine_config=EngineConfig(max_workers=workers, chunk_size=chunk_size),
    )


class TestDifferentialXML:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_byte_identical(self, kb, corpus_html, baseline, workers):
        serial_xml, _, _ = baseline
        result = make_engine(kb, workers).convert_corpus(corpus_html)
        assert result.xml_documents == serial_xml

    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_sizes_straddling_chunk_boundaries(
        self, kb, converter, corpus_html, size
    ):
        """Corpus sizes below, at, and above the chunk size merge in order."""
        html = corpus_html[:size]
        serial_xml = [result.to_xml() for result in converter.convert_many(html)]
        result = make_engine(kb, 2, chunk_size=4).convert_corpus(html)
        assert result.xml_documents == serial_xml

    def test_empty_corpus(self, kb):
        result = make_engine(kb, 2).convert_corpus([])
        assert result.xml_documents == []
        assert result.accumulator.document_count == 0
        assert result.stats.documents == 0


class TestDifferentialSchema:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_identical_frequent_paths_and_dtd(
        self, kb, corpus_html, baseline, workers
    ):
        _, serial_frequent, serial_dtd = baseline
        engine = make_engine(kb, workers)
        run = engine.run(corpus_html, sup_threshold=0.4)
        assert run.discovery is not None
        assert run.discovery.frequent.paths == serial_frequent.paths
        assert run.discovery.frequent.nodes_explored == serial_frequent.nodes_explored
        assert run.discovery.dtd.render() == serial_dtd.render()

    def test_accumulator_matches_materialized_statistics(
        self, kb, converter, corpus_html
    ):
        """Support values agree exactly between the two representations."""
        result = make_engine(kb, 2).convert_corpus(corpus_html)
        documents = [
            extract_paths(converter.convert(html).root) for html in corpus_html
        ]
        frequent = mine_frequent_paths(documents, sup_threshold=0.0)
        for path in frequent.paths:
            assert result.accumulator.support(path) == pytest.approx(
                frequent.support(path)
            )


class TestEngineStats:
    def test_stats_populated(self, kb, corpus_html):
        result = make_engine(kb, 2, chunk_size=4).convert_corpus(corpus_html)
        stats = result.stats
        assert stats.documents == len(corpus_html)
        assert stats.chunks == 3
        assert stats.workers == 2
        assert stats.wall_seconds > 0
        assert stats.docs_per_second > 0
        assert 1 <= stats.max_queue_depth <= 4
        assert stats.tokens_created > 0
        assert stats.concept_nodes > 0
        assert set(stats.rule_seconds) >= {"parse", "tokenize", "instance"}
        assert len(stats.per_chunk) == 3
        assert [chunk.index for chunk in stats.per_chunk] == [0, 1, 2]

    def test_summary_rows_include_input_nodes(self, kb, corpus_html):
        result = make_engine(kb, 1).convert_corpus(corpus_html)
        rows = dict(result.stats.summary_rows())
        assert rows["input nodes"] == str(result.stats.input_nodes)
        assert int(rows["input nodes"]) > 0

    def test_docs_per_second_guards_sub_millisecond_wall(self):
        from repro.runtime.stats import MIN_WALL_SECONDS, ChunkStats, EngineStats

        stats = EngineStats(workers=1, chunk_size=1)
        stats.absorb(ChunkStats(index=0, documents=100))
        stats.wall_seconds = 1e-7  # timer noise, not a real measurement
        assert stats.docs_per_second == pytest.approx(100 / MIN_WALL_SECONDS)
        stats.wall_seconds = 0.0
        assert stats.docs_per_second == 0.0
        stats.wall_seconds = 2.0
        assert stats.docs_per_second == pytest.approx(50.0)

    def test_stats_round_trip_through_registry_json(self, kb, corpus_html):
        import json

        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.stats import EngineStats

        result = make_engine(kb, 2, chunk_size=4).convert_corpus(corpus_html)
        snapshot = json.loads(result.stats.registry.render_json())
        restored = EngineStats.from_registry(MetricsRegistry.from_json(snapshot))
        assert restored.documents == result.stats.documents
        assert restored.rule_seconds == result.stats.rule_seconds
        assert restored.summary_rows() == result.stats.summary_rows()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rule_seconds_are_stage_digest_totals(self, kb, corpus_html, workers):
        """Stage time has one channel: the per-rule seconds are the
        totals of the registry's stage histograms, exactly."""
        from repro.runtime.stats import STAGE_SECONDS

        stats = make_engine(kb, workers, chunk_size=4).convert_corpus(
            corpus_html
        ).stats
        assert set(stats.rule_seconds) == {
            "parse", "tidy", "tokenize", "instance", "group", "consolidate", "root"
        }
        for stage, seconds in stats.rule_seconds.items():
            digest = stats.registry.histogram(STAGE_SECONDS, stage=stage).digest
            assert seconds == digest.total
            assert digest.count == len(corpus_html)
        document = stats.registry.histogram(STAGE_SECONDS, stage="document")
        assert document.digest.count == stats.documents

    def test_streaming_yields_chunks_in_order(self, kb, corpus_html):
        engine = make_engine(kb, 2, chunk_size=3)
        stats = engine.new_stats()
        indices = [
            payload.stats.index
            for payload in engine.stream(corpus_html, stats=stats)
        ]
        assert indices == sorted(indices)
        assert stats.wall_seconds > 0


class TestStreamLifecycle:
    """Regression tests for the stream generator's shutdown semantics."""

    def test_early_close_cancels_inflight_work(
        self, kb, corpus_html, monkeypatch
    ):
        """Closing the stream mid-corpus must not block on in-flight
        chunks: the pool shuts down with ``wait=False`` and queued
        futures cancelled, instead of silently converting the rest of
        the corpus on the consumer's time."""
        import repro.runtime.pool as pool_module

        shutdown_calls = []

        class RecordingPool(pool_module.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", RecordingPool
        )
        engine = make_engine(kb, 2, chunk_size=2)
        stream = engine.stream(corpus_html)
        first = next(stream)
        assert first.stats.index == 0
        stream.close()
        assert shutdown_calls == [(False, True)]

    @pytest.mark.parametrize(
        "exc_type", [ValueError, KeyboardInterrupt], ids=["consumer", "ctrl-c"]
    )
    def test_exceptional_exit_cancels_inflight_work(
        self, kb, corpus_html, monkeypatch, exc_type
    ):
        """A consumer exception or Ctrl-C thrown into the stream must
        take the same cancel-and-shutdown path as an early close: before
        the fix, only ``GeneratorExit`` set the interrupted flag, so any
        other exceptional exit blocked on in-flight chunks in the
        generator's ``finally`` (``shutdown(wait=True)``)."""
        import repro.runtime.pool as pool_module

        shutdown_calls = []

        class RecordingPool(pool_module.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", RecordingPool
        )
        engine = make_engine(kb, 2, chunk_size=2)
        stream = engine.stream(corpus_html)
        first = next(stream)
        assert first.stats.index == 0
        with pytest.raises(exc_type):
            stream.throw(exc_type("mid-stream"))
        assert shutdown_calls == [(False, True)]

    def test_progress_callback_exception_cancels_inflight_work(
        self, kb, corpus_html, monkeypatch
    ):
        """An exception raised *inside* the generator body (here via the
        progress hook during merge) is an exceptional exit too, and must
        not fall through to a blocking pool shutdown."""
        import repro.runtime.pool as pool_module

        shutdown_calls = []

        class RecordingPool(pool_module.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", RecordingPool
        )

        def explode(stats):
            raise RuntimeError("progress hook failed")

        engine = make_engine(kb, 2, chunk_size=2)
        with pytest.raises(RuntimeError, match="progress hook failed"):
            list(engine.stream(corpus_html, progress=explode))
        assert shutdown_calls == [(False, True)]

    def test_normal_exhaustion_waits_for_pool(
        self, kb, corpus_html, monkeypatch
    ):
        import repro.runtime.pool as pool_module

        shutdown_calls = []

        class RecordingPool(pool_module.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdown_calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(
            pool_module, "ProcessPoolExecutor", RecordingPool
        )
        engine = make_engine(kb, 2, chunk_size=3)
        list(engine.stream(corpus_html))
        assert shutdown_calls == [(True, False)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wall_seconds_advances_at_each_merge(
        self, kb, corpus_html, workers
    ):
        """``wall_seconds`` is recorded incrementally, so a stream that
        is abandoned (or still draining) reports time spent so far --
        not a stale 0.0 that only the generator's finally would fix."""
        engine = make_engine(kb, workers, chunk_size=2)
        stats = engine.new_stats()
        stream = engine.stream(corpus_html, stats=stats)
        next(stream)
        elapsed_after_first = stats.wall_seconds
        assert elapsed_after_first > 0
        next(stream)
        assert stats.wall_seconds >= elapsed_after_first
        stream.close()


@pytest.mark.slow
class TestDifferentialLargeCorpus:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_thirty_documents(self, kb, converter, workers):
        from repro.corpus.generator import ResumeCorpusGenerator

        html = ResumeCorpusGenerator(seed=7).generate_html(30)
        serial_xml, serial_frequent, serial_dtd = serial_baseline(
            kb, converter, html
        )
        engine = make_engine(kb, workers, chunk_size=8)
        run = engine.run(html, sup_threshold=0.4)
        assert run.corpus.xml_documents == serial_xml
        assert run.discovery.frequent.paths == serial_frequent.paths
        assert run.discovery.dtd.render() == serial_dtd.render()
