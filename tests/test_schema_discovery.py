"""Tests for :func:`repro.schema.discovery.discover_schema`, the one
mine -> majority schema -> DTD sequence every discovery runs."""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.schema.accumulator import PathAccumulator
from repro.schema.discovery import discover_schema
from repro.schema.paths import extract_paths


@pytest.fixture(scope="module")
def documents(converted_corpus):
    return [extract_paths(result.root) for result in converted_corpus]


class TestDiscoverSchema:
    def test_list_and_accumulator_agree(self, kb, documents):
        from_list = discover_schema(documents, kb)
        from_acc = discover_schema(PathAccumulator.from_documents(documents), kb)
        assert from_list.frequent.paths == from_acc.frequent.paths
        assert from_list.dtd.render() == from_acc.dtd.render()
        assert from_acc.schema.root.label == "RESUME"

    def test_empty_corpus_gives_none(self, kb):
        assert discover_schema(PathAccumulator(), kb) is None
        assert discover_schema([], kb) is None

    def test_thresholds_nothing_clears_give_none(self, kb, documents):
        assert discover_schema(documents, kb, sup_threshold=1.5) is None

    def test_optional_threshold_reaches_the_dtd(self, kb, documents):
        plain = discover_schema(documents, kb).dtd.render()
        optional = discover_schema(documents, kb, optional_threshold=0.9)
        assert "?" not in plain
        assert "?" in optional.dtd.render()

    def test_spans(self, kb, documents):
        tracer = Tracer()
        result = discover_schema(documents, kb, tracer=tracer)
        (mine,) = tracer.by_name("discover.mine_frequent")
        assert mine.attrs == {
            "frequent_paths": len(result.frequent.paths),
            "nodes_explored": result.frequent.nodes_explored,
        }
        (majority,) = tracer.by_name("discover.majority_schema")
        assert majority.attrs == {"elements": result.schema.element_count()}
        assert tracer.by_name("discover.derive_dtd")

    def test_spans_stop_at_mining_when_nothing_clears(self, kb, documents):
        tracer = Tracer()
        assert discover_schema(documents, kb, sup_threshold=1.5, tracer=tracer) is None
        assert tracer.names() == {"discover.mine_frequent"}


class TestEngineRun:
    def test_thresholds_nothing_clears_give_no_discovery(self, kb, small_corpus):
        """The corpus still converts; there is just no schema."""
        engine = CorpusEngine(kb, engine_config=EngineConfig(max_workers=1))
        run = engine.run([doc.html for doc in small_corpus], sup_threshold=1.5)
        assert run.discovery is None
        assert run.corpus.stats.documents == len(small_corpus)
