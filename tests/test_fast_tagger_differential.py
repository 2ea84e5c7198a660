"""Differential tests: the fast tagger against its oracle, byte for byte.

Same guarantee discipline as the serial-vs-parallel and
tracing-on-vs-off harnesses: over the golden corpus (every authorship
style plus the handwritten edge cases) and a generated corpus, the
Aho-Corasick matcher the pipeline runs and the naive per-pattern
matcher swapped in from ``tests/oracles/`` must produce

* byte-identical serialized XML, document for document, and
* an identical rendered DTD from discovery over the accumulators,

at worker counts 1 (inline chunked path), 2, and 4 (process pool with
per-worker automaton construction).  Each oracle baseline runs serially
under the swap and asserts the swap built its naive matchers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.convert.pipeline import DocumentConverter
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.runtime.stats import TAGGER_CACHE_EVENTS
from tests.oracles import swapped

GOLDEN_DIR = Path(__file__).parent / "golden"
WORKER_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def golden_html():
    cases = sorted(GOLDEN_DIR.glob("*.html"))
    assert cases, "golden corpus went missing"
    return [path.read_text() for path in cases]


def oracle_engine(kb, chunk_size: int) -> CorpusEngine:
    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=1, chunk_size=chunk_size)
    )


@pytest.fixture(scope="module")
def naive_baseline(kb, golden_html):
    """XML + DTD via the naive matcher (the tagger oracle), serial."""
    with swapped("tagger") as calls:
        converter = DocumentConverter(kb)
        engine = oracle_engine(kb, 3)
        xml = [converter.convert(html).to_xml() for html in golden_html]
        corpus = engine.convert_corpus(golden_html)
    # One naive matcher per converter: the serial one and the engine's.
    assert calls["tagger"] == 2
    assert corpus.stats.tagger_cache_events == {}
    assert corpus.xml_documents == xml
    dtd = engine.discover(corpus.accumulator).dtd.render()
    return xml, dtd


def fast_engine(kb, workers: int) -> CorpusEngine:
    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )


class TestGoldenCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_and_dtd_identical(self, kb, golden_html, naive_baseline, workers):
        naive_xml, naive_dtd = naive_baseline
        engine = fast_engine(kb, workers)
        corpus = engine.convert_corpus(golden_html)
        assert corpus.xml_documents == naive_xml
        assert engine.discover(corpus.accumulator).dtd.render() == naive_dtd

    def test_serial_converter_identical(self, kb, golden_html, naive_baseline):
        naive_xml, _ = naive_baseline
        fast = DocumentConverter(kb)
        assert [fast.convert(html).to_xml() for html in golden_html] == naive_xml


class TestGeneratedCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generated_corpus_identical(self, kb, small_corpus, workers):
        html = [doc.html for doc in small_corpus]
        with swapped("tagger") as calls:
            naive = oracle_engine(kb, 4)
            naive_corpus = naive.convert_corpus(html)
        assert calls["tagger"] == 1
        assert naive_corpus.stats.tagger_cache_events == {}
        fast = fast_engine(kb, workers)
        fast_corpus = fast.convert_corpus(html)
        assert fast_corpus.xml_documents == naive_corpus.xml_documents
        assert (
            fast.discover(fast_corpus.accumulator).dtd.render()
            == naive.discover(naive_corpus.accumulator).dtd.render()
        )


class TestCacheObservability:
    def test_cache_counters_flow_into_registry(self, kb, small_corpus):
        html = [doc.html for doc in small_corpus]
        engine = fast_engine(kb, 1)
        result = engine.convert_corpus(html)
        events = result.stats.tagger_cache_events
        assert "synonym" in events
        lookups = events["synonym"]["hits"] + events["synonym"]["misses"]
        assert lookups > 0
        # Repeated headings make hits near-certain on a 10-doc corpus.
        assert events["synonym"]["hits"] > 0
        assert 0.0 < result.stats.tagger_cache_hit_rate <= 1.0
        assert any(
            metric.name == TAGGER_CACHE_EVENTS for metric in result.stats.registry
        )
        assert any(row[0] == "tagger cache" for row in result.stats.summary_rows())

    def test_cache_counters_cross_process(self, kb, small_corpus):
        html = [doc.html for doc in small_corpus]
        result = fast_engine(kb, 2).convert_corpus(html)
        events = result.stats.tagger_cache_events
        assert events.get("synonym", {}).get("misses", 0) > 0
