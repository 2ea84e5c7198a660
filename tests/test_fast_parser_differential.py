"""Differential tests: the fast parser against its oracle, byte for byte.

Same guarantee discipline as the fast-tagger, serial-vs-parallel, and
tracing-on-vs-off harnesses: over the golden corpus (every authorship
style plus the handwritten edge cases) and a generated corpus, the
bulk-scanning tokenizer the pipeline runs and the legacy per-character
scanner swapped in from ``tests/oracles/`` must produce

* byte-identical serialized XML, document for document, and
* an identical rendered DTD from discovery over the accumulators,

at worker counts 1 (inline chunked path), 2, and 4 (process pool).
Each oracle baseline runs serially under the swap and asserts the
legacy tokenizer served every document it converted.  The
tokenizer-level equivalence (identical token streams, spans included)
lives in test_parser_properties.py; this file proves the guarantee
survives the whole pipeline and the process boundary.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.convert.pipeline import DocumentConverter
from repro.htmlparse.parser import parse_html
from repro.runtime.engine import CorpusEngine, EngineConfig
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
def legacy_baseline(kb, golden_html):
    """XML + DTD via the legacy tokenizer (the parser oracle), serial."""
    with swapped("parser") as calls:
        converter = DocumentConverter(kb)
        engine = oracle_engine(kb, 3)
        xml = [converter.convert(html).to_xml() for html in golden_html]
        corpus = engine.convert_corpus(golden_html)
    assert calls["parser"] == 2 * len(golden_html)
    assert corpus.xml_documents == xml
    dtd = engine.discover(corpus.accumulator).dtd.render()
    return xml, dtd


def fast_engine(kb, workers: int) -> CorpusEngine:
    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )


class TestGoldenCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_and_dtd_identical(self, kb, golden_html, legacy_baseline, workers):
        legacy_xml, legacy_dtd = legacy_baseline
        engine = fast_engine(kb, workers)
        corpus = engine.convert_corpus(golden_html)
        assert corpus.xml_documents == legacy_xml
        assert engine.discover(corpus.accumulator).dtd.render() == legacy_dtd

    def test_serial_converter_identical(self, kb, golden_html, legacy_baseline):
        legacy_xml, _ = legacy_baseline
        fast = DocumentConverter(kb)
        assert [fast.convert(html).to_xml() for html in golden_html] == legacy_xml


class TestGeneratedCorpusDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generated_corpus_identical(self, kb, small_corpus, workers):
        html = [doc.html for doc in small_corpus]
        with swapped("parser") as calls:
            legacy = oracle_engine(kb, 4)
            legacy_corpus = legacy.convert_corpus(html)
        assert calls["parser"] == len(html)
        fast = fast_engine(kb, workers)
        fast_corpus = fast.convert_corpus(html)
        assert fast_corpus.xml_documents == legacy_corpus.xml_documents
        assert (
            fast.discover(fast_corpus.accumulator).dtd.render()
            == legacy.discover(legacy_corpus.accumulator).dtd.render()
        )


class TestBothFastPathsOff:
    def test_fully_naive_pipeline_identical(self, kb, golden_html, legacy_baseline):
        """Swapping every oracle in at once is still byte-identical (no
        hidden coupling among the parser, tidy and tagger paths)."""
        legacy_xml, _ = legacy_baseline
        with swapped("parser", "tidy", "tagger") as calls:
            naive = DocumentConverter(kb)
            xml = [naive.convert(html).to_xml() for html in golden_html]
        assert calls["parser"] == calls["tidy"] == len(golden_html)
        assert calls["tagger"] == 1
        assert xml == legacy_xml


class TestParseTreeEquivalence:
    def test_golden_trees_identical(self, golden_html):
        """Before any conversion rule runs, the raw parse trees already
        match node for node (tags, attrs, text, order)."""

        def shape(node):
            from repro.dom.node import Element

            if isinstance(node, Element):
                return (node.tag, tuple(sorted(node.attrs.items())),
                        tuple(shape(child) for child in node.children))
            return ("#text", node.text)

        fast_trees = [shape(parse_html(html)) for html in golden_html]
        with swapped("parser") as calls:
            legacy_trees = [shape(parse_html(html)) for html in golden_html]
        assert calls["parser"] == len(golden_html)
        assert fast_trees == legacy_trees
