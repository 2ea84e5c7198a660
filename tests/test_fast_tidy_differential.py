"""Differential tests: the fast tidy against its oracle, byte for byte.

Same guarantee discipline as the fast-parser and fast-tagger harnesses:
over the golden corpus and a generated corpus, the single-snapshot
cleanser the pipeline runs and the six-traversal legacy cleanser
swapped in from ``tests/oracles/`` must produce

* byte-identical serialized XML, document for document, and
* an identical rendered DTD from discovery over the accumulators,

at worker counts 1 (inline chunked path), 2, and 4 (process pool).
Each oracle baseline runs serially under the swap and asserts the
legacy cleanser served every document it converted.
This file also proves the engine's new transport modes change nothing
but the transport: worker-side XML sinks write exactly the bytes the
collected payloads would have carried, ``collect_xml=False`` leaves the
accumulator and DTD untouched, and the default chunk size converts the
same corpus to the same bytes as a forced small one.

The tree-level equivalence lives in test_tidy_properties.py and the
pinned corpus in tests/golden/tidy_edge/.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.convert.pipeline import DocumentConverter
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.runtime.pool import CHUNK_SIZE
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
    """XML + DTD via the legacy cleanser (the tidy oracle), serial."""
    with swapped("tidy") as calls:
        converter = DocumentConverter(kb)
        engine = oracle_engine(kb, 3)
        xml = [converter.convert(html).to_xml() for html in golden_html]
        corpus = engine.convert_corpus(golden_html)
    assert calls["tidy"] == 2 * len(golden_html)
    assert corpus.xml_documents == xml
    dtd = engine.discover(corpus.accumulator).dtd.render()
    return xml, dtd


def fast_engine(kb, workers: int, **engine_kwargs) -> CorpusEngine:
    engine_kwargs.setdefault("chunk_size", 3)
    return CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, **engine_kwargs)
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
        with swapped("tidy") as calls:
            legacy = oracle_engine(kb, 4)
            legacy_corpus = legacy.convert_corpus(html)
        assert calls["tidy"] == len(html)
        fast = fast_engine(kb, workers)
        fast_corpus = fast.convert_corpus(html)
        assert fast_corpus.xml_documents == legacy_corpus.xml_documents
        assert (
            fast.discover(fast_corpus.accumulator).dtd.render()
            == legacy.discover(legacy_corpus.accumulator).dtd.render()
        )


class TestAllFastPathsOff:
    def test_every_fast_path_off_identical(self, kb, golden_html, legacy_baseline):
        """All three oracles swapped in at once is still byte-identical
        (no hidden coupling among the parser, tagger, and tidy paths)."""
        legacy_xml, _ = legacy_baseline
        with swapped("parser", "tidy", "tagger") as calls:
            naive = DocumentConverter(kb)
            xml = [naive.convert(html).to_xml() for html in golden_html]
        assert calls["parser"] == calls["tidy"] == len(golden_html)
        assert calls["tagger"] == 1
        assert xml == legacy_xml


class TestXmlSinkMode:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_sink_files_equal_collected_strings(
        self, kb, golden_html, workers, tmp_path
    ):
        """Worker-side sink files are byte-for-byte the strings the
        collected payloads carry, named by document position."""
        engine = fast_engine(kb, workers)
        collected = engine.convert_corpus(golden_html)
        sink_dir = tmp_path / f"sink{workers}"
        sunk = fast_engine(kb, workers).convert_corpus(
            golden_html, collect_xml=False, xml_sink=str(sink_dir)
        )
        assert sunk.xml_documents == []
        files = sorted(sink_dir.glob("*.xml"))
        assert [p.name for p in files] == [
            f"doc{i:04d}.xml" for i in range(len(golden_html))
        ]
        assert [p.read_text(encoding="utf-8") for p in files] == (
            collected.xml_documents
        )

    def test_sink_honors_caller_names(self, kb, golden_html, tmp_path):
        names = [f"case-{i}" for i in range(len(golden_html))]
        sink_dir = tmp_path / "named"
        fast_engine(kb, 2).convert_corpus(
            golden_html, collect_xml=False, xml_sink=str(sink_dir), names=names
        )
        assert sorted(p.stem for p in sink_dir.glob("*.xml")) == sorted(names)

    def test_discovery_only_transport_matches(self, kb, golden_html):
        """collect_xml=False ships no XML home but discovers the same
        DTD from the same accumulated statistics."""
        engine = fast_engine(kb, 2)
        full = engine.convert_corpus(golden_html)
        slim_engine = fast_engine(kb, 2)
        slim = slim_engine.convert_corpus(golden_html, collect_xml=False)
        assert slim.xml_documents == []
        assert slim.stats.documents == full.stats.documents
        assert (
            slim_engine.discover(slim.accumulator).dtd.render()
            == engine.discover(full.accumulator).dtd.render()
        )


class TestAdaptiveChunking:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_adaptive_equals_static(self, kb, golden_html, workers):
        """The default chunk size converts the same corpus to the same
        bytes and statistics as a forced small size."""
        static = fast_engine(kb, workers, chunk_size=3).convert_corpus(
            golden_html
        )
        default = fast_engine(kb, workers, chunk_size=CHUNK_SIZE).convert_corpus(
            golden_html
        )
        assert default.xml_documents == static.xml_documents
        assert default.stats.documents == static.stats.documents
        assert default.accumulator.doc_frequency == static.accumulator.doc_frequency
