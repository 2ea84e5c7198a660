"""Run intelligence must not change a single output byte.

The quantile digests, slowest-document tracking, progress hook, tracer,
and run-ledger record building are all *observers*: for every worker
count the engine's XML documents and the discovered DTD must be
byte-identical whether the run-intelligence layer is fully on or fully
off.  The second wall pins the digest merge itself: a multi-worker run's
merged per-stage digests answer every quantile identically to a serial
run's digests over the same documents (bucket counts and extrema are
exact; only wall-clock values differ run to run, so the comparison is
digest-vs-digest over the same recorded latencies, via partitioning).
"""

from __future__ import annotations

import io

import pytest

from repro.corpus.generator import ResumeCorpusGenerator
from repro.obs import MetricsRegistry, ProgressReporter, build_run_record
from repro.obs.tracer import Tracer
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.runtime.stats import STAGE_ORDER, EngineStats

WORKER_COUNTS = [1, 2, 4]


def run_engine(kb, html, workers, *, intelligence):
    """One engine run; with ``intelligence`` every observer is attached."""
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )
    if not intelligence:
        run = engine.run(html, discover=True)
        return run, None
    reporter = ProgressReporter(
        total=len(html), stream=io.StringIO(), enabled=True, min_interval=0.0
    )
    run = engine.run(
        html, discover=True, tracer=Tracer(), progress=reporter
    )
    reporter.finish(run.corpus.stats)
    record = build_run_record(
        run.corpus.stats, corpus_size=len(html), fingerprint="t", topic="resume"
    )
    return run, record


@pytest.fixture(scope="module")
def html(kb):
    return ResumeCorpusGenerator(seed=1966).generate_html(10)


@pytest.fixture(scope="module")
def mixed_html(kb):
    """Golden corpus documents mixed with generated ones."""
    from pathlib import Path

    golden = sorted(
        (Path(__file__).parent / "golden").glob("*.html")
    )
    docs = [path.read_text() for path in golden[:4]]
    return docs + ResumeCorpusGenerator(seed=7).generate_html(6)


class TestByteIdenticalOutput:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_generated_corpus(self, kb, html, workers):
        plain, _ = run_engine(kb, html, workers, intelligence=False)
        full, record = run_engine(kb, html, workers, intelligence=True)
        assert full.corpus.xml_documents == plain.corpus.xml_documents
        assert full.discovery.dtd.render() == plain.discovery.dtd.render()
        # ... and the observers actually observed.
        saved = EngineStats.from_registry(MetricsRegistry.from_json(record["metrics"]))
        assert saved.documents == len(html)
        assert saved.stage_digests["document"].count == len(html)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_golden_plus_generated_corpus(self, kb, mixed_html, workers):
        plain, _ = run_engine(kb, mixed_html, workers, intelligence=False)
        full, _ = run_engine(kb, mixed_html, workers, intelligence=True)
        assert full.corpus.xml_documents == plain.corpus.xml_documents
        assert full.discovery.dtd.render() == plain.discovery.dtd.render()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_count_does_not_change_output(self, kb, html, workers):
        serial, _ = run_engine(kb, html, 1, intelligence=True)
        parallel, _ = run_engine(kb, html, workers, intelligence=True)
        assert parallel.corpus.xml_documents == serial.corpus.xml_documents


class TestDigestMergeEqualsSerial:
    def test_stage_digests_cover_every_stage_and_document(self, kb, html):
        run, _ = run_engine(kb, html, 4, intelligence=True)
        digests = run.corpus.stats.stage_digests
        for stage in ("parse", "tidy", "tokenize", "instance", "group",
                      "consolidate", "root", "to_xml", "extract_paths",
                      "document"):
            assert digests[stage].count == len(html), stage
        assert set(digests) <= set(STAGE_ORDER)

    def test_four_way_merge_equals_serial_exactly(self):
        """The acceptance bar, made deterministic: the same per-document
        latencies split across four worker digests and merged answer
        every quantile *identically* to one serial digest -- stronger
        than the documented within-resolution bound."""
        from repro.obs.quantiles import QuantileDigest

        latencies = [0.0001 * (i % 7 + 1) * (10 ** (i % 3)) for i in range(40)]
        serial = QuantileDigest()
        serial.observe_many(latencies)
        merged = QuantileDigest()
        for worker in range(4):
            chunk = QuantileDigest()
            chunk.observe_many(latencies[worker::4])
            merged.update(chunk)
        assert merged.counts == serial.counts
        assert merged.min_value == serial.min_value
        assert merged.max_value == serial.max_value
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            assert merged.quantile(q) == serial.quantile(q)

    def test_four_worker_quantiles_match_chunk_refeed(self, kb, html):
        """Pickle-simulate the wire: per-chunk digests folded in any
        order equal the engine's parent-side merge."""
        import pickle

        engine = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=4, chunk_size=3)
        )
        stats = EngineStats()
        for _ in engine.stream(html, stats=stats):
            pass
        # The engine sizes its pool from its config and writes the
        # worker count onto the caller's book.
        assert stats.workers == 4
        merged = stats.stage_digests["instance"]
        wire = pickle.loads(pickle.dumps(merged))
        assert wire == merged
        assert wire.quantiles() == merged.quantiles()
