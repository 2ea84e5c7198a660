"""The one stage clock: each timed region is read once.

A stage's span, its ``rule_seconds`` entry, its provenance rule event
and its stage-digest observation are the same two ``perf_counter``
readings, so they agree exactly (``==``, not approximately) -- per
document through :meth:`DocumentConverter.convert` and per run through
the engine at one and two workers.  The coverage test pins that the
digested stages explain nearly all in-worker chunk time.
"""

from __future__ import annotations

import pytest

from repro.convert.pipeline import DocumentConverter
from repro.corpus.generator import ResumeCorpusGenerator
from repro.obs import ProvenanceLog, QuantileDigest, Tracer
from repro.obs.tracer import NULL_TRACER, STAGE_SPANS
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.runtime.stats import DOCUMENT_STAGE, STAGE_ORDER

PIPELINE_STAGES = {
    "parse", "tidy", "tokenize", "instance", "group", "consolidate", "root",
}


@pytest.fixture(scope="module")
def resumes():
    """The seed-1966 corpus of 50 generated resumes."""
    return ResumeCorpusGenerator(seed=1966).generate_html(50)


class TestStageClock:
    def test_untraced_stage_times_without_a_span(self):
        seconds: dict[str, float] = {}
        with NULL_TRACER.stage("parse", seconds) as span:
            span.set(ignored=True)
        assert set(seconds) == {"parse"}
        assert seconds["parse"] >= 0.0

    def test_traced_stage_span_is_the_same_reading(self):
        tracer = Tracer()
        seconds: dict[str, float] = {}
        with tracer.stage("to_xml", seconds, doc="doc0001"):
            pass
        (span,) = tracer.spans
        assert span.name == STAGE_SPANS["to_xml"]
        assert span.attrs == {"doc": "doc0001"}
        assert span.end - span.start == seconds["to_xml"]

    def test_label_outside_the_table_names_its_span(self):
        tracer = Tracer()
        seconds: dict[str, float] = {}
        with tracer.stage("engine.chunk", seconds):
            pass
        assert tracer.spans[0].name == "engine.chunk"
        assert tracer.spans[0].seconds == seconds["engine.chunk"]

    def test_a_raising_stage_is_still_recorded(self):
        tracer = Tracer()
        seconds: dict[str, float] = {}
        with pytest.raises(ValueError):
            with tracer.stage("group", seconds):
                raise ValueError("boom")
        assert tracer.spans[0].end - tracer.spans[0].start == seconds["group"]
        assert tracer.current_span_id is None

    def test_stage_order_is_the_table_order(self):
        assert STAGE_ORDER == tuple(STAGE_SPANS)
        assert STAGE_ORDER[-1] == DOCUMENT_STAGE


class TestExactPerDocument:
    def test_span_rule_seconds_and_rule_events_are_one_reading(self, kb, resumes):
        converter = DocumentConverter(kb)
        for position, html in enumerate(resumes):
            tracer = Tracer()
            provenance = ProvenanceLog()
            doc_id = f"doc{position:04d}"
            result = converter.convert(
                html, doc_id=doc_id, tracer=tracer, provenance=provenance
            )
            assert set(result.rule_seconds) == PIPELINE_STAGES
            assert tracer.names() == {STAGE_SPANS[s] for s in PIPELINE_STAGES}
            for stage, seconds in result.rule_seconds.items():
                (span,) = tracer.by_name(STAGE_SPANS[stage])
                assert span.end - span.start == seconds, (doc_id, stage)
            rules = provenance.by_kind("rule")
            assert len(rules) == 4
            for event in rules:
                assert event["seconds"] == round(
                    result.rule_seconds[event["rule"]], 6
                )


class TestExactPerRun:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_durations_digest_to_the_registry(self, kb, resumes, workers):
        tracer = Tracer()
        engine = CorpusEngine(kb, engine_config=EngineConfig(max_workers=workers))
        stats = engine.new_stats()
        chunks = [
            payload.stats
            for payload in engine.stream(resumes, stats=stats, tracer=tracer)
        ]
        registry = stats.stage_digests
        assert set(registry) == set(STAGE_ORDER)
        for stage in STAGE_ORDER:
            spans = QuantileDigest()
            spans.observe_many(
                span.seconds for span in tracer.by_name(STAGE_SPANS[stage])
            )
            digest = registry[stage]
            assert spans.count == digest.count == len(resumes), stage
            assert spans.counts == digest.counts, stage
            assert spans.min_value == digest.min_value, stage
            assert spans.max_value == digest.max_value, stage
        chunk_seconds = [span.seconds for span in tracer.by_name("engine.chunk")]
        assert chunk_seconds == [chunk.worker_seconds for chunk in chunks]


class TestCoverage:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stages_explain_worker_time(self, kb, resumes, workers):
        """The digested stages (without the enclosing ``document``
        stage) account for at least 90% of in-worker chunk time."""
        engine = CorpusEngine(kb, engine_config=EngineConfig(max_workers=workers))
        stats = engine.convert_corpus(resumes).stats
        assert DOCUMENT_STAGE not in stats.rule_seconds
        assert sum(stats.rule_seconds.values()) >= 0.90 * stats.worker_seconds
