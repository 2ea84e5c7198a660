"""Span tracer: nesting, attributes, the null tracer, and re-parenting
across a simulated worker boundary (export in the "worker", adopt in the
"parent" -- the exact round trip the engine's chunk merge performs)."""

from __future__ import annotations

import json

from repro.obs.provenance import ProvenanceLog
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer, resolve_tracer
from repro.obs.export import write_trace_jsonl
from tests.obscheck import validate_trace_file


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("sibling"):
                pass
        parent = tracer.by_name("parent")[0]
        child = tracer.by_name("child")[0]
        grandchild = tracer.by_name("grandchild")[0]
        sibling = tracer.by_name("sibling")[0]
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == parent.span_id
        assert {span.span_id for span in tracer.spans if span.parent_id == parent.span_id} == {
            child.span_id,
            sibling.span_id,
        }

    def test_spans_complete_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [span.name for span in tracer.spans] == ["inner", "outer"]

    def test_durations_nested_within_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert outer.seconds >= inner.seconds

    def test_attributes_at_open_and_via_set(self):
        tracer = Tracer()
        with tracer.span("work", doc="doc0001") as span:
            span.set(items=3)
        recorded = tracer.spans[0]
        assert recorded.attrs == {"doc": "doc0001", "items": 3}

    def test_ids_unique_and_prefixed(self):
        tracer = Tracer(id_prefix="w")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [span.span_id for span in tracer.spans]
        assert len(set(ids)) == 2
        assert all(span_id.startswith("w") for span_id in ids)


class TestAdoptAcrossWorkerBoundary:
    def simulate_worker(self):
        """A worker-side tracer with a two-level span forest."""
        worker = Tracer(id_prefix="w")
        with worker.span("engine.chunk", chunk=3):
            with worker.span("convert.document", doc="doc0012"):
                with worker.span("convert.tokenize"):
                    pass
        # Serialize exactly as the chunk payload does.
        return json.loads(json.dumps(worker.export()))

    def test_worker_roots_reparent_under_current_span(self):
        parent = Tracer()
        with parent.span("engine.convert_corpus"):
            adopted = parent.adopt(self.simulate_worker(), prefix="c3.")
        corpus = parent.by_name("engine.convert_corpus")[0]
        chunk = parent.by_name("engine.chunk")[0]
        document = parent.by_name("convert.document")[0]
        tokenize = parent.by_name("convert.tokenize")[0]
        assert len(adopted) == 3
        assert chunk.parent_id == corpus.span_id
        assert document.parent_id == chunk.span_id
        assert tokenize.parent_id == document.span_id

    def test_prefix_keeps_ids_unique_across_chunks(self):
        parent = Tracer()
        with parent.span("engine.convert_corpus"):
            parent.adopt(self.simulate_worker(), prefix="c0.")
            parent.adopt(self.simulate_worker(), prefix="c1.")
        ids = [span.span_id for span in parent.spans]
        assert len(ids) == len(set(ids))
        assert parent.by_name("engine.chunk")[0].span_id.startswith("c0.")
        assert parent.by_name("engine.chunk")[1].span_id.startswith("c1.")

    def test_adopted_attrs_and_durations_survive(self):
        worker_dicts = self.simulate_worker()
        parent = Tracer()
        parent.adopt(worker_dicts, prefix="c0.")
        chunk = parent.by_name("engine.chunk")[0]
        assert chunk.attrs == {"chunk": 3}
        assert chunk.seconds >= 0.0


class TestNullTracer:
    def test_records_nothing(self):
        with NULL_TRACER.span("anything", doc="d") as span:
            span.set(ignored=True)
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.adopt([{"name": "x"}]) == []
        assert NULL_TRACER.current_span_id is None

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        assert isinstance(resolve_tracer(None), NullTracer)
        assert not NULL_TRACER.enabled
        assert Tracer().enabled


class TestSerialization:
    def test_span_dict_round_trip(self):
        span = Span("work", "s1", parent_id="s0", start=1.0, end=2.5,
                    attrs={"doc": "doc0001"})
        clone = Span.from_dict(span.to_dict())
        assert clone.name == "work"
        assert clone.span_id == "s1"
        assert clone.parent_id == "s0"
        assert clone.seconds == 1.5
        assert clone.attrs == {"doc": "doc0001"}

    def test_trace_jsonl_passes_schema(self, tmp_path):
        tracer = Tracer()
        provenance = ProvenanceLog()
        with tracer.span("engine.run"):
            with tracer.span("convert.tokenize"):
                pass
        provenance.rule_event("doc0000", "tokenize", 0.001, tokens_created=4)
        provenance.concept_event(
            "doc0000", "RESUME/TOKEN[0]", "synonym",
            concept="SKILLS", confidence=0.5, text="skills",
        )
        target = tmp_path / "trace.jsonl"
        written = write_trace_jsonl(target, tracer, provenance)
        assert written == 4
        assert validate_trace_file(target) == []
