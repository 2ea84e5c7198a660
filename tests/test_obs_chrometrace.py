"""Chrome trace-event export: re-basing, validation, real engine runs."""

from __future__ import annotations

import json

from repro.obs.chrometrace import (
    _domain_of,
    spans_to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from tests.obscheck import validate_chrome_trace, validate_chrome_trace_file


def span(span_id, name, start, end, parent=None, **attrs):
    return {
        "kind": "span",
        "id": span_id,
        "name": name,
        "start": start,
        "end": end,
        "seconds": end - start,
        "parent": parent,
        "attrs": attrs,
    }


class TestDomains:
    def test_parent_process_spans_have_empty_domain(self):
        assert _domain_of("s1") == ""

    def test_chunk_and_bisection_domains(self):
        assert _domain_of("c3.w7") == "c3"
        assert _domain_of("c3.b16.w7") == "c3.b16"


class TestExport:
    def build_nested(self):
        return [
            span("s1", "engine.run", 100.0, 101.0),
            span("s2", "engine.convert_corpus", 100.1, 100.9, parent="s1"),
            # Worker chunk: its own perf_counter clock starting near zero.
            span("c0.w1", "engine.chunk", 0.001, 0.4, parent="s2", chunk=0),
            span("c0.w2", "convert.document", 0.01, 0.2, parent="c0.w1"),
        ]

    def test_events_are_valid_and_complete(self):
        trace = spans_to_chrome_trace(self.build_nested())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        assert len(x_events) == 4
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert names == {"process_name", "thread_name"}

    def test_parent_timeline_anchored_at_zero(self):
        trace = spans_to_chrome_trace(self.build_nested())
        by_id = {e["args"]["id"]: e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        assert by_id["s1"]["ts"] == 0.0
        assert by_id["s2"]["ts"] == round(0.1 * 1e6, 3)

    def test_worker_spans_rebased_onto_reparent_target(self):
        """The chunk's earliest span is aligned with the start of the
        span it was adopted under, so it nests visibly inside it."""
        trace = spans_to_chrome_trace(self.build_nested())
        by_id = {e["args"]["id"]: e for e in trace["traceEvents"]
                 if e["ph"] == "X"}
        chunk = by_id["c0.w1"]
        parent = by_id["s2"]
        assert chunk["ts"] == parent["ts"]
        # And the chunk's child keeps its relative offset.
        child = by_id["c0.w2"]
        assert child["ts"] == round(chunk["ts"] + 0.009 * 1e6, 3)

    def test_domains_get_distinct_tracks(self):
        trace = spans_to_chrome_trace(self.build_nested())
        tids = {e["args"]["id"]: e["tid"] for e in trace["traceEvents"]
                if e["ph"] == "X"}
        assert tids["s1"] == tids["s2"] == 0
        assert tids["c0.w1"] == tids["c0.w2"] != 0

    def test_scalar_attrs_exported_in_args(self):
        trace = spans_to_chrome_trace(self.build_nested())
        chunk = next(e for e in trace["traceEvents"]
                     if e["ph"] == "X" and e["args"]["id"] == "c0.w1")
        assert chunk["args"]["chunk"] == 0
        assert chunk["args"]["parent"] == "s2"

    def test_write_and_validate_file(self, tmp_path):
        target = tmp_path / "nested" / "trace.json"
        write_chrome_trace(target, self.build_nested())
        assert target.exists()  # parents created
        assert validate_chrome_trace_file(target) == []
        document = json.loads(target.read_text())
        assert document["displayTimeUnit"] == "ms"


class TestValidator:
    def test_rejects_non_document(self):
        assert validate_chrome_trace(42) != []
        assert validate_chrome_trace({"foo": []}) != []

    def test_accepts_bare_event_list(self):
        events = spans_to_chrome_trace(
            [span("s1", "a", 0.0, 1.0)]
        )["traceEvents"]
        assert validate_chrome_trace(events) == []

    def test_flags_negative_duration(self):
        events = [{"name": "a", "ph": "X", "ts": 0, "dur": -5,
                   "pid": 1, "tid": 0}]
        errors = validate_chrome_trace(events)
        assert any("negative duration" in e for e in errors)

    def test_flags_partial_overlap_on_one_track(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 0},
        ]
        errors = validate_chrome_trace(events)
        assert any("partially overlaps" in e for e in errors)

    def test_allows_overlap_across_tracks(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 1, "tid": 1},
        ]
        assert validate_chrome_trace(events) == []

    def test_flags_unmatched_begin(self):
        events = [{"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0}]
        errors = validate_chrome_trace(events)
        assert any("unmatched B" in e for e in errors)

    def test_flags_end_without_begin(self):
        events = [{"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 0}]
        errors = validate_chrome_trace(events)
        assert any("E without matching B" in e for e in errors)

    def test_matched_begin_end_pass(self):
        events = [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 0},
        ]
        assert validate_chrome_trace(events) == []


class TestRealEngineRun:
    def test_two_worker_trace_is_valid(self, kb, tmp_path):
        """A real 2-worker engine run exports a valid trace whose worker
        chunk spans land on their own tracks, nested in the parent."""
        from repro.corpus.generator import ResumeCorpusGenerator
        from repro.runtime.engine import CorpusEngine, EngineConfig

        html = ResumeCorpusGenerator(seed=23).generate_html(8)
        tracer = Tracer()
        engine = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=2, chunk_size=3)
        )
        engine.run(html, tracer=tracer)
        target = tmp_path / "trace.json"
        write_chrome_trace(target, list(tracer.iter_dicts()))
        assert validate_chrome_trace_file(target) == []
        document = json.loads(target.read_text())
        x_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert any(e["name"] == "convert.document" for e in x_events)
        # Worker documents sit on non-main tracks.
        worker_tids = {e["tid"] for e in x_events
                       if e["args"]["id"].startswith("c")}
        assert worker_tids and 0 not in worker_tids
