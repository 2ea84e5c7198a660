"""Observability end-to-end: instrumentation must change nothing.

* Differential: with tracing + provenance on, the engine's XML and the
  discovered DTD are byte-identical to the untraced run (both inline and
  through the process pool).
* Coverage: a traced convert+discover run emits spans for all four
  conversion rules and every discovery stage, one rule event per rule
  per document, and one concept event per token decision.
* CLI: ``--trace-out`` / ``--metrics-out`` / ``stats`` and the
  ``python -m tests.obscheck`` entry point round-trip through real files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import ProvenanceLog, Tracer
from repro.runtime.engine import CorpusEngine, EngineConfig
from tests.obscheck import (
    load_schema,
    validate_metrics_file,
    validate_trace_file,
    validate_trace_lines,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

RULE_SPAN_NAMES = {
    "convert.tokenize",
    "convert.instance",
    "convert.group",
    "convert.consolidate",
}
DISCOVERY_SPAN_NAMES = {
    "discover.extract_paths",
    "discover.mine_frequent",
    "discover.repetition_ordering",
    "discover.derive_dtd",
}


def make_engine(kb, workers, chunk_size=3):
    return CorpusEngine(
        kb,
        engine_config=EngineConfig(max_workers=workers, chunk_size=chunk_size),
    )


def quantile_table(printed: str) -> list[str]:
    """The lines of the "Per-stage latency quantiles" table, if any."""
    lines = printed.splitlines()
    if "Per-stage latency quantiles" not in lines:
        return []
    start = lines.index("Per-stage latency quantiles")
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


@pytest.fixture(scope="module")
def corpus_html(small_corpus):
    return [doc.html for doc in small_corpus]


class TestTracingIsPure:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_xml_and_dtd_identical_with_tracing_on(self, kb, corpus_html, workers):
        plain = make_engine(kb, workers).run(corpus_html)
        traced = make_engine(kb, workers).run(
            corpus_html, tracer=Tracer(), provenance=ProvenanceLog()
        )
        assert traced.corpus.xml_documents == plain.corpus.xml_documents
        assert traced.discovery.dtd.render() == plain.discovery.dtd.render()
        assert traced.discovery.frequent.paths == plain.discovery.frequent.paths

    def test_stats_identical_with_tracing_on(self, kb, corpus_html):
        plain = make_engine(kb, 1).run(corpus_html, discover=False)
        traced = make_engine(kb, 1).run(
            corpus_html, discover=False,
            tracer=Tracer(), provenance=ProvenanceLog(),
        )
        for name in ("documents", "chunks", "tokens_created", "groups_created",
                     "nodes_eliminated", "input_nodes", "concept_nodes"):
            assert getattr(traced.corpus.stats, name) == getattr(
                plain.corpus.stats, name
            ), name


class TestSpanCoverage:
    @pytest.fixture(scope="class")
    def traced_run(self, kb, corpus_html):
        tracer = Tracer()
        provenance = ProvenanceLog()
        run = make_engine(kb, 2).run(
            corpus_html, tracer=tracer, provenance=provenance
        )
        return run, tracer, provenance

    def test_all_rule_and_discovery_spans_present(self, traced_run):
        _, tracer, _ = traced_run
        assert RULE_SPAN_NAMES <= tracer.names()
        assert DISCOVERY_SPAN_NAMES <= tracer.names()

    def test_one_document_span_per_document(self, traced_run, corpus_html):
        _, tracer, _ = traced_run
        documents = tracer.by_name("convert.document")
        assert len(documents) == len(corpus_html)
        doc_ids = {span.attrs.get("doc") for span in documents}
        assert doc_ids == {f"doc{i:04d}" for i in range(len(corpus_html))}

    def test_worker_spans_reparented_under_corpus_span(self, traced_run):
        _, tracer, _ = traced_run
        corpus_span = tracer.by_name("engine.convert_corpus")[0]
        for chunk_span in tracer.by_name("engine.chunk"):
            assert chunk_span.parent_id == corpus_span.span_id
        by_id = {span.span_id: span for span in tracer.spans}
        # Every span reaches a root through resolvable parents.
        for span in tracer.spans:
            seen = set()
            current = span
            while current.parent_id is not None:
                assert current.parent_id in by_id, current.name
                assert current.span_id not in seen
                seen.add(current.span_id)
                current = by_id[current.parent_id]

    def test_rule_events_per_document(self, traced_run, corpus_html):
        _, _, provenance = traced_run
        rules = provenance.by_kind("rule")
        assert len(rules) == 4 * len(corpus_html)
        per_doc = {event["doc"] for event in rules}
        assert len(per_doc) == len(corpus_html)
        assert {event["rule"] for event in rules} == {
            "tokenize", "instance", "group", "consolidate",
        }

    def test_concept_events_cover_every_token_decision(self, traced_run):
        run, _, provenance = traced_run
        concepts = provenance.by_kind("concept")
        stats = run.corpus.stats
        # One event per kept decision: identified single tokens,
        # unidentified tokens, and one per element of each split token.
        assert len(concepts) >= stats.tokens_created > 0
        assert all(event["node_path"] for event in concepts)
        assert {event["decision"] for event in concepts} <= {
            "synonym", "bayes", "unlabeled",
        }
        json.dumps(concepts)  # strictly JSON-serializable (no inf/nan)

    def test_trace_passes_schema_with_coverage(self, traced_run):
        _, tracer, provenance = traced_run
        lines = [json.dumps(d) for d in tracer.export()]
        lines += [json.dumps(e) for e in provenance.events]
        assert validate_trace_lines(
            lines, schema=load_schema(), require_coverage=True
        ) == []


class TestTraceShapeIndependentOfWorkers:
    """One chunk path at every worker count: an inline pool ships its
    spans and events home exactly as a process pool does."""

    @staticmethod
    def traced(kb, corpus_html, workers):
        tracer = Tracer()
        provenance = ProvenanceLog()
        make_engine(kb, workers, chunk_size=3).run(
            corpus_html, tracer=tracer, provenance=provenance
        )
        return tracer, provenance

    @staticmethod
    def edges(tracer):
        names = {span.span_id: span.name for span in tracer.spans}
        return sorted(
            (span.name, names.get(span.parent_id)) for span in tracer.spans
        )

    @staticmethod
    def untimed(provenance):
        return [
            {key: value for key, value in event.items() if key != "seconds"}
            for event in provenance.events
        ]

    def test_same_spans_and_events_at_one_and_two_workers(self, kb, corpus_html):
        runs = {workers: self.traced(kb, corpus_html, workers) for workers in (1, 2)}
        for tracer, _ in runs.values():
            chunks = tracer.by_name("engine.chunk")
            assert chunks
            for span in chunks:
                assert span.span_id.startswith(f"c{span.attrs['chunk']}.")
        (one, one_log), (two, two_log) = runs[1], runs[2]
        assert self.edges(one) == self.edges(two)
        assert self.untimed(one_log) == self.untimed(two_log)


class TestCliObservability:
    def test_convert_corpus_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        mjson = tmp_path / "metrics.json"
        assert main([
            "convert-corpus", "--generate", "6", "--chunk-size", "3",
            "--max-workers", "2", "--discover",
            "--trace-out", str(trace),
            "--metrics-out", str(prom), "--metrics-out", str(mjson),
        ]) == 0
        assert validate_trace_file(trace, require_coverage=True) == []
        assert validate_metrics_file(prom) == []
        assert validate_metrics_file(mjson) == []

    def test_stats_rerenders_saved_metrics(self, tmp_path, capsys):
        mjson = tmp_path / "metrics.json"
        main(["convert-corpus", "--generate", "4", "--chunk-size", "2",
              "--max-workers", "1", "--metrics-out", str(mjson)])
        live = quantile_table(capsys.readouterr().out)
        assert main(["stats", str(mjson)]) == 0
        printed = capsys.readouterr().out
        assert "documents" in printed
        assert "4" in printed
        assert "instance" in printed  # per-rule table from the registry
        # The saved snapshot carries the stage digests: the same table.
        assert live and quantile_table(printed) == live
        assert "Chunk duration quantiles\n" in printed
        assert "histogram estimate" not in printed

    @pytest.mark.parametrize("corruption", [
        "index_outside_layout", "negative_count", "mismatched_lengths",
        "count_not_sum", "old_fixed_buckets",
    ])
    def test_stats_rejects_malformed_snapshot(self, tmp_path, capsys, corruption):
        mjson = tmp_path / "metrics.json"
        main(["convert-corpus", "--generate", "2", "--max-workers", "1",
              "--metrics-out", str(mjson)])
        snapshot = json.loads(mjson.read_text())
        entry = next(e for e in snapshot["metrics"] if e["kind"] == "histogram")
        digest = entry["digest"]
        if corruption == "index_outside_layout":
            digest["indices"][0] = 192
        elif corruption == "negative_count":
            digest["counts"][0] = -1
        elif corruption == "mismatched_lengths":
            digest["counts"].append(1)
        elif corruption == "count_not_sum":
            digest["count"] += 1
        else:
            del entry["digest"]
            entry.update(buckets=[0.1, 1.0], counts=[2, 0, 0], sum=0.1, count=2)
        mjson.write_text(json.dumps(snapshot))
        capsys.readouterr()
        assert main(["stats", str(mjson)]) == 2
        assert capsys.readouterr().err.strip()

    def test_stats_rejects_prometheus_input(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        main(["convert-corpus", "--generate", "2", "--max-workers", "1",
              "--metrics-out", str(prom)])
        assert main(["stats", str(prom)]) == 2

    def test_obscheck_entry_point(self, tmp_path, capsys):
        """``python -m tests.obscheck`` from the repository root, as CI
        runs it: 0 valid, 1 errors, 2 nothing to check."""
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        main(["convert-corpus", "--generate", "4", "--chunk-size", "2",
              "--max-workers", "1", "--discover",
              "--trace-out", str(trace), "--metrics-out", str(prom)])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )

        def obscheck(*argv):
            return subprocess.run(
                [sys.executable, "-m", "tests.obscheck", *argv],
                cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            ).returncode

        assert obscheck("--trace", str(trace),
                        "--metrics", str(prom), "--require-coverage") == 0
        trace.write_text('{"kind": "span"}\n')
        assert obscheck("--trace", str(trace)) == 1
        assert obscheck() == 2

    def test_html2xml_rule_table_and_metrics(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        main(["gen-corpus", "--count", "2", "--out", str(corpus)])
        files = [str(p) for p in sorted(corpus.glob("*.html"))]
        mjson = tmp_path / "serial-metrics.json"
        capsys.readouterr()
        assert main(["html2xml", *files, "--out", str(tmp_path / "xml"),
                     "--metrics-out", str(mjson)]) == 0
        printed = capsys.readouterr().out
        assert "Per-rule time" in printed
        assert "instance" in printed
        assert validate_metrics_file(mjson) == []
        saved = json.loads(mjson.read_text())
        names = {entry["name"] for entry in saved["metrics"]}
        assert names == {"repro_stage_seconds"}
        stages = {entry["labels"]["stage"] for entry in saved["metrics"]}
        assert {"parse", "instance", "root"} <= stages
