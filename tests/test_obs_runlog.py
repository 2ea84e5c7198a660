"""Run ledger: record building and persistence."""

from __future__ import annotations

import json

from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import (
    RUNLOG_VERSION,
    RunLedger,
    build_run_record,
    config_fingerprint,
    new_run_id,
)
from repro.runtime.stats import EngineStats
from tests.obscheck import validate_runlog_file, validate_runlog_lines


def engine_stats(kb, seed=31, count=8, workers=2):
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.runtime.engine import CorpusEngine, EngineConfig

    html = ResumeCorpusGenerator(seed=seed).generate_html(count)
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )
    return engine, engine.convert_corpus(html).stats


class TestFingerprint:
    def test_same_configs_same_fingerprint(self):
        from repro.convert.config import ConversionConfig
        from repro.runtime.engine import EngineConfig

        a = config_fingerprint(ConversionConfig(), EngineConfig(max_workers=2))
        b = config_fingerprint(ConversionConfig(), EngineConfig(max_workers=2))
        assert a == b
        assert len(a) == 16

    def test_different_knobs_differ(self):
        from repro.runtime.engine import EngineConfig

        assert config_fingerprint(
            EngineConfig(max_workers=2)
        ) != config_fingerprint(EngineConfig(max_workers=4))

    def test_unordered_collections_are_canonical(self):
        """frozenset/dict iteration order must not leak into the
        fingerprint (hash randomization reorders them per process)."""
        a = config_fingerprint({"tags": frozenset({"ul", "ol", "dl"})})
        b = config_fingerprint({"tags": frozenset(["dl", "ul", "ol"])})
        assert a == b

    def test_run_ids_sortable_and_unique(self):
        one = new_run_id(clock=lambda: 1000000.0)
        two = new_run_id(clock=lambda: 2000000.0)
        assert one.startswith("run-")
        assert one.split("-")[1] < two.split("-")[1]
        assert new_run_id() != new_run_id()


class TestRunRecord:
    def test_record_from_real_run_validates(self, kb, tmp_path):
        engine, stats = engine_stats(kb)
        record = build_run_record(
            stats,
            fingerprint=config_fingerprint(engine.config, engine.engine_config),
            topic="resume",
            corpus_size=8,
        )
        assert record["kind"] == "run"
        assert record["version"] == RUNLOG_VERSION == 2
        assert record["corpus_size"] == 8
        # The record stores the run's registry, not fields copied out of it.
        assert record["metrics"] == stats.registry.to_json()
        saved = EngineStats.from_registry(MetricsRegistry.from_json(record["metrics"]))
        assert saved.documents == 8
        assert saved.workers == 2
        assert saved.docs_per_second > 0
        assert set(saved.stage_summaries()) >= {"parse", "instance", "document"}
        assert not {"documents", "workers", "stage_quantiles"} & set(record)
        assert record["slowest_documents"]
        assert record["slowest_documents"][0]["seconds"] >= (
            record["slowest_documents"][-1]["seconds"]
        )
        line = json.dumps(record, sort_keys=True)
        assert validate_runlog_lines([line]) == []

    def test_ledger_append_and_read_back(self, kb, tmp_path):
        _, stats = engine_stats(kb, count=4, workers=1)
        path = tmp_path / "deep" / "runs.jsonl"  # parents created
        ledger = RunLedger(path)
        first = ledger.append(build_run_record(stats, corpus_size=4, run_id="run-a"))
        ledger.append(build_run_record(stats, corpus_size=4, run_id="run-b"))
        assert [r["run_id"] for r in ledger.records()] == ["run-a", "run-b"]
        assert ledger.find("run-a") == first
        assert ledger.find("missing") is None
        assert validate_runlog_file(path) == []

    def test_corrupted_embedded_registry_fails_validation(self, kb):
        """The contract check round-trips a run record's registry, so a
        record whose digest no run could produce is rejected."""
        _, stats = engine_stats(kb, count=4, workers=1)
        record = build_run_record(stats, corpus_size=4)
        assert validate_runlog_lines([json.dumps(record)]) == []
        digest = next(
            entry["digest"] for entry in record["metrics"]["metrics"]
            if entry["kind"] == "histogram"
        )
        digest["count"] += 1
        errors = validate_runlog_lines([json.dumps(record)])
        assert len(errors) == 1 and "metrics do not round-trip" in errors[0]

    def test_ledger_skips_blank_and_garbage_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('\n{"run_id": "ok"}\nnot json\n\n')
        assert [r["run_id"] for r in RunLedger(path).records()] == ["ok"]
        assert RunLedger(path).lines() == [(2, {"run_id": "ok"}), (3, None)]

    def test_missing_ledger_is_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "absent.jsonl")
        assert ledger.records() == []

    def test_empty_ledger_fails_validation(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        assert validate_runlog_file(path) != []
