"""Run ledger: record building, persistence, regression detection."""

from __future__ import annotations

import json

import pytest

from repro.obs.runlog import (
    RunLedger,
    baseline_of_history,
    build_run_record,
    compare_records,
    config_fingerprint,
    detect_history_regressions,
    new_run_id,
)
from repro.obs.validate import validate_runlog_file, validate_runlog_lines


def engine_stats(kb, seed=31, count=8, workers=2):
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.runtime.engine import CorpusEngine, EngineConfig

    html = ResumeCorpusGenerator(seed=seed).generate_html(count)
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )
    return engine, engine.convert_corpus(html).stats


def record_like(run_id="r", fingerprint="f", workers=2, dps=100.0, p95=None):
    record = {
        "run_id": run_id,
        "config_fingerprint": fingerprint,
        "workers": workers,
        "docs_per_second": dps,
        "stage_quantiles": {},
    }
    if p95 is not None:
        record["stage_quantiles"] = {
            stage: {"p95": value} for stage, value in p95.items()
        }
    return record


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
        assert record["documents"] == 8
        assert record["workers"] == 2
        assert record["docs_per_second"] > 0
        assert set(record["stage_quantiles"]) >= {"parse", "instance", "document"}
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
        first = ledger.append(build_run_record(stats, run_id="run-a"))
        ledger.append(build_run_record(stats, run_id="run-b"))
        assert len(ledger) == 2
        assert ledger.latest()["run_id"] == "run-b"
        assert ledger.find("run-a") == first
        assert ledger.find("missing") is None
        assert validate_runlog_file(path) == []

    def test_ledger_skips_blank_and_garbage_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('\n{"run_id": "ok"}\nnot json\n\n')
        assert [r["run_id"] for r in RunLedger(path).records()] == ["ok"]

    def test_missing_ledger_is_empty(self, tmp_path):
        ledger = RunLedger(tmp_path / "absent.jsonl")
        assert ledger.records() == []
        assert ledger.latest() is None

    def test_empty_ledger_fails_validation(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        assert validate_runlog_file(path) != []


class TestCompareRecords:
    def test_throughput_drop_flagged(self):
        baseline = record_like(dps=100.0)
        current = record_like(dps=75.0)
        regressions = compare_records(current, baseline, threshold=0.2)
        assert [r.metric for r in regressions] == ["docs_per_second"]
        assert regressions[0].direction == "drop"
        assert regressions[0].change == pytest.approx(-0.25)
        assert "dropped 25%" in regressions[0].message

    def test_small_drop_passes(self):
        regressions = compare_records(
            record_like(dps=90.0), record_like(dps=100.0), threshold=0.2
        )
        assert regressions == []

    def test_p95_rise_flagged(self):
        baseline = record_like(p95={"instance": 0.050})
        current = record_like(p95={"instance": 0.080})
        regressions = compare_records(current, baseline)
        assert [r.metric for r in regressions] == ["instance.p95"]
        assert regressions[0].direction == "rise"

    def test_submillisecond_jitter_not_flagged(self):
        """A 5x rise on a 0.2 ms stage is noise, not a regression."""
        baseline = record_like(p95={"group": 0.0002})
        current = record_like(p95={"group": 0.0010})
        assert compare_records(current, baseline) == []

    def test_stage_in_only_one_record_skipped(self):
        baseline = record_like(p95={"parse": 0.050})
        current = record_like(p95={"tidy": 0.500})
        assert compare_records(current, baseline) == []


class TestHistoryDetection:
    def test_median_baseline_same_config_only(self):
        history = [
            record_like("r1", "cfg", dps=100.0),
            record_like("r2", "cfg", dps=120.0),
            record_like("r3", "other", dps=10.0),  # reconfigured: excluded
            record_like("r4", "cfg", workers=8, dps=10.0),  # excluded
        ]
        latest = record_like("r5", "cfg", dps=110.0)
        baseline = baseline_of_history(history, latest)
        assert baseline["docs_per_second"] == pytest.approx(110.0)

    def test_synthetic_slowdown_flagged_baseline_passes(self):
        records = [record_like(f"r{i}", dps=100.0) for i in range(3)]
        ok = records + [record_like("ok", dps=95.0)]
        baseline, regressions = detect_history_regressions(ok)
        assert baseline is not None
        assert regressions == []
        slow = records + [record_like("slow", dps=70.0)]  # >=20% drop
        baseline, regressions = detect_history_regressions(slow)
        assert [r.metric for r in regressions] == ["docs_per_second"]

    def test_no_comparable_history(self):
        records = [record_like("r1", "a"), record_like("r2", "b")]
        baseline, regressions = detect_history_regressions(records)
        assert baseline is None
        assert regressions == []
        assert detect_history_regressions([]) == (None, [])

