"""Fault-injection harness: the robustness counterpart to the
differential tests in ``test_runtime_engine.py``.

Two chaos hooks on :class:`ConversionConfig` drive the injections:

* ``chaos_fail_marker`` -- the pipeline raises ``InjectedFaultError``
  (stage ``"inject"``) for any document containing the marker: a
  deterministic poison document.
* ``chaos_kill_marker`` -- a *pool worker* handed a chunk containing the
  marker dies with ``os._exit(1)``: no exception, no cleanup, the way an
  OOM kill or segfault looks from the parent.

The invariants enforced here:

* k poison documents under ``error_policy="skip"`` produce XML and a
  DTD byte-identical to ``convert_many`` of the survivors, at
  worker counts 1/2/4, with all k failures reported with doc id, corpus
  index, and pipeline stage;
* an injected worker kill recovers via pool rebuild + chunk bisection,
  completes the run with exactly the killer document failed (and
  quarantined, under that policy), and leaves the survivors
  byte-identical to the serial path;
* the default fail-fast behavior is unchanged: poison documents raise,
  worker kills surface as ``BrokenProcessPool``.
"""

from __future__ import annotations

import json

import pytest
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.convert.config import ConversionConfig
from repro.convert.pipeline import DocumentConverter
from repro.convert.errors import (
    TRACEBACK_LIMIT,
    DocumentFailure,
    ErrorPolicy,
    PipelineStageError,
    failure_from_exception,
    truncate_traceback,
    write_quarantine,
)
from repro.corpus.generator import ResumeCorpusGenerator
from repro.obs.provenance import ProvenanceLog
from repro.runtime.engine import ChunkTask, CorpusEngine, EngineConfig
from repro.runtime.faults import (
    PoolRebuildExhausted,
    RecoveryBudget,
    split_segment,
    worker_crash_failure,
)
from repro.runtime.stats import CHUNK_SECONDS_HISTOGRAM
from tests.obscheck import load_schema, validate_record

POISON = "__CHAOS_POISON__"
KILL = "__CHAOS_KILL__"
WORKER_COUNTS = [1, 2, 4]
POOL_WORKER_COUNTS = [2, 4]


@pytest.fixture(scope="module")
def corpus_html():
    return ResumeCorpusGenerator(seed=424).generate_html(10)


def tainted(corpus, positions, marker):
    """The corpus with ``marker`` appended to the named documents."""
    return [
        html + f"<!-- {marker} -->" if position in positions else html
        for position, html in enumerate(corpus)
    ]


def survivors_of(corpus, positions):
    return [
        html
        for position, html in enumerate(corpus)
        if position not in positions
    ]


def chaos_engine(
    kb,
    workers,
    *,
    policy="skip",
    chunk_size=3,
    fail_marker=None,
    kill_marker=None,
    quarantine_dir=None,
    max_pool_rebuilds=16,
):
    return CorpusEngine(
        kb,
        ConversionConfig(
            chaos_fail_marker=fail_marker, chaos_kill_marker=kill_marker
        ),
        engine_config=EngineConfig(
            max_workers=workers,
            chunk_size=chunk_size,
            error_policy=policy,
            quarantine_dir=quarantine_dir,
            max_pool_rebuilds=max_pool_rebuilds,
        ),
    )


def serial_xml(converter, corpus):
    return [result.to_xml() for result in converter.convert_many(corpus)]


# -- the policy / failure vocabulary ------------------------------------------


class TestErrorPolicy:
    """A run spells its policy once, as ``EngineConfig.error_policy``;
    ``resolved_policy`` builds the one ``ErrorPolicy`` it applies."""

    def test_mode_strings_resolve(self):
        """``-`` stands for ``_``: the CLI's ``--on-error fail-fast``."""
        for mode, expected in (
            ("skip", "skip"),
            ("fail-fast", "fail_fast"),
            ("fail_fast", "fail_fast"),
        ):
            policy = EngineConfig(error_policy=mode).resolved_policy()
            assert policy.mode == expected
            assert policy.is_fail_fast == (expected == "fail_fast")
        assert EngineConfig().resolved_policy().is_fail_fast

    def test_quarantine_carries_directory(self, tmp_path):
        policy = EngineConfig(
            error_policy="quarantine", quarantine_dir=str(tmp_path)
        ).resolved_policy()
        assert policy.mode == "quarantine"
        assert policy.quarantine_dir == str(tmp_path)
        assert policy.captures_source

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ErrorPolicy("retry")
        with pytest.raises(ValueError):
            EngineConfig(error_policy="retry").resolved_policy()

    def test_quarantine_requires_directory(self):
        with pytest.raises(ValueError):
            ErrorPolicy("quarantine")
        with pytest.raises(ValueError):
            EngineConfig(error_policy="quarantine").resolved_policy()

    def test_only_quarantine_captures_source(self):
        assert not EngineConfig(error_policy="skip").resolved_policy().captures_source
        assert not ErrorPolicy().captures_source


class TestDocumentFailure:
    def make_exception(self):
        try:
            try:
                raise ValueError("inner cause")
            except ValueError as cause:
                raise PipelineStageError("tokenize", "doc0003") from cause
        except PipelineStageError as exc:
            return exc

    def test_failure_unwraps_stage_error(self):
        failure = failure_from_exception("doc0003", 3, self.make_exception())
        assert failure.stage == "tokenize"
        assert failure.error_type == "ValueError"
        assert failure.message == "inner cause"
        assert "ValueError: inner cause" in failure.traceback
        assert failure.source is None

    def test_stage_error_survives_pickling(self):
        """Fail-fast in a pool worker ships the exception across the
        process boundary; stage/doc_id must survive the round trip."""
        import pickle

        clone = pickle.loads(pickle.dumps(self.make_exception()))
        assert clone.stage == "tokenize"
        assert clone.doc_id == "doc0003"
        assert str(clone) == str(self.make_exception())

    def test_plain_exception_attributed_to_convert(self):
        failure = failure_from_exception("doc0000", 0, KeyError("boom"))
        assert failure.stage == "convert"
        assert failure.error_type == "KeyError"

    def test_to_json_excludes_source(self):
        failure = failure_from_exception(
            "doc0001", 1, ValueError("x"), source="<html>secret</html>"
        )
        record = failure.to_json()
        assert "source" not in record
        assert record["doc_id"] == "doc0001"
        assert record["index"] == 1
        assert record["stage"] == "convert"

    def test_traceback_tail_truncated(self):
        exc = ValueError("m" * (4 * TRACEBACK_LIMIT))
        text = truncate_traceback(exc)
        assert text.startswith("...[truncated]...\n")
        assert len(text) <= TRACEBACK_LIMIT + len("...[truncated]...\n")

    def test_write_quarantine(self, tmp_path):
        failure = failure_from_exception(
            "doc0042", 42, ValueError("bad"), source="<p>poison</p>"
        )
        error_path = write_quarantine(tmp_path, failure)
        assert (tmp_path / "doc0042.html").read_text() == "<p>poison</p>"
        record = json.loads(error_path.read_text())
        assert record["stage"] == "convert"
        assert record["error_type"] == "ValueError"


class TestRecoveryPrimitives:
    def test_split_segment_preserves_bases(self):
        segments = split_segment(6, ["a", "b", "c", "d", "e"])
        assert segments == [(6, ["a", "b"]), (8, ["c", "d", "e"])]

    def test_recovery_budget_bounds_rebuilds(self):
        budget = RecoveryBudget(limit=2)
        budget.spend()
        budget.spend()
        with pytest.raises(PoolRebuildExhausted):
            budget.spend()

    def test_worker_crash_failure_record(self):
        failure = worker_crash_failure("doc0007", 7, source="<p>x</p>")
        assert failure.stage == "worker"
        assert failure.error_type == "WorkerCrash"
        assert failure.source == "<p>x</p>"


# -- engine: poison documents under skip --------------------------------------


class TestPoisonDifferential:
    POISON_AT = frozenset({2, 5, 8})

    @pytest.fixture(scope="class")
    def poisoned(self, corpus_html):
        return tainted(corpus_html, self.POISON_AT, POISON)

    @pytest.fixture(scope="class")
    def survivor_xml(self, converter, corpus_html):
        return serial_xml(converter, survivors_of(corpus_html, self.POISON_AT))

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_xml_byte_identical_to_serial_survivors(
        self, kb, poisoned, survivor_xml, workers
    ):
        engine = chaos_engine(kb, workers, fail_marker=POISON)
        result = engine.convert_corpus(poisoned)
        assert result.xml_documents == survivor_xml
        assert [(f.doc_id, f.index, f.stage) for f in result.failures] == [
            ("doc0002", 2, "inject"),
            ("doc0005", 5, "inject"),
            ("doc0008", 8, "inject"),
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_failure_counters(self, kb, poisoned, workers):
        engine = chaos_engine(kb, workers, fail_marker=POISON)
        stats = engine.convert_corpus(poisoned).stats
        assert stats.documents == len(poisoned) - len(self.POISON_AT)
        assert stats.documents_failed == len(self.POISON_AT)
        assert stats.failures_by_stage == {"inject": len(self.POISON_AT)}
        assert stats.pool_rebuilds == 0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_dtd_identical_to_serial_survivors(
        self, kb, converter, poisoned, corpus_html, workers
    ):
        from repro.schema.dtd import derive_dtd
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.majority import MajoritySchema
        from repro.schema.paths import extract_paths

        survivors = survivors_of(corpus_html, self.POISON_AT)
        documents = [
            extract_paths(result.root)
            for result in converter.convert_many(survivors)
        ]
        frequent = mine_frequent_paths(
            documents,
            sup_threshold=0.4,
            constraints=kb.constraints,
            candidate_labels=kb.concept_tags(),
        )
        dtd = derive_dtd(MajoritySchema.from_frequent_paths(frequent), documents)

        engine = chaos_engine(kb, workers, fail_marker=POISON)
        run = engine.run(poisoned, sup_threshold=0.4)
        assert run.discovery is not None
        assert run.discovery.frequent.paths == frequent.paths
        assert run.discovery.dtd.render() == dtd.render()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_fail_fast_unchanged(self, kb, poisoned, workers):
        engine = chaos_engine(
            kb, workers, policy="fail_fast", fail_marker=POISON
        )
        with pytest.raises(PipelineStageError):
            engine.convert_corpus(poisoned)

    def test_summary_rows_report_failures(self, kb, poisoned):
        engine = chaos_engine(kb, 2, fail_marker=POISON)
        rows = dict(engine.convert_corpus(poisoned).stats.summary_rows())
        assert rows["documents failed"] == "3"
        assert rows["  failed @ inject"] == "3"

    def test_provenance_error_events_validate(self, kb, poisoned):
        engine = chaos_engine(kb, 2, fail_marker=POISON)
        provenance = ProvenanceLog()
        engine.convert_corpus(poisoned, provenance=provenance)
        errors = provenance.by_kind("error")
        assert [event["doc"] for event in errors] == [
            "doc0002",
            "doc0005",
            "doc0008",
        ]
        assert {event["stage"] for event in errors} == {"inject"}
        schema = load_schema()
        for event in errors:
            assert validate_record(event, schema) == []

    def test_quarantine_policy_writes_poison_documents(
        self, kb, poisoned, survivor_xml, tmp_path
    ):
        engine = chaos_engine(
            kb,
            2,
            policy="quarantine",
            quarantine_dir=tmp_path,
            fail_marker=POISON,
        )
        result = engine.convert_corpus(poisoned)
        assert result.xml_documents == survivor_xml
        saved = sorted(path.name for path in tmp_path.iterdir())
        assert saved == [
            "doc0002.error.json",
            "doc0002.html",
            "doc0005.error.json",
            "doc0005.html",
            "doc0008.error.json",
            "doc0008.html",
        ]
        assert (tmp_path / "doc0005.html").read_text() == poisoned[5]


# -- engine: worker crashes ---------------------------------------------------


class TestWorkerCrashRecovery:
    KILLER = 4

    @pytest.fixture(scope="class")
    def killed(self, corpus_html):
        return tainted(corpus_html, {self.KILLER}, KILL)

    @pytest.fixture(scope="class")
    def survivor_xml(self, converter, corpus_html):
        return serial_xml(converter, survivors_of(corpus_html, {self.KILLER}))

    @pytest.mark.parametrize("workers", POOL_WORKER_COUNTS)
    def test_recovers_and_matches_serial_survivors(
        self, kb, killed, survivor_xml, workers
    ):
        engine = chaos_engine(kb, workers, kill_marker=KILL)
        result = engine.convert_corpus(killed)
        assert result.xml_documents == survivor_xml
        assert [(f.doc_id, f.index, f.stage, f.error_type) for f in result.failures] == [
            (f"doc{self.KILLER:04d}", self.KILLER, "worker", "WorkerCrash")
        ]
        assert result.stats.pool_rebuilds >= 1
        assert result.stats.documents == len(killed) - 1
        assert result.stats.failures_by_stage == {"worker": 1}

    def test_stitched_chunk_keeps_one_set_of_books(self, kb, corpus_html, killed):
        """Crash recovery stitches the killer's bisection pieces back
        into one chunk: the books count it as one chunk with one
        chunk-seconds observation, and every stage digest counts each
        survivor once."""
        clean = chaos_engine(kb, 2, kill_marker=KILL).convert_corpus(corpus_html)
        stats = chaos_engine(kb, 2, kill_marker=KILL).convert_corpus(killed).stats
        assert stats.pool_rebuilds >= 1
        assert stats.chunks == clean.stats.chunks
        chunk_seconds = stats.registry.get(CHUNK_SECONDS_HISTOGRAM)
        assert chunk_seconds.digest.count == stats.chunks
        survivors = len(killed) - 1
        assert stats.documents == survivors
        assert "document" in stats.stage_digests
        assert {
            stage: digest.count for stage, digest in stats.stage_digests.items()
        } == dict.fromkeys(stats.stage_digests, survivors)
        assert stats.failures_by_stage == {"worker": 1}

    def test_quarantine_saves_exactly_the_killer(
        self, kb, killed, survivor_xml, tmp_path
    ):
        engine = chaos_engine(
            kb, 2, policy="quarantine", quarantine_dir=tmp_path, kill_marker=KILL
        )
        result = engine.convert_corpus(killed)
        assert result.xml_documents == survivor_xml
        saved = sorted(path.name for path in tmp_path.iterdir())
        assert saved == ["doc0004.error.json", "doc0004.html"]
        assert (tmp_path / "doc0004.html").read_text() == killed[self.KILLER]
        record = json.loads((tmp_path / "doc0004.error.json").read_text())
        assert record["stage"] == "worker"
        assert record["error_type"] == "WorkerCrash"

    def test_two_killers_in_one_chunk_are_both_isolated(
        self, kb, converter, corpus_html
    ):
        killers = {3, 4}
        corpus = tainted(corpus_html, killers, KILL)
        engine = chaos_engine(kb, 2, kill_marker=KILL)
        result = engine.convert_corpus(corpus)
        assert result.xml_documents == serial_xml(
            converter, survivors_of(corpus_html, killers)
        )
        assert sorted(f.index for f in result.failures) == sorted(killers)
        assert all(f.stage == "worker" for f in result.failures)

    def test_concurrent_recoveries_blame_only_killers(
        self, kb, converter, corpus_html
    ):
        """Two threads recovering chunks on one pool (as the service's
        dispatches do) take turns: neither bisection sees the other's
        killer break the pool, so only the killers are blamed."""
        killers = {1, 5}
        corpus = tainted(corpus_html[:6], killers, KILL)
        engine = chaos_engine(kb, 2, kill_marker=KILL)
        stats = engine.new_stats()
        tasks = [ChunkTask(0, 0, corpus[:3]), ChunkTask(1, 3, corpus[3:])]
        pool = engine.worker_pool()
        try:
            with ThreadPoolExecutor(max_workers=2) as threads:
                payloads = list(threads.map(
                    lambda task: engine.recover_chunk(pool, task, stats), tasks
                ))
        finally:
            pool.shutdown()
        assert [f.index for p in payloads for f in p.failures] == [1, 5]
        assert all(f.stage == "worker" for p in payloads for f in p.failures)
        assert [xml for p in payloads for xml in p.xml] == serial_xml(
            converter, survivors_of(corpus_html[:6], killers)
        )

    def test_fail_fast_surfaces_broken_pool(self, kb, killed):
        engine = chaos_engine(kb, 2, policy="fail_fast", kill_marker=KILL)
        with pytest.raises(BrokenProcessPool):
            engine.convert_corpus(killed)

    def test_recovery_budget_exhaustion_raises(self, kb, killed):
        engine = chaos_engine(
            kb, 2, kill_marker=KILL, max_pool_rebuilds=0
        )
        with pytest.raises(PoolRebuildExhausted):
            engine.convert_corpus(killed)


# -- pathological inputs ------------------------------------------------------


PATHOLOGICAL = [
    "",  # empty document
    "<html><head><title>only a head</title></head></html>",
    "<div><b>unclosed <i>mismatched</div></b>",
    "\x00\x01\x02 binary \xff garbage \x00 <p>tail</p>",
    "<div>" * 120 + "deep" + "</div>" * 120,
    # None of the above raises; this one does, in the chaos hook, so the
    # failure-parity checks below compare real failure records.
    f"<p>a poisoned page</p><!-- {POISON} -->",
]


class TestPathologicalInputs:
    @pytest.fixture(scope="class")
    def mixed_corpus(self, corpus_html):
        """Pathological documents interleaved with healthy resumes."""
        corpus = list(corpus_html[:5])
        for position, pathological in enumerate(PATHOLOGICAL):
            corpus.insert(2 * position + 1, pathological)
        return corpus

    @pytest.fixture(scope="class")
    def poison_converter(self, kb):
        """A converter whose chaos hook fails the poisoned document."""
        return DocumentConverter(kb, ConversionConfig(chaos_fail_marker=POISON))

    @pytest.fixture(scope="class")
    def serial_skip(self, poison_converter, mixed_corpus):
        """Each document converted alone: the survivors' XML, and the
        failure record of each document that raised."""
        xml: list[str] = []
        failures: list[DocumentFailure] = []
        for position, source in enumerate(mixed_corpus):
            try:
                xml.append(poison_converter.convert(source).to_xml())
            except PipelineStageError as exc:
                failures.append(
                    failure_from_exception(f"doc{position:04d}", position, exc)
                )
        assert [failure.stage for failure in failures] == ["inject"]
        return xml, failures

    def test_serial_skip_accounts_for_every_document(self, kb, mixed_corpus):
        """The serial run (one worker, inline) under skip converts or
        records every document."""
        result = chaos_engine(kb, 1, fail_marker=POISON).convert_corpus(
            mixed_corpus
        )
        assert result.failures
        assert len(result.xml_documents) + len(result.failures) == len(
            mixed_corpus
        )
        for failure in result.failures:
            assert failure.stage
            assert failure.error_type

    def test_survivors_convert_identically_alone(
        self, converter, mixed_corpus, serial_skip
    ):
        """No converter state carries from one document to the next:
        ``convert_many`` of the survivors equals converting each alone."""
        xml, failures = serial_skip
        failed = {failure.index for failure in failures}
        survivors = [
            source for position, source in enumerate(mixed_corpus)
            if position not in failed
        ]
        assert [
            result.to_xml() for result in converter.convert_many(survivors)
        ] == xml

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_engine_equals_serial_skip(
        self, kb, mixed_corpus, serial_skip, workers
    ):
        serial, failures = serial_skip
        engine = chaos_engine(kb, workers, chunk_size=3, fail_marker=POISON)
        result = engine.convert_corpus(mixed_corpus)
        assert result.xml_documents == serial
        assert result.failures
        assert [(f.index, f.stage) for f in result.failures] == [
            (f.index, f.stage) for f in failures
        ]


# -- degenerate discovery -----------------------------------------------------


class TestDegenerateDiscovery:
    def test_empty_corpus_yields_no_discovery(self, kb):
        run = chaos_engine(kb, 2).run([], discover=True)
        assert run.discovery is None
        assert run.corpus.stats.documents == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_failed_corpus_yields_no_discovery(
        self, kb, corpus_html, workers
    ):
        corpus = tainted(corpus_html[:4], {0, 1, 2, 3}, POISON)
        engine = chaos_engine(kb, workers, fail_marker=POISON)
        run = engine.run(corpus, discover=True)
        assert run.discovery is None
        assert run.corpus.xml_documents == []
        assert len(run.corpus.failures) == 4
        assert run.corpus.stats.documents == 0

    def test_mining_an_empty_accumulator_is_safe(self, kb):
        from repro.schema.accumulator import PathAccumulator
        from repro.schema.frequent import mine_frequent_paths

        accumulator = PathAccumulator()
        frequent = mine_frequent_paths(
            accumulator,
            sup_threshold=0.4,
            constraints=kb.constraints,
            candidate_labels=kb.concept_tags(),
        )
        assert frequent.paths == set()
        assert frequent.support(("RESUME",)) == 0.0
        assert frequent.statistics.support_ratio(("RESUME", "NAME")) == 0.0

    def test_accumulator_statistics_guard_zero_denominators(self):
        from repro.schema.accumulator import PathAccumulator

        accumulator = PathAccumulator()
        path = ("RESUME", "NAME")
        assert accumulator.support(path) == 0.0
        assert accumulator.presence_fraction(path) == 0.0
        assert accumulator.multiplicity_fraction(path, rep_threshold=3) == 0.0
        assert accumulator.avg_position(path) == float("inf")
