"""Tests for durable online schema evolution (checkpoint + driver)."""

import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro import durable
from repro.dom.node import Element
from repro.schema import evolution
from repro.schema.accumulator import PathAccumulator
from repro.schema.dtd import derive_dtd
from repro.schema.evolution import (
    AccumulatorCheckpoint,
    CheckpointCorruption,
    EvolvingSchema,
    _HEADER,
)
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema

GOLDEN_CHECKPOINT = Path(__file__).parent / "golden" / "checkpoint" / "v1"
GOLDEN_CHECKPOINT_V2 = GOLDEN_CHECKPOINT.parent / "v2"


def tree(tags):
    """A RESUME tree with the given child chains (e.g. ["CONTACT"])."""
    root = Element("RESUME")
    for chain in tags:
        parent = root
        for tag in chain.split("/"):
            parent = parent.append_child(Element(tag))
    return root


def golden_trees():
    """The fixed corpus the committed golden checkpoint was built from."""
    return [
        tree(["CONTACT", "EDUCATION/DEGREE"]),
        tree(["CONTACT", "EDUCATION/DEGREE", "EDUCATION/DATE"]),
        tree(["CONTACT", "SKILLS"]),
    ]


def accumulate(trees):
    return PathAccumulator.from_trees(trees)


def build_golden_checkpoint(directory):
    """Write the golden checkpoint's layout: a snapshot of the first two
    golden trees at sequence 1 and one delta frame with the third.

    A new wire version gets its golden directory by calling this with
    ``tests/golden/checkpoint/vN`` from the repository root, with
    ``PYTHONPATH=src``; committed directories are never rewritten.
    """
    checkpoint = AccumulatorCheckpoint(directory)
    trees = golden_trees()
    checkpoint.commit_snapshot(accumulate(trees[:2]), sequence=1)
    checkpoint.append_delta(accumulate(trees[2:]))
    return checkpoint


class TestCheckpointRoundTrip:
    def test_append_and_reload(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:2]))
        checkpoint.append_delta(accumulate(trees[2:]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees)

    def test_snapshot_plus_deltas(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:1]))
        checkpoint.commit_snapshot(checkpoint.load())
        checkpoint.append_delta(accumulate(trees[1:]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees)

    def test_load_is_cached_and_kept_live(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        live = checkpoint.load()
        assert live.document_count == 0
        checkpoint.append_delta(accumulate(trees))
        assert live.document_count == 3
        assert checkpoint.load() is live

    def test_compaction_folds_log_into_snapshot(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        checkpoint.compaction_ratio = 0.5
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:2]))
        assert checkpoint.maybe_compact()
        assert checkpoint.delta_log_path.read_bytes() == b""
        checkpoint.append_delta(accumulate(trees[2:]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees)

    def test_no_compaction_below_threshold(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        checkpoint.compaction_ratio = 100.0
        checkpoint.append_delta(accumulate(golden_trees()[:1]))
        checkpoint.commit_snapshot(checkpoint.load())
        checkpoint.append_delta(accumulate(golden_trees()[1:2]))
        assert not checkpoint.maybe_compact()
        assert checkpoint.delta_log_path.stat().st_size > 0


class TestCrashRecovery:
    def test_torn_tail_is_recovered_silently(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:1]))
        checkpoint.append_delta(accumulate(trees[1:]))
        log = checkpoint.delta_log_path
        data = log.read_bytes()
        # Tear the last frame mid-payload (crash during append).
        log.write_bytes(data[: len(data) - 7])
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees[:1])

    def test_append_after_torn_tail_truncates_it(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:1]))
        log = checkpoint.delta_log_path
        data = log.read_bytes()
        log.write_bytes(data + b"\x00" * 5)  # torn header fragment
        fresh = AccumulatorCheckpoint(tmp_path / "ckpt")
        fresh.append_delta(accumulate(trees[1:]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees)

    def test_corrupt_payload_raises(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        checkpoint.append_delta(accumulate(golden_trees()))
        log = checkpoint.delta_log_path
        data = bytearray(log.read_bytes())
        # Flip one payload byte of a *complete* frame: real corruption,
        # not a crash artifact.
        data[_HEADER.size + 3] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruption):
            AccumulatorCheckpoint(tmp_path / "ckpt").load()

    def test_bad_magic_raises(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        checkpoint.append_delta(accumulate(golden_trees()))
        log = checkpoint.delta_log_path
        data = bytearray(log.read_bytes())
        data[0:4] = b"XXXX"
        log.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruption):
            AccumulatorCheckpoint(tmp_path / "ckpt").load()

    def test_watermark_prevents_double_counting(self, tmp_path):
        """A crash between snapshot commit and log truncation must not
        fold the already-snapshotted deltas in twice."""
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:2]))
        stale_log = checkpoint.delta_log_path.read_bytes()
        checkpoint.commit_snapshot(checkpoint.load())
        # Simulate the crash: the snapshot committed but the log
        # truncation never happened.
        checkpoint.delta_log_path.write_bytes(stale_log)
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded.document_count == 2
        assert reloaded == accumulate(trees[:2])

    def test_recovery_after_simulated_crash_continues_sequence(self, tmp_path):
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        trees = golden_trees()
        checkpoint.append_delta(accumulate(trees[:2]))
        stale_log = checkpoint.delta_log_path.read_bytes()
        checkpoint.commit_snapshot(checkpoint.load())
        checkpoint.delta_log_path.write_bytes(stale_log)
        survivor = AccumulatorCheckpoint(tmp_path / "ckpt")
        survivor.append_delta(accumulate(trees[2:]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate(trees)


class TestGoldenWireFormat:
    """The committed checkpoints of every wire version must stay loadable
    forever; the current version's bytes are pinned."""

    def test_golden_checkpoint_loads(self, tmp_path):
        assert GOLDEN_CHECKPOINT.exists(), "golden checkpoint fixture missing"
        shutil.copytree(GOLDEN_CHECKPOINT, tmp_path / "ckpt")
        loaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert loaded == accumulate(golden_trees())

    def test_golden_checkpoint_accepts_new_deltas(self, tmp_path):
        shutil.copytree(GOLDEN_CHECKPOINT, tmp_path / "ckpt")
        checkpoint = AccumulatorCheckpoint(tmp_path / "ckpt")
        checkpoint.append_delta(accumulate([tree(["CONTACT"])]))
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded.document_count == 4

    def test_v1_snapshot_with_v2_delta_loads(self, tmp_path):
        shutil.copytree(GOLDEN_CHECKPOINT, tmp_path / "ckpt")
        extra = tree(["CONTACT", "EDUCATION/DATE"])
        AccumulatorCheckpoint(tmp_path / "ckpt").append_delta(accumulate([extra]))
        name = evolution.DELTA_LOG_NAME
        log = (tmp_path / "ckpt" / name).read_bytes()
        assert log.startswith((GOLDEN_CHECKPOINT / name).read_bytes())
        reloaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert reloaded == accumulate([*golden_trees(), extra])

    def test_golden_v2_checkpoint_loads(self, tmp_path):
        assert GOLDEN_CHECKPOINT_V2.exists(), "golden v2 checkpoint missing"
        shutil.copytree(GOLDEN_CHECKPOINT_V2, tmp_path / "ckpt")
        loaded = AccumulatorCheckpoint(tmp_path / "ckpt").load()
        assert loaded == accumulate(golden_trees())

    def test_golden_v2_bytes_are_pinned(self, tmp_path):
        """Encoding the golden trees today gives the committed bytes: a
        wire-form change must bump the version and add a directory."""
        build_golden_checkpoint(tmp_path / "ckpt")
        for name in (evolution.SNAPSHOT_NAME, evolution.DELTA_LOG_NAME):
            written = (tmp_path / "ckpt" / name).read_bytes()
            assert written == (GOLDEN_CHECKPOINT_V2 / name).read_bytes(), name


class CountingModule:
    """Stands in for a module, counting the calls of one of its functions."""

    def __init__(self, module, name):
        self._module = module
        self._name = name
        self.calls = 0

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if attr != self._name:
            return value

        def counted(*args, **kwargs):
            self.calls += 1
            return value(*args, **kwargs)

        return counted


@pytest.fixture()
def io_counts(monkeypatch):
    """``(fsyncs, frame_decodes)`` counters over the evolution module and
    the durable commits it makes."""
    fsyncs = CountingModule(os, "fsync")
    decodes = CountingModule(pickle, "loads")
    monkeypatch.setattr(evolution, "os", fsyncs)
    monkeypatch.setattr(durable, "os", fsyncs)
    monkeypatch.setattr(evolution, "pickle", decodes)
    return fsyncs, decodes


def on_disk_frames(directory):
    checkpoint = AccumulatorCheckpoint(directory)
    snapshot = 1 if checkpoint.snapshot_path.exists() else 0
    return snapshot + checkpoint.info().delta_frames


class TestFoldIOBudget:
    @pytest.fixture()
    def corpus_trees(self, converted_corpus):
        return [result.root for result in converted_corpus]

    def test_non_bumping_fold_is_one_fsync_and_no_decode(
        self, tmp_path, kb, corpus_trees, io_counts
    ):
        fsyncs, decodes = io_counts
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.checkpoint.compaction_ratio = 100.0
        evolving.fold(accumulate(corpus_trees))
        fsyncs.calls = decodes.calls = 0
        outcome = evolving.fold(accumulate(corpus_trees))
        assert not outcome.bumped and not outcome.compacted
        assert fsyncs.calls == 1
        assert decodes.calls == 0

    def test_fresh_instance_decodes_each_frame_once(
        self, tmp_path, kb, corpus_trees, io_counts
    ):
        _, decodes = io_counts
        state = tmp_path / "state"
        evolving = EvolvingSchema(state, kb)
        evolving.checkpoint.compaction_ratio = 100.0
        for part in (corpus_trees[:3], corpus_trees[3:6], corpus_trees[6:]):
            evolving.fold(accumulate(part))
        frames = on_disk_frames(state)
        assert frames >= 3
        decodes.calls = 0
        EvolvingSchema(state, kb).fold(accumulate(corpus_trees[:2]))
        assert decodes.calls == frames

    def test_decodes_per_fold_do_not_grow_with_appends(
        self, tmp_path, kb, corpus_trees, io_counts
    ):
        _, decodes = io_counts
        state = tmp_path / "state"
        EvolvingSchema(state, kb).fold(accumulate(corpus_trees))
        frames = on_disk_frames(state)
        evolving = EvolvingSchema(state, kb)
        evolving.checkpoint.compaction_ratio = 100.0
        per_fold = []
        for start in range(0, len(corpus_trees), 2):
            decodes.calls = 0
            evolving.fold(accumulate(corpus_trees[start : start + 2]))
            per_fold.append(decodes.calls)
        # The first fold loads the state; every later one decodes nothing
        # however long the delta log has grown.
        assert on_disk_frames(state) == frames + len(per_fold)
        assert per_fold == [frames] + [0] * (len(per_fold) - 1)

    def test_second_writer_loses_no_frame_and_torn_tail_is_truncated(
        self, tmp_path
    ):
        directory = tmp_path / "ckpt"
        trees = golden_trees()
        first = AccumulatorCheckpoint(directory)
        first.append_delta(accumulate(trees[:1]))
        AccumulatorCheckpoint(directory).append_delta(accumulate(trees[1:2]))
        first.append_delta(accumulate(trees[2:]))
        assert first.info().delta_frames == 3
        assert AccumulatorCheckpoint(directory).load() == accumulate(trees)
        log = first.delta_log_path
        log.write_bytes(log.read_bytes() + b"\x00" * 5)  # torn header fragment
        first.append_delta(accumulate([tree(["CONTACT"])]))
        info = first.info()
        assert info.delta_frames == 4
        assert info.delta_bytes == log.stat().st_size
        reloaded = AccumulatorCheckpoint(directory).load()
        assert reloaded == accumulate([*trees, tree(["CONTACT"])])


class TestUnchangedState:
    @pytest.fixture()
    def corpus_trees(self, converted_corpus):
        return [result.root for result in converted_corpus]

    def test_non_bumping_fold_leaves_state_files_untouched(
        self, tmp_path, kb, corpus_trees
    ):
        evolving = EvolvingSchema(tmp_path / "state", kb, sup_threshold=0.5)
        evolving.fold(accumulate(corpus_trees))
        files = (evolving.state_path, evolving.current_dtd_path)

        def fingerprint():
            return [
                (path.read_bytes(), path.stat().st_mtime_ns, path.stat().st_ino)
                for path in files
            ]

        before = fingerprint()
        outcome = evolving.fold(accumulate(corpus_trees))
        assert not outcome.bumped
        assert fingerprint() == before
        restored = EvolvingSchema(tmp_path / "state", kb)
        assert restored.version == evolving.version == 1
        assert restored.dtd_text == evolving.dtd_text
        assert restored.sup_threshold == 0.5
        assert restored.ratio_threshold == evolving.ratio_threshold
        assert restored.optional_threshold == evolving.optional_threshold

    def test_first_fold_into_bare_directory_writes_state(self, tmp_path, kb):
        evolving = EvolvingSchema(tmp_path / "bare", kb, sup_threshold=0.5)
        outcome = evolving.fold(PathAccumulator())
        assert not outcome.bumped
        assert evolving.state_path.exists()
        assert EvolvingSchema(tmp_path / "bare", kb).sup_threshold == 0.5

    def test_no_checkpoint_sidecar(self, tmp_path, kb, corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees))
        evolving.fold(accumulate(corpus_trees))
        assert not (tmp_path / "state" / "checkpoint.json").exists()


def derive_batch_dtd(kb, trees, *, sup=0.4):
    accumulator = accumulate(trees)
    frequent = mine_frequent_paths(
        accumulator,
        sup_threshold=sup,
        constraints=kb.constraints,
        candidate_labels=kb.concept_tags(),
    )
    schema = MajoritySchema.from_frequent_paths(frequent)
    return derive_dtd(schema, accumulator).render()


class TestEvolvingSchema:
    @pytest.fixture()
    def corpus_trees(self, converted_corpus):
        return [result.root for result in converted_corpus]

    def test_first_fold_bumps_to_version_one(self, tmp_path, kb, corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        outcome = evolving.fold(accumulate(corpus_trees))
        assert outcome.derived
        assert outcome.bumped
        assert outcome.version == evolving.version == 1
        assert evolving.version_dtd_path(1).exists()
        assert evolving.current_dtd_path.exists()

    def test_split_fold_matches_batch_dtd(self, tmp_path, kb, corpus_trees):
        """The differential proof: checkpoint -> restore -> fold over a
        split corpus derives a DTD byte-identical to one batch run."""
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees[:4]))
        # Restart from disk between folds (restore path exercised).
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees[4:7]))
        evolving = EvolvingSchema(tmp_path / "state", kb)
        outcome = evolving.fold(accumulate(corpus_trees[7:]))
        assert evolving.dtd_text == derive_batch_dtd(kb, corpus_trees)
        assert outcome.total_documents == len(corpus_trees)

    def test_unchanged_refold_does_not_bump(self, tmp_path, kb, corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees))
        version = evolving.version
        outcome = evolving.fold(accumulate(corpus_trees))
        assert not outcome.bumped
        assert evolving.version == version
        assert len(evolving.history) == 1

    def test_state_survives_restart(self, tmp_path, kb, corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb, sup_threshold=0.5)
        evolving.fold(accumulate(corpus_trees))
        restored = EvolvingSchema(tmp_path / "state", kb)
        assert restored.version == evolving.version
        assert restored.dtd_text == evolving.dtd_text
        assert restored.sup_threshold == 0.5
        assert restored.dtd is not None
        assert restored.dtd.render() == evolving.dtd_text

    def test_cold_folds_write_the_warm_instance_bytes(
        self, tmp_path, kb, corpus_trees
    ):
        """A cold fold -- a fresh instance, whose snapshot stays columns
        until a compaction reads it in full -- writes what one warm
        instance folding the same deltas writes, byte for byte, across
        compactions and folds that leave deltas in the log."""
        warm = EvolvingSchema(tmp_path / "warm", kb)
        compacted = []
        for batch in (
            corpus_trees[:4], corpus_trees[4:5], corpus_trees[5:6],
            corpus_trees[6:7], corpus_trees[7:8], corpus_trees[8:],
        ):
            delta = accumulate(batch)
            outcome = warm.fold(delta)
            cold = EvolvingSchema(tmp_path / "cold", kb).fold(delta)
            assert (cold.compacted, cold.version) == (
                outcome.compacted, outcome.version
            )
            compacted.append(outcome.compacted)
            for name in (
                evolution.SNAPSHOT_NAME,
                evolution.DELTA_LOG_NAME,
                evolution.STATE_NAME,
                evolution.CURRENT_DTD_NAME,
            ):
                assert (tmp_path / "cold" / name).read_bytes() == (
                    tmp_path / "warm" / name
                ).read_bytes()
        # The first fold compacts into the empty snapshot; a later one
        # compacts a snapshot that a cold fold decoded as columns.
        assert compacted[0] and any(compacted[1:]) and not all(compacted)

    def test_vocabulary_shift_bumps_exactly_once(self, tmp_path, kb,
                                                 corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees))
        # A heavy influx of documents with a new sub-structure shifts
        # the majority: one fold, one bump.
        shifted = [
            tree(["CONTACT", "PUBLICATION/TITLE", "PUBLICATION/DATE"])
            for _ in range(30)
        ]
        outcome = evolving.fold(accumulate(shifted))
        assert outcome.bumped
        assert evolving.version == 2
        assert len(evolving.history) == 2

    def test_empty_fold_reports_underived(self, tmp_path, kb):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        outcome = evolving.fold(PathAccumulator())
        assert not outcome.derived
        assert not outcome.bumped
        assert evolving.version == 0
        assert "no schema derivable" in outcome.summary()

    def test_metrics_recorded(self, tmp_path, kb, corpus_trees):
        from repro.obs.metrics import MetricsRegistry
        from repro.schema.evolution import (
            EVOLUTION_DOCUMENTS,
            EVOLUTION_FOLDS,
            SCHEMA_VERSION,
            VERSION_BUMPS,
        )

        registry = MetricsRegistry()
        evolving = EvolvingSchema(tmp_path / "state", kb, registry=registry)
        evolving.fold(accumulate(corpus_trees))
        evolving.fold(accumulate(corpus_trees))
        assert registry.counter(EVOLUTION_FOLDS).value == 2
        assert registry.counter(EVOLUTION_DOCUMENTS).value == 2 * len(
            corpus_trees
        )
        assert registry.counter(VERSION_BUMPS).value == 1
        assert registry.gauge(SCHEMA_VERSION).value == 1

    def test_status_rows_render(self, tmp_path, kb, corpus_trees):
        evolving = EvolvingSchema(tmp_path / "state", kb)
        evolving.fold(accumulate(corpus_trees))
        rows = dict(
            (row[0], row[1]) for row in evolving.status_rows()
        )
        assert rows["schema version"] == "1"
        assert rows["documents"] == str(len(corpus_trees))


@pytest.mark.parametrize(
    "workers",
    [1, pytest.param(2, marks=pytest.mark.slow),
     pytest.param(4, marks=pytest.mark.slow)],
)
def test_engine_fold_differential(tmp_path, kb, workers):
    """Engine-converted split folds equal one batch engine run's DTD,
    at every worker count (the acceptance differential proof)."""
    from repro.corpus.generator import ResumeCorpusGenerator
    from repro.runtime.engine import CorpusEngine, EngineConfig

    sources = ResumeCorpusGenerator(seed=11).generate_html(10)
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=workers, chunk_size=3)
    )
    evolving = EvolvingSchema(tmp_path / "state", kb)
    for part in (sources[:5], sources[5:]):
        run = engine.run(part, discover=False)
        evolving.fold(run.corpus.accumulator)
    batch = engine.run(sources, discover=False).corpus.accumulator
    frequent = mine_frequent_paths(
        batch,
        sup_threshold=evolving.sup_threshold,
        constraints=kb.constraints,
        candidate_labels=kb.concept_tags(),
    )
    schema = MajoritySchema.from_frequent_paths(frequent)
    assert evolving.dtd_text == derive_dtd(schema, batch).render()
    # Every statistic agrees exactly, position sums included: they are
    # integer numerators, so chunk boundaries cannot re-associate them.
    restored = AccumulatorCheckpoint(tmp_path / "state").load()
    assert restored.document_count == batch.document_count
    assert restored.doc_frequency == batch.doc_frequency
    assert restored.multiplicity_docs == batch.multiplicity_docs
    assert restored.position_sum == batch.position_sum
