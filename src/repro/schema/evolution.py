"""Online schema evolution: durable incremental discovery.

The paper's Section-3 discovery is a batch pass over a corpus; this
module turns it into a continuously learning system.
:class:`~repro.schema.accumulator.PathAccumulator` is a mergeable monoid
with a compact pickle wire form, so the whole discovery state of a
corpus fits in one small object -- the missing pieces are *durability*
and *incremental re-derivation*:

* :class:`AccumulatorCheckpoint` -- crash-safe persistence of
  accumulator state as a **snapshot** file plus an **append-only delta
  log** (the snapshot+delta pattern DataGuides use for incremental
  structure summaries).  Every frame is checksummed and sequence
  numbered; snapshots commit via write-temp + fsync + atomic rename;
  deltas append with fsync.  A crash mid-append leaves a torn tail that
  load ignores and the next append truncates; a crash between snapshot
  commit and log truncation cannot double-count because the snapshot
  records the sequence watermark it already includes.  The log is
  compacted into the snapshot once the deltas outweigh it.  A
  checkpoint remembers the log's extent from its own reads and writes,
  so an append neither re-reads nor decodes the log.

* :class:`EvolvingSchema` -- the online discovery driver: fold the
  accumulator of newly converted documents in (no corpus re-scan),
  re-run frequent-path mining + DTD derivation over the merged
  statistics, and bump the schema version **only when the derived
  schema actually changed** (:func:`repro.schema.diff.diff_path_supports`
  reports a path-set change, or the rendered DTD text moved -- a
  multiplicity flip is a real change even when the path set is stable,
  because stored documents must re-conform).

:class:`EvolvingSchema` embeds a checkpoint inside its state directory,
which ``repro-web evolve fold`` advances; every file it commits goes
through :func:`repro.durable.atomic_replace`.  The state directory's
layout stays inside this module: callers list the published versions
from :attr:`EvolvingSchema.history` and find a version's DTD through
:meth:`EvolvingSchema.version_dtd_path`.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.durable import atomic_replace, fsync_write
from repro.schema.accumulator import PathAccumulator
from repro.schema.diff import SchemaDiff, diff_path_supports
from repro.schema.discovery import discover_schema
from repro.schema.dtd import DTD
from repro.schema.paths import LabelPath

if TYPE_CHECKING:  # pragma: no cover
    from repro.concepts.knowledge import KnowledgeBase
    from repro.obs.metrics import MetricsRegistry

# -- file names inside a checkpoint / evolution state directory ---------------

SNAPSHOT_NAME = "snapshot.bin"
DELTA_LOG_NAME = "deltas.log"
STATE_NAME = "state.json"
CURRENT_DTD_NAME = "current.dtd"
DTD_DIR_NAME = "dtds"

STATE_FORMAT = "repro-evolution/1"

# -- metric names (registered only when a registry is supplied) ---------------

EVOLUTION_FOLDS = "repro_evolution_folds_total"
EVOLUTION_DOCUMENTS = "repro_evolution_documents_total"
VERSION_BUMPS = "repro_schema_version_bumps_total"
SCHEMA_VERSION = "repro_schema_version"

# -- frame format -------------------------------------------------------------
#
#   frame := magic(4) | sequence(>Q) | length(>Q) | crc32(>I) | payload
#
# ``payload`` is the accumulator pickled through its compact wire form.
# The same frame shape is used for the snapshot file (exactly one frame,
# whose sequence is the watermark: the highest delta sequence the
# snapshot already includes) and for the delta log (one frame per fold,
# sequence strictly increasing).

_MAGIC = b"RPCK"
_HEADER = struct.Struct(">4sQQI")


class CheckpointCorruption(ValueError):
    """A checkpoint file is damaged beyond what a crash can explain.

    Torn *tails* (a crash mid-append) are expected and recovered from
    silently; a bad checksum followed by further valid data, or a
    mangled snapshot, is real corruption and refuses to load.
    """


def _encode_frame(sequence: int, accumulator: PathAccumulator) -> bytes:
    payload = pickle.dumps(accumulator, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _HEADER.pack(_MAGIC, sequence, len(payload), zlib.crc32(payload))
        + payload
    )


@dataclass
class _Frame:
    sequence: int
    accumulator: PathAccumulator


def _scan_frames(data: bytes, *, where: str) -> tuple[list[_Frame], int]:
    """Parse concatenated frames; returns (frames, valid_byte_count).

    An incomplete trailing frame (short header or short payload) is a
    crash artifact: scanning stops and the valid byte count excludes it,
    so the next append can truncate it away.  A checksum or magic
    mismatch on a *complete* frame is :class:`CheckpointCorruption`.
    """
    frames: list[_Frame] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            break  # torn tail: header itself is incomplete
        magic, sequence, length, crc = _HEADER.unpack_from(data, offset)
        if magic != _MAGIC:
            raise CheckpointCorruption(
                f"{where}: bad frame magic at byte {offset}"
            )
        payload_start = offset + _HEADER.size
        payload_end = payload_start + length
        if payload_end > total:
            break  # torn tail: payload was still being written
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            raise CheckpointCorruption(
                f"{where}: checksum mismatch in frame at byte {offset}"
            )
        accumulator = pickle.loads(payload)
        if not isinstance(accumulator, PathAccumulator):
            raise CheckpointCorruption(
                f"{where}: frame at byte {offset} is not an accumulator"
            )
        frames.append(_Frame(sequence, accumulator))
        offset = payload_end
    return frames, offset


@dataclass
class CheckpointInfo:
    """What a checkpoint directory currently holds."""

    sequence: int
    document_count: int
    snapshot_documents: int
    snapshot_bytes: int
    delta_frames: int
    delta_bytes: int

    def rows(self) -> list[list[str]]:
        """Report-table rows (CLI display)."""
        return [
            ["documents", str(self.document_count)],
            ["sequence", str(self.sequence)],
            ["snapshot documents", str(self.snapshot_documents)],
            ["snapshot bytes", str(self.snapshot_bytes)],
            ["delta frames", str(self.delta_frames)],
            ["delta bytes", str(self.delta_bytes)],
        ]


class AccumulatorCheckpoint:
    """Durable snapshot + append-only delta log for an accumulator.

    :meth:`maybe_compact` folds the log into the snapshot once
    ``delta_bytes >= compaction_ratio * snapshot_bytes`` ("deltas
    outweigh the snapshot").
    """

    compaction_ratio = 1.0

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._live: PathAccumulator | None = None
        self._sequence = 0  # highest sequence on disk (snapshot or delta)
        self._snapshot_documents = 0
        # (file size, valid bytes, frame count) of the delta log as this
        # instance last read or wrote it; None until it has done either.
        self._log_seen: tuple[int, int, int] | None = None

    # -- paths ---------------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME

    @property
    def delta_log_path(self) -> Path:
        return self.directory / DELTA_LOG_NAME

    def exists(self) -> bool:
        """True when the directory holds any checkpoint state."""
        return self.snapshot_path.exists() or self.delta_log_path.exists()

    # -- loading -------------------------------------------------------------

    def load(self) -> PathAccumulator:
        """Restore the accumulated state: snapshot + undigested deltas.

        The result is cached as the live accumulator that subsequent
        :meth:`append_delta` calls keep up to date, so repeated loads
        don't re-read the directory.
        """
        if self._live is not None:
            return self._live
        accumulator = PathAccumulator()
        watermark = 0
        if self.snapshot_path.exists():
            frames, valid = _scan_frames(
                self.snapshot_path.read_bytes(), where=str(self.snapshot_path)
            )
            if not frames:
                raise CheckpointCorruption(
                    f"{self.snapshot_path}: snapshot holds no complete frame"
                )
            snapshot = frames[0]
            watermark = snapshot.sequence
            accumulator = snapshot.accumulator
        self._snapshot_documents = accumulator.document_count
        self._sequence = watermark
        if self.delta_log_path.exists():
            for frame in self._scan_log():
                # Frames at or below the watermark are already folded
                # into the snapshot (a crash interrupted compaction
                # between snapshot commit and log truncation).
                if frame.sequence > watermark:
                    accumulator.update(frame.accumulator)
                    self._sequence = frame.sequence
        self._live = accumulator
        return accumulator

    # -- writing -------------------------------------------------------------

    def commit_snapshot(
        self, accumulator: PathAccumulator, *, sequence: int | None = None
    ) -> None:
        """Atomically replace the snapshot with ``accumulator``.

        After the rename commits, the delta log is truncated; if the
        process dies in between, load skips the stale frames via the
        snapshot's sequence watermark, so the truncation is safe to run
        lazily at any later point.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if sequence is None:
            sequence = self._sequence
        atomic_replace(self.snapshot_path, _encode_frame(sequence, accumulator))
        fsync_write(self.delta_log_path, b"")
        self._log_seen = (0, 0, 0)
        self._live = accumulator
        self._sequence = sequence
        self._snapshot_documents = accumulator.document_count

    def append_delta(self, delta: PathAccumulator) -> int:
        """Durably append one delta; returns its sequence number.

        Any torn tail left by an earlier crash is truncated away first
        (load already ignores it, but appending after it would orphan
        the new frame).
        """
        accumulated = self.load()  # establishes _sequence and truncation point
        self.directory.mkdir(parents=True, exist_ok=True)
        valid_bytes, frames = self._delta_log_extent()
        self._sequence += 1
        frame = _encode_frame(self._sequence, delta)
        with open(self.delta_log_path, "ab") as handle:
            if handle.tell() > valid_bytes:
                handle.truncate(valid_bytes)
                handle.seek(valid_bytes)
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        end = valid_bytes + len(frame)
        self._log_seen = (end, end, frames + 1)
        if accumulated is not delta:
            accumulated.update(delta)
        return self._sequence

    def maybe_compact(self) -> bool:
        """Fold the delta log into the snapshot when it has outgrown it.

        Returns True when a compaction ran.
        """
        info = self.info()
        if info.delta_frames == 0:
            return False
        threshold = self.compaction_ratio * max(info.snapshot_bytes, 1)
        if info.delta_bytes < threshold:
            return False
        self.commit_snapshot(self.load(), sequence=self._sequence)
        return True

    # -- inspection ----------------------------------------------------------

    def info(self) -> CheckpointInfo:
        """Sizes and counts of the on-disk state (live state loaded)."""
        accumulated = self.load()
        snapshot_bytes = (
            self.snapshot_path.stat().st_size if self.snapshot_path.exists() else 0
        )
        delta_bytes, delta_frames = self._delta_log_extent()
        return CheckpointInfo(
            sequence=self._sequence,
            document_count=accumulated.document_count,
            snapshot_documents=self._snapshot_documents,
            snapshot_bytes=snapshot_bytes,
            delta_frames=delta_frames,
            delta_bytes=delta_bytes,
        )

    def _delta_log_extent(self) -> tuple[int, int]:
        """``(valid bytes, frame count)`` of the delta log.

        While the log's size is the one this instance last read or wrote,
        that visit's figures stand, so a fold neither re-reads nor
        decodes the log.  Any other size (a torn tail, another writer)
        falls back to a full scan.
        """
        try:
            size = self.delta_log_path.stat().st_size
        except FileNotFoundError:
            return 0, 0
        if self._log_seen is None or self._log_seen[0] != size:
            self._scan_log()
        _, valid, frames = self._log_seen
        return valid, frames

    def _scan_log(self) -> list[_Frame]:
        """Read and decode the whole delta log, remembering its extent."""
        data = self.delta_log_path.read_bytes()
        frames, valid = _scan_frames(data, where=str(self.delta_log_path))
        deltas = sum(1 for frame in frames if frame.sequence > 0)
        self._log_seen = (len(data), valid, deltas)
        return frames


# -- the online discovery driver ----------------------------------------------


@dataclass
class FoldOutcome:
    """What one :meth:`EvolvingSchema.fold` did."""

    documents_folded: int
    total_documents: int
    version: int
    bumped: bool
    derived: bool
    diff: SchemaDiff | None = None
    dtd: DTD | None = None
    compacted: bool = False

    def summary(self) -> str:
        """One-line human-readable outcome."""
        if not self.derived:
            return (
                f"folded {self.documents_folded} documents "
                f"({self.total_documents} total); no schema derivable yet"
            )
        verb = (
            f"version bumped to {self.version}"
            if self.bumped
            else f"version unchanged at {self.version}"
        )
        delta = f" ({self.diff.summary()})" if self.diff is not None else ""
        return (
            f"folded {self.documents_folded} documents "
            f"({self.total_documents} total); {verb}{delta}"
        )


class EvolvingSchema:
    """Durable online schema discovery over an unbounded stream.

    A state directory holds an :class:`AccumulatorCheckpoint`, the
    current schema version with its rendered DTD (``current.dtd`` plus
    one ``dtds/vNNNN.dtd`` per version for audit/rollback), and the
    mining thresholds, so folds from separate processes continue one
    coherent evolution.  Thresholds are fixed at ``init`` time and
    re-read from the state file afterwards -- changing them would make
    version bumps meaningless.

    ``registry`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets
    fold/document/version-bump counters and a schema-version gauge.
    """

    def __init__(
        self,
        directory: str | Path,
        kb: "KnowledgeBase",
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        optional_threshold: float | None = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.kb = kb
        self.registry = registry
        self.checkpoint = AccumulatorCheckpoint(self.directory)
        self.version = 0
        self.sup_threshold = sup_threshold
        self.ratio_threshold = ratio_threshold
        self.optional_threshold = optional_threshold
        self._dtd_text = ""
        self._root_name = ""
        self._schema_supports: dict[LabelPath, float] = {}
        self._history: list[dict] = []
        if self.state_path.exists():
            self._load_state()

    # -- state file ----------------------------------------------------------

    @property
    def state_path(self) -> Path:
        return self.directory / STATE_NAME

    @property
    def current_dtd_path(self) -> Path:
        return self.directory / CURRENT_DTD_NAME

    def exists(self) -> bool:
        return self.state_path.exists()

    def _load_state(self) -> None:
        state = json.loads(self.state_path.read_text(encoding="utf-8"))
        if state.get("format") != STATE_FORMAT:
            raise ValueError(
                f"unrecognized evolution state format in {self.state_path}"
            )
        self.version = state["version"]
        thresholds = state["thresholds"]
        self.sup_threshold = thresholds["sup"]
        self.ratio_threshold = thresholds["ratio"]
        self.optional_threshold = thresholds["optional"]
        self._dtd_text = state.get("dtd", "")
        self._root_name = state.get("root_name", "")
        self._schema_supports = {
            tuple(entry[:-1]): entry[-1]
            for entry in state.get("schema_paths", [])
        }
        self._history = state.get("history", [])

    def save_state(self) -> None:
        """Atomically persist version, thresholds, schema, and history."""
        state = {
            "format": STATE_FORMAT,
            "version": self.version,
            "thresholds": {
                "sup": self.sup_threshold,
                "ratio": self.ratio_threshold,
                "optional": self.optional_threshold,
            },
            "dtd": self._dtd_text,
            "root_name": self._root_name,
            "schema_paths": [
                [*path, support]
                for path, support in sorted(self._schema_supports.items())
            ],
            "history": self._history,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_replace(
            self.state_path,
            (json.dumps(state, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        if self._dtd_text:
            atomic_replace(
                self.current_dtd_path, (self._dtd_text + "\n").encode("utf-8")
            )

    # -- current schema ------------------------------------------------------

    @property
    def dtd(self) -> DTD | None:
        """The current version's DTD (None before the first derivation)."""
        if not self._dtd_text:
            return None
        return DTD.parse(self._dtd_text, root_name=self._root_name or None)

    @property
    def dtd_text(self) -> str:
        return self._dtd_text

    @property
    def history(self) -> list[dict]:
        """One record per version bump (oldest first)."""
        return list(self._history)

    def total_documents(self) -> int:
        return self.checkpoint.load().document_count

    def version_dtd_path(self, version: int) -> Path:
        return self.directory / DTD_DIR_NAME / f"v{version:04d}.dtd"

    # -- folding -------------------------------------------------------------

    def fold(self, delta: PathAccumulator) -> FoldOutcome:
        """Fold newly converted documents' statistics in and re-derive.

        The delta is durably appended *before* re-derivation, so a crash
        between the two leaves the statistics safe and the next fold
        simply re-derives over them.  The schema version bumps only when
        the derived schema really changed: the frequent path set moved
        (``diff.is_identical`` is false) or the rendered DTD text
        differs (repetition/optionality flips must re-conform stored
        documents even when the path set is stable).  The state file and
        ``current.dtd`` are rewritten only on a bump (or when the state
        file is missing), so a fold that changes nothing costs one
        fsync'd delta append.
        """
        self.checkpoint.append_delta(delta)
        accumulated = self.checkpoint.load()
        outcome = FoldOutcome(
            documents_folded=delta.document_count,
            total_documents=accumulated.document_count,
            version=self.version,
            bumped=False,
            derived=False,
        )
        discovery = discover_schema(
            accumulated,
            self.kb,
            sup_threshold=self.sup_threshold,
            ratio_threshold=self.ratio_threshold,
            optional_threshold=self.optional_threshold,
        )
        if discovery is not None:
            dtd = discovery.dtd
            outcome.derived = True
            outcome.dtd = dtd
            new_supports = {
                path: discovery.frequent.support(path)
                for path in discovery.schema.paths()
            }
            diff = diff_path_supports(self._schema_supports, new_supports)
            outcome.diff = diff
            dtd_text = dtd.render()
            if not self._dtd_text or not diff.is_identical or dtd_text != self._dtd_text:
                self.version += 1
                self._dtd_text = dtd_text
                self._root_name = dtd.root_name
                self._schema_supports = new_supports
                self._history.append(
                    {
                        "version": self.version,
                        "documents": accumulated.document_count,
                        "paths_added": len(diff.added),
                        "paths_removed": len(diff.removed),
                        "summary": diff.summary(),
                    }
                )
                version_path = self.version_dtd_path(self.version)
                version_path.parent.mkdir(parents=True, exist_ok=True)
                atomic_replace(version_path, (dtd_text + "\n").encode("utf-8"))
                outcome.bumped = True
            outcome.version = self.version
        outcome.compacted = self.checkpoint.maybe_compact()
        if outcome.bumped or not self.state_path.exists():
            self.save_state()
        self._record_metrics(outcome)
        return outcome

    def _record_metrics(self, outcome: FoldOutcome) -> None:
        if self.registry is None:
            return
        self.registry.counter(EVOLUTION_FOLDS).inc()
        self.registry.counter(EVOLUTION_DOCUMENTS).inc(outcome.documents_folded)
        if outcome.bumped:
            self.registry.counter(VERSION_BUMPS).inc()
        self.registry.gauge(SCHEMA_VERSION).set(self.version)

    # -- reporting -----------------------------------------------------------

    def status_rows(self) -> list[list[str]]:
        """Report-table rows for ``repro-web evolve status``."""
        info = self.checkpoint.info()
        return [
            ["schema version", str(self.version)],
            ["thresholds", (
                f"sup={self.sup_threshold} ratio={self.ratio_threshold} "
                f"optional={self.optional_threshold}"
            )],
            ["version bumps", str(len(self._history))],
            *info.rows(),
        ]
