"""The persistent run ledger.

Every engine run can append one self-describing JSON record (``kind:
"run"``) to an append-only JSONL **ledger**: run id, config fingerprint,
corpus size, per-stage latency quantiles (from the mergeable
:class:`~repro.obs.quantiles.QuantileDigest` the chunks ship home),
docs/sec, failure breakdown, tagger-cache hit rates, and the top-K
slowest documents with their label-path context.  Every schema fold can
append a ``kind: "evolution"`` record to the same ledger.
``repro-web report`` renders a record by its kind; ``repro-web runs``
lists the ledger.

The ledger is a log for an operator, not a performance record: the
benchmark in ``perfbench/`` is the only place throughput is compared
across code versions.  The record format is pinned by the contract
check ``tests/obscheck/runlog_schema.json``.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.stats import EngineStats

RUNLOG_VERSION = 1

# How many slowest documents a run record retains.
SLOWEST_KEPT = 10

# -- run records --------------------------------------------------------------


def _canonical(value: object) -> str:
    """A process-independent textual form of a config value.

    ``repr`` alone is not stable across interpreter invocations for
    unordered collections (string hash randomization reorders set and
    dict iteration), which would make two identical runs fingerprint
    differently -- so sets are sorted and mappings key-sorted first.
    """
    if isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in items
        ) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    return repr(value)


def config_fingerprint(*parts: object) -> str:
    """A short stable digest of run configuration.

    Dataclasses contribute their field dict, mappings their sorted
    items, everything else its canonical ``repr`` -- enough to tell
    "same code, same knobs" runs apart from reconfigured ones without
    serializing whole objects into the ledger.  Stable across separate
    interpreter processes (see :func:`_canonical`).
    """
    canonical: list[str] = []
    for part in parts:
        state = getattr(part, "__dict__", None)
        if isinstance(part, Mapping):
            state = dict(part)
        if isinstance(state, dict) and state:
            canonical.append(
                json.dumps(
                    {key: _canonical(value) for key, value in state.items()},
                    sort_keys=True,
                )
            )
        else:
            canonical.append(_canonical(part))
    digest = hashlib.sha256("\x1f".join(canonical).encode()).hexdigest()
    return digest[:16]


def new_run_id(*, clock=time.time) -> str:
    """A unique, chronologically sortable run id."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(clock()))
    return f"run-{stamp}-{uuid.uuid4().hex[:8]}"


def build_run_record(
    stats: "EngineStats",
    *,
    run_id: str | None = None,
    fingerprint: str = "",
    topic: str = "",
    corpus_size: int | None = None,
    timestamp: float | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """One ledger record for a finished engine run."""
    now = time.time() if timestamp is None else timestamp
    record: dict = {
        "kind": "run",
        "version": RUNLOG_VERSION,
        "run_id": run_id or new_run_id(clock=lambda: now),
        "timestamp": round(now, 3),
        "time_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "topic": topic,
        "config_fingerprint": fingerprint,
        "workers": stats.workers,
        "chunk_size": stats.chunk_size,
        "documents": stats.documents,
        "documents_failed": stats.documents_failed,
        "corpus_size": (
            corpus_size
            if corpus_size is not None
            else stats.documents + stats.documents_failed
        ),
        "wall_seconds": round(stats.wall_seconds, 6),
        "worker_seconds": round(stats.worker_seconds, 6),
        "docs_per_second": round(stats.docs_per_second, 3),
        "failures_by_stage": dict(sorted(stats.failures_by_stage.items())),
        "pool_rebuilds": stats.pool_rebuilds,
        "cache": {
            "hit_rate": round(stats.tagger_cache_hit_rate, 4),
            "events": {
                cache: dict(sorted(counters.items()))
                for cache, counters in sorted(stats.tagger_cache_events.items())
            },
        },
        "stage_quantiles": stats.stage_summaries(),
        "slowest_documents": list(stats.slowest_docs[:SLOWEST_KEPT]),
    }
    if extra:
        record.update(extra)
    return record


def build_evolution_record(
    outcome,
    *,
    run_id: str | None = None,
    topic: str = "",
    timestamp: float | None = None,
    migration: Mapping[str, object] | None = None,
    repository_version: int | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict:
    """One ledger record (``kind: "evolution"``) for a schema fold.

    ``outcome`` is a :class:`~repro.schema.evolution.FoldOutcome`;
    ``migration`` and ``repository_version`` describe what the fold did
    to a versioned repository, when one was attached.
    """
    now = time.time() if timestamp is None else timestamp
    record: dict = {
        "kind": "evolution",
        "version": RUNLOG_VERSION,
        "run_id": run_id or new_run_id(clock=lambda: now),
        "timestamp": round(now, 3),
        "time_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "topic": topic,
        "documents_folded": outcome.documents_folded,
        "total_documents": outcome.total_documents,
        "schema_version": outcome.version,
        "bumped": outcome.bumped,
        "derived": outcome.derived,
        "compacted": outcome.compacted,
        "paths_added": len(outcome.diff.added) if outcome.diff else 0,
        "paths_removed": len(outcome.diff.removed) if outcome.diff else 0,
        "migration": dict(migration) if migration else None,
        "repository_version": repository_version,
    }
    if extra:
        record.update(extra)
    return record


class RunLedger:
    """Append-only JSONL ledger of run records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict) -> dict:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def records(self) -> list[dict]:
        """All parseable records, oldest first (blank lines skipped)."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def latest(self) -> dict | None:
        records = self.records()
        return records[-1] if records else None

    def find(self, run_id: str) -> dict | None:
        for record in self.records():
            if record.get("run_id") == run_id:
                return record
        return None

    def __len__(self) -> int:
        return len(self.records())
