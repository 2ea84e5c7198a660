"""The persistent run ledger and its regression detector.

Every engine run can append one self-describing JSON record (``kind:
"run"``) to an append-only JSONL **ledger**: run id, config fingerprint,
corpus size, per-stage latency quantiles (from the mergeable
:class:`~repro.obs.quantiles.QuantileDigest` the chunks ship home),
docs/sec, failure breakdown, tagger-cache hit rates, and the top-K
slowest documents with their label-path context.  ``repro-web report``
renders a record; ``repro-web runs`` lists the ledger and diffs the
latest run against its history.

The **regression detector** is one comparator used two ways:

* latest ledger record vs. the median of earlier same-configuration
  records (``repro-web runs --check``),
* any two records a caller hands it (:func:`compare_records`).

Throughput (``docs_per_second``) regresses by *dropping*; latency
quantiles (stage/document p95) regress by *rising*.  Either direction
is flagged when the relative change crosses the threshold (default
20%).

Ledger records validate against the checked-in ``runlog_schema.json``
(same dependency-free schema dialect as ``trace_schema.json``), so a
ledger written on one machine is checkable anywhere.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

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


# -- regression detection -----------------------------------------------------


@dataclass
class Regression:
    """One flagged metric change between a baseline and a current run."""

    metric: str
    baseline: float
    current: float
    change: float  # signed relative change, e.g. -0.31 = 31% drop
    direction: str  # "drop" | "rise"

    @property
    def message(self) -> str:
        verb = "dropped" if self.direction == "drop" else "rose"
        return (
            f"{self.metric} {verb} {abs(self.change):.0%}: "
            f"{self.baseline:g} -> {self.current:g}"
        )


def _relative_change(baseline: float, current: float) -> float:
    if baseline == 0:
        return 0.0
    return (current - baseline) / baseline


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def compare_records(
    current: Mapping,
    baseline: Mapping,
    *,
    threshold: float = 0.2,
    min_latency_delta: float = 0.005,
) -> list[Regression]:
    """Regressions of one run record against a baseline record.

    Flags: ``docs_per_second`` drops, and per-stage / per-document p95
    rises, beyond ``threshold`` relative change.  Stages present in only
    one record are skipped (nothing to compare).

    A p95 rise must also exceed ``min_latency_delta`` seconds in
    absolute terms: sub-millisecond stage latencies jitter by integer
    multiples run to run, and a 5x rise on a 0.2 ms stage is scheduler
    noise, not a regression worth failing CI over.
    """
    regressions: list[Regression] = []
    base_rate = float(baseline.get("docs_per_second", 0.0) or 0.0)
    cur_rate = float(current.get("docs_per_second", 0.0) or 0.0)
    if base_rate > 0:
        change = _relative_change(base_rate, cur_rate)
        if change <= -threshold:
            regressions.append(
                Regression("docs_per_second", base_rate, cur_rate, change, "drop")
            )
    base_stages = baseline.get("stage_quantiles", {}) or {}
    cur_stages = current.get("stage_quantiles", {}) or {}
    for stage in sorted(set(base_stages) & set(cur_stages)):
        base_p95 = float(base_stages[stage].get("p95", 0.0) or 0.0)
        cur_p95 = float(cur_stages[stage].get("p95", 0.0) or 0.0)
        if base_p95 <= 0:
            continue
        if cur_p95 - base_p95 < min_latency_delta:
            continue
        change = _relative_change(base_p95, cur_p95)
        if change >= threshold:
            regressions.append(
                Regression(f"{stage}.p95", base_p95, cur_p95, change, "rise")
            )
    return regressions


def baseline_of_history(
    history: Iterable[Mapping], latest: Mapping
) -> dict | None:
    """A synthetic baseline record: the per-metric median over earlier
    records comparable to ``latest`` (same config fingerprint and worker
    count -- reconfigured runs are expected to perform differently)."""
    comparable = [
        record
        for record in history
        if record is not latest
        and record.get("config_fingerprint") == latest.get("config_fingerprint")
        and record.get("workers") == latest.get("workers")
    ]
    if not comparable:
        return None
    baseline: dict = {
        "run_id": f"median-of-{len(comparable)}",
        "docs_per_second": _median(
            [float(r.get("docs_per_second", 0.0) or 0.0) for r in comparable]
        ),
        "stage_quantiles": {},
    }
    stages: set[str] = set()
    for record in comparable:
        stages.update((record.get("stage_quantiles") or {}).keys())
    for stage in stages:
        p95s = [
            float(r["stage_quantiles"][stage].get("p95", 0.0) or 0.0)
            for r in comparable
            if stage in (r.get("stage_quantiles") or {})
        ]
        if p95s:
            baseline["stage_quantiles"][stage] = {"p95": _median(p95s)}
    return baseline


def detect_history_regressions(
    records: list[dict], *, threshold: float = 0.2
) -> tuple[dict | None, list[Regression]]:
    """Diff the ledger's latest record against its comparable history.

    Returns ``(baseline, regressions)``; baseline is ``None`` (and the
    list empty) when there is no comparable history to judge against.
    """
    if not records:
        return None, []
    latest = records[-1]
    baseline = baseline_of_history(records[:-1], latest)
    if baseline is None:
        return None, []
    return baseline, compare_records(latest, baseline, threshold=threshold)
