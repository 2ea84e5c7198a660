"""Engine instrumentation, built on the metrics registry.

:class:`ChunkStats` is the picklable wire record one worker reports for
one chunk of documents.  :class:`EngineStats` is the corpus-level
aggregate the engine, the ``convert-corpus`` CLI, and the Figure 5
scaling harness all read.  It is a *view* over a
:class:`repro.obs.metrics.MetricsRegistry`: every counter it absorbs
lands in named metrics (``repro_engine_documents_total``, a
chunk-seconds histogram, ...), so one engine run exports directly as
JSON or Prometheus text and ``repro-web stats`` can re-render a saved
snapshot as these same tables.

Stage time has one channel.  Each document's
:attr:`repro.convert.pipeline.ConversionResult.rule_seconds` and its
end-to-end latency are observed into the chunk's per-stage digests
(:attr:`ChunkStats.stage_digests`); :meth:`EngineStats.absorb` merges
those into the ``repro_stage_seconds{stage=...}`` histograms, and every
surface -- the per-rule seconds (each digest's total), the quantile
tables, the run ledger, ``/metrics`` and a saved snapshot -- reads them
there.  "Where does the time go" is answerable per stage without a
profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.obs.metrics import Distribution, MetricsRegistry
from repro.obs.quantiles import QuantileDigest, merge_digest_maps

if TYPE_CHECKING:  # pragma: no cover
    from repro.convert.errors import DocumentFailure

# Metric names of the engine's registry schema.
DOCUMENTS = "repro_engine_documents_total"
# Documents dropped by a non-fail-fast error policy, labeled
# {stage="parse"|"tokenize"|...|"worker"} by the pipeline stage (or
# worker crash) that claimed them.
DOCUMENTS_FAILED = "repro_engine_documents_failed_total"
# Worker-pool rebuilds performed by BrokenProcessPool recovery.
POOL_REBUILDS = "repro_engine_pool_rebuilds_total"
CHUNKS = "repro_engine_chunks_total"
TOKENS_CREATED = "repro_engine_tokens_created_total"
GROUPS_CREATED = "repro_engine_groups_created_total"
NODES_ELIMINATED = "repro_engine_nodes_eliminated_total"
INPUT_NODES = "repro_engine_input_nodes_total"
CONCEPT_NODES = "repro_engine_concept_nodes_total"
WORKER_SECONDS = "repro_engine_worker_seconds_total"
# In-worker seconds spent converting documents (the per-document loop
# bodies alone); the gap to WORKER_SECONDS is per-chunk fixed overhead
# (pool scheduling, cache-counter snapshots, payload assembly).
DOC_SECONDS = "repro_engine_doc_seconds_total"
WALL_SECONDS = "repro_engine_wall_seconds"
MAX_QUEUE_DEPTH = "repro_engine_max_queue_depth"
WORKERS = "repro_engine_workers"
CHUNK_SIZE = "repro_engine_chunk_size"
# Per-stage latency histograms, labeled {stage="parse"|...|"document"}.
STAGE_SECONDS = "repro_stage_seconds"
CHUNK_SECONDS_HISTOGRAM = "repro_engine_chunk_seconds"
# Token-decision cache traffic from the fast tagger, labeled
# {cache="synonym"|"bayes", event="hits"|"misses"|"evictions"}.
TAGGER_CACHE_EVENTS = "repro_tagger_cache_events_total"

# Below this wall-clock resolution, documents/wall_seconds stops being a
# throughput and starts being timer noise (sub-millisecond runs round to
# absurd docs/sec figures); the divisor is floored here instead.
MIN_WALL_SECONDS = 1e-3

# Stage label for per-document end-to-end latency (parse through path
# extraction), alongside the pipeline stages from rule_seconds.
DOCUMENT_STAGE = "document"

# Stage order for quantile report tables: pipeline stages first, the
# end-to-end document row last.
STAGE_ORDER = (
    "parse",
    "tidy",
    "tokenize",
    "instance",
    "group",
    "consolidate",
    "root",
    DOCUMENT_STAGE,
)

# How many slowest-document records each chunk ships home (the parent
# keeps the global top K of the per-chunk top Ks).
SLOWEST_PER_CHUNK = 10


def merge_slowest(
    held: list[dict], other: list[dict], *, keep: int = SLOWEST_PER_CHUNK
) -> list[dict]:
    """Top-``keep`` slowest documents across two top-K lists, slowest
    first, index-tiebroken so merging is order-insensitive."""
    combined = sorted(
        held + list(other),
        key=lambda entry: (-entry.get("seconds", 0.0), entry.get("index", 0)),
    )
    return combined[:keep]


@dataclass
class ChunkStats:
    """Per-chunk counters and timings, as measured inside the worker.

    This is the wire format crossing the process boundary (plain
    picklable dataclass); the parent folds it into the registry-backed
    :class:`EngineStats` with :meth:`EngineStats.absorb`.
    """

    index: int
    documents: int
    # Documents a skip/quarantine policy dropped in this chunk, total
    # and broken down by the pipeline stage that failed (``"worker"``
    # for documents whose conversion killed the worker process).
    documents_failed: int = 0
    failures_by_stage: dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    # Seconds spent inside the per-document conversion loop (failed
    # documents included); ``seconds - doc_seconds`` is this chunk's
    # fixed overhead, which the adaptive chunk sizer amortizes away.
    doc_seconds: float = 0.0
    tokens_created: int = 0
    groups_created: int = 0
    nodes_eliminated: int = 0
    input_nodes: int = 0
    concept_nodes: int = 0
    # Token-decision cache counter growth during this chunk, per cache
    # ({"synonym": {"hits": ..., "misses": ..., "evictions": ...}});
    # empty when the fast tagger or its memoization is off.
    tagger_cache: dict[str, dict[str, int]] = field(default_factory=dict)
    # Per-stage latency digests ({"parse": ..., "document": ...}): one
    # observation per surviving document per stage, in a mergeable
    # QuantileDigest whose compact tuple state rides the pickle.  The
    # chunk's only record of stage time: per-stage sums are the totals.
    stage_digests: dict[str, QuantileDigest] = field(default_factory=dict)
    # This chunk's top-K slowest documents, slowest first, each with its
    # label-path context ({"doc", "index", "seconds", "root",
    # "label_paths", "input_nodes", "concept_nodes"}).
    slowest_docs: list[dict] = field(default_factory=list)

    def fold(self, other: "ChunkStats") -> None:
        """Accumulate another chunk record into this one (used when
        crash recovery stitches bisection pieces back into the original
        chunk; ``index`` keeps this record's value)."""
        self.documents += other.documents
        self.documents_failed += other.documents_failed
        for stage, count in other.failures_by_stage.items():
            self.failures_by_stage[stage] = (
                self.failures_by_stage.get(stage, 0) + count
            )
        self.seconds += other.seconds
        self.doc_seconds += other.doc_seconds
        self.tokens_created += other.tokens_created
        self.groups_created += other.groups_created
        self.nodes_eliminated += other.nodes_eliminated
        self.input_nodes += other.input_nodes
        self.concept_nodes += other.concept_nodes
        for cache_name, counters in other.tagger_cache.items():
            held = self.tagger_cache.setdefault(cache_name, {})
            for event, value in counters.items():
                held[event] = held.get(event, 0) + value
        merge_digest_maps(self.stage_digests, other.stage_digests)
        self.slowest_docs = merge_slowest(self.slowest_docs, other.slowest_docs)

    def observe_document(
        self,
        doc_id: str,
        index: int,
        seconds: float,
        stage_seconds: Mapping[str, float],
        *,
        context: dict | None = None,
    ) -> None:
        """Fold one surviving document's stage and end-to-end timings
        into the chunk digests and its slowest-documents candidates."""
        for stage, elapsed in stage_seconds.items():
            digest = self.stage_digests.get(stage)
            if digest is None:
                digest = self.stage_digests[stage] = QuantileDigest()
            digest.observe(elapsed)
        digest = self.stage_digests.get(DOCUMENT_STAGE)
        if digest is None:
            digest = self.stage_digests[DOCUMENT_STAGE] = QuantileDigest()
        digest.observe(seconds)
        entry = {"doc": doc_id, "index": index, "seconds": round(seconds, 6)}
        if context:
            entry.update(context)
        self.slowest_docs.append(entry)
        if len(self.slowest_docs) > 4 * SLOWEST_PER_CHUNK:
            self.slowest_docs = merge_slowest(self.slowest_docs, [])

    def finalize_slowest(self) -> None:
        """Trim the slowest-documents candidates to the shipped top K."""
        self.slowest_docs = merge_slowest(self.slowest_docs, [])

    # -- wire form ------------------------------------------------------------
    #
    # Every chunk crosses the process boundary as one of these, so the
    # pickle gets the same treatment PathAccumulator received: a
    # version-tagged tuple instead of dataclass dict state (no
    # per-instance field-name strings), with the slowest-document dicts
    # -- whose keys repeat across every row -- packed as one key tuple
    # plus value rows.  The digests already carry their own compact
    # tuple state.  ChunkStats only travels between processes of one
    # version and is never persisted, so there is no older form to read.

    _WIRE_VERSION = 2

    def __getstate__(self):
        slowest = self.slowest_docs
        packed: tuple | list
        if slowest:
            keys = tuple(slowest[0])
            if all(tuple(entry) == keys for entry in slowest):
                packed = (keys, [tuple(entry.values()) for entry in slowest])
            else:
                packed = list(slowest)
        else:
            packed = ((), [])
        return (
            ChunkStats._WIRE_VERSION,
            self.index,
            self.documents,
            self.documents_failed,
            self.failures_by_stage,
            self.seconds,
            self.doc_seconds,
            (
                self.tokens_created,
                self.groups_created,
                self.nodes_eliminated,
                self.input_nodes,
                self.concept_nodes,
            ),
            self.tagger_cache,
            self.stage_digests,
            packed,
        )

    def __setstate__(self, state) -> None:
        if state[0] != ChunkStats._WIRE_VERSION:
            raise ValueError(f"unknown ChunkStats wire version: {state[0]!r}")
        (
            _version,
            self.index,
            self.documents,
            self.documents_failed,
            self.failures_by_stage,
            self.seconds,
            self.doc_seconds,
            counters,
            self.tagger_cache,
            self.stage_digests,
            packed,
        ) = state
        (
            self.tokens_created,
            self.groups_created,
            self.nodes_eliminated,
            self.input_nodes,
            self.concept_nodes,
        ) = counters
        if isinstance(packed, tuple):
            keys, rows = packed
            self.slowest_docs = [dict(zip(keys, row)) for row in rows]
        else:
            self.slowest_docs = list(packed)


def stage_digests_from_registry(
    registry: MetricsRegistry,
) -> dict[str, QuantileDigest]:
    """``{stage: digest}`` of the ``repro_stage_seconds`` histograms."""
    return {
        metric.label_dict().get("stage", "?"): metric.digest
        for metric in registry.find(STAGE_SECONDS)
        if isinstance(metric, Distribution)
    }


def stage_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Seconds per pipeline stage (each stage digest's total), without
    the end-to-end ``document`` row."""
    return {
        stage: digest.total
        for stage, digest in stage_digests_from_registry(registry).items()
        if stage != DOCUMENT_STAGE
    }


def rule_rows_from_registry(registry: MetricsRegistry) -> list[list[str]]:
    """(rule, seconds, share) rows from the ``repro_stage_seconds``
    totals, slowest stage first -- shared by the engine stats table,
    the serial ``html2xml`` summary, and ``repro-web stats``."""
    timings = stage_totals(registry)
    total = sum(timings.values())
    rows = []
    for rule, seconds in sorted(timings.items(), key=lambda item: -item[1]):
        share = seconds / total if total else 0.0
        rows.append([rule, f"{seconds:.3f}", f"{share:.0%}"])
    return rows


def stage_quantile_rows(summaries: Mapping[str, Mapping]) -> list[list[str]]:
    """(stage, count, p50/p95/p99 ms) rows from ``{stage: summary}``
    (:meth:`QuantileDigest.summary` dicts, live or from a run ledger),
    pipeline order, end-to-end ``document`` row last."""
    ordered = [stage for stage in STAGE_ORDER if stage in summaries]
    ordered += sorted(set(summaries) - set(STAGE_ORDER))
    return [
        [stage, str(summaries[stage].get("count", ""))]
        + [
            f"{float(summaries[stage].get(q, 0.0)) * 1e3:.2f}"
            for q in ("p50", "p95", "p99")
        ]
        for stage in ordered
    ]


class EngineStats:
    """Corpus-level instrumentation of one engine run (registry view).

    ``worker_seconds`` is the sum of in-worker chunk times; with ``n``
    busy workers it exceeds ``wall_seconds`` by up to a factor of ``n``
    (that gap *is* the parallel speedup).  ``max_queue_depth`` is the
    largest number of submitted-but-unmerged chunks observed -- it is
    bounded by the engine's backpressure window, which is what keeps
    memory flat on corpora far larger than RAM.

    All counters live in :attr:`registry`; the attribute API
    (``stats.documents`` etc.) is preserved as properties over it.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: int = 1,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.per_chunk: list[ChunkStats] = []
        # Structured failure records collected by the engine's merge loop
        # (parent-side only; counters below persist through the registry,
        # this detail list does not).
        self.failures: list["DocumentFailure"] = []
        # Slowest documents merged from the chunks' top Ks (parent-side;
        # persisted via the run ledger rather than the registry).
        self.slowest_docs: list[dict] = []
        self.workers = workers
        self.chunk_size = chunk_size

    # -- registry-backed attributes ------------------------------------------

    def _count(self, name: str) -> int:
        return int(self.registry.value(name))

    @property
    def workers(self) -> int:
        return int(self.registry.value(WORKERS, default=1))

    @workers.setter
    def workers(self, value: int) -> None:
        self.registry.gauge(WORKERS).set(value)

    @property
    def chunk_size(self) -> int:
        return int(self.registry.value(CHUNK_SIZE, default=1))

    @chunk_size.setter
    def chunk_size(self, value: int) -> None:
        self.registry.gauge(CHUNK_SIZE).set(value)

    @property
    def documents(self) -> int:
        return self._count(DOCUMENTS)

    @property
    def chunks(self) -> int:
        return self._count(CHUNKS)

    @property
    def documents_failed(self) -> int:
        """Documents dropped by the error policy, across all stages."""
        return sum(
            int(metric.value) for metric in self.registry.find(DOCUMENTS_FAILED)
        )

    @property
    def failures_by_stage(self) -> dict[str, int]:
        """Dropped-document counts keyed by failing pipeline stage."""
        return {
            metric.label_dict().get("stage", "?"): int(metric.value)  # type: ignore[union-attr]
            for metric in self.registry.find(DOCUMENTS_FAILED)
        }

    @property
    def pool_rebuilds(self) -> int:
        """Worker-pool rebuilds performed by crash recovery."""
        return self._count(POOL_REBUILDS)

    def record_pool_rebuild(self) -> None:
        self.registry.counter(POOL_REBUILDS).inc()

    @property
    def wall_seconds(self) -> float:
        return self.registry.value(WALL_SECONDS)

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self.registry.gauge(WALL_SECONDS).set(value)

    @property
    def worker_seconds(self) -> float:
        return self.registry.value(WORKER_SECONDS)

    @property
    def doc_seconds(self) -> float:
        """In-worker seconds spent in the per-document loop bodies."""
        return self.registry.value(DOC_SECONDS)

    @property
    def max_queue_depth(self) -> int:
        return self._count(MAX_QUEUE_DEPTH)

    @max_queue_depth.setter
    def max_queue_depth(self, value: int) -> None:
        # A high-water mark: registered with merge="max" so registries
        # merged across chunk workers keep the corpus-wide maximum.
        self.registry.gauge(MAX_QUEUE_DEPTH, merge="max").set(value)

    @property
    def tokens_created(self) -> int:
        return self._count(TOKENS_CREATED)

    @property
    def groups_created(self) -> int:
        return self._count(GROUPS_CREATED)

    @property
    def nodes_eliminated(self) -> int:
        return self._count(NODES_ELIMINATED)

    @property
    def input_nodes(self) -> int:
        return self._count(INPUT_NODES)

    @property
    def concept_nodes(self) -> int:
        return self._count(CONCEPT_NODES)

    @property
    def rule_seconds(self) -> dict[str, float]:
        """Per-stage seconds summed over workers: each pipeline stage's
        digest total, from the registry."""
        return stage_totals(self.registry)

    @property
    def stage_digests(self) -> dict[str, QuantileDigest]:
        """Per-stage latency digests (``document`` included), from the
        registry -- so a saved snapshot carries them too."""
        return stage_digests_from_registry(self.registry)

    def stage_summaries(self) -> dict[str, dict]:
        """``{stage: digest summary}`` of every non-empty stage digest --
        the run ledger's ``stage_quantiles`` and the quantile table's
        input."""
        return {
            stage: digest.summary()
            for stage, digest in self.stage_digests.items()
            if digest.count
        }

    @property
    def tagger_cache_events(self) -> dict[str, dict[str, int]]:
        """Per-cache hit/miss/eviction totals, from the registry."""
        events: dict[str, dict[str, int]] = {}
        for metric in self.registry.find(TAGGER_CACHE_EVENTS):
            labels = metric.label_dict()
            cache_events = events.setdefault(labels.get("cache", "?"), {})
            cache_events[labels.get("event", "?")] = int(metric.value)  # type: ignore[union-attr]
        return events

    @property
    def tagger_cache_hit_rate(self) -> float:
        """Hits over lookups across all token-decision caches."""
        hits = 0
        lookups = 0
        for counters in self.tagger_cache_events.values():
            hits += counters.get("hits", 0)
            lookups += counters.get("hits", 0) + counters.get("misses", 0)
        return hits / lookups if lookups else 0.0

    @property
    def docs_per_second(self) -> float:
        """End-to-end corpus throughput.

        The wall clock is floored at :data:`MIN_WALL_SECONDS`: a
        sub-millisecond measurement is timer noise and would otherwise
        round a tiny corpus into a six-figure docs/sec headline.
        """
        if self.wall_seconds <= 0.0 or self.documents == 0:
            return 0.0
        return self.documents / max(self.wall_seconds, MIN_WALL_SECONDS)

    @property
    def docs_per_second_per_worker(self) -> float:
        """Scaling efficiency: corpus throughput per configured worker.

        Flat as workers are added means linear scaling; falling means
        the added workers are buying coordination overhead, not
        throughput (the regression the scaling benchmark gate watches).
        """
        workers = self.workers
        if workers <= 0:
            return 0.0
        return self.docs_per_second / workers

    @property
    def chunk_overhead_fraction(self) -> float:
        """Share of in-worker time *not* spent converting documents.

        ``worker_seconds`` covers whole chunks; ``doc_seconds`` only the
        per-document loop bodies.  The difference is per-chunk fixed
        cost (scheduling, cache-counter snapshots, payload assembly) --
        the quantity adaptive chunk sizing drives down by growing
        chunks until it is amortized.
        """
        worker_seconds = self.worker_seconds
        if worker_seconds <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.doc_seconds / worker_seconds)

    # -- aggregation ---------------------------------------------------------

    def absorb(self, chunk: ChunkStats) -> None:
        """Fold one chunk's counters into the registry."""
        registry = self.registry
        registry.counter(CHUNKS).inc()
        registry.counter(DOCUMENTS).inc(chunk.documents)
        for stage, count in chunk.failures_by_stage.items():
            registry.counter(DOCUMENTS_FAILED, stage=stage).inc(count)
        registry.counter(WORKER_SECONDS).inc(chunk.seconds)
        registry.counter(DOC_SECONDS).inc(chunk.doc_seconds)
        registry.counter(TOKENS_CREATED).inc(chunk.tokens_created)
        registry.counter(GROUPS_CREATED).inc(chunk.groups_created)
        registry.counter(NODES_ELIMINATED).inc(chunk.nodes_eliminated)
        registry.counter(INPUT_NODES).inc(chunk.input_nodes)
        registry.counter(CONCEPT_NODES).inc(chunk.concept_nodes)
        for cache_name, counters in chunk.tagger_cache.items():
            for event, value in counters.items():
                registry.counter(
                    TAGGER_CACHE_EVENTS, cache=cache_name, event=event
                ).inc(value)
        registry.histogram(CHUNK_SECONDS_HISTOGRAM).observe(chunk.seconds)
        for stage, digest in chunk.stage_digests.items():
            registry.histogram(STAGE_SECONDS, stage=stage).digest.update(digest)
        self.slowest_docs = merge_slowest(self.slowest_docs, chunk.slowest_docs)
        self.per_chunk.append(chunk)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "EngineStats":
        """View a saved registry snapshot (``repro-web stats``) as engine
        statistics; ``per_chunk`` detail is not persisted."""
        stats = cls.__new__(cls)
        stats.registry = registry
        stats.per_chunk = []
        stats.failures = []
        stats.slowest_docs = []
        return stats

    # -- report tables -------------------------------------------------------

    def summary_rows(self) -> list[list[str]]:
        """(name, value) rows for the CLI report table."""
        rows = [
            ["documents", str(self.documents)],
            ["chunks", f"{self.chunks} x {self.chunk_size}"],
        ]
        # Adaptive chunk sizing: when the observed chunk sizes vary,
        # show the range next to the nominal "chunks" row.  The final
        # chunk is excluded -- it is a partial tail under static sizing
        # too, not evidence of adaptation.
        ordered = sorted(self.per_chunk, key=lambda c: c.index)[:-1]
        sizes = [c.documents + c.documents_failed for c in ordered]
        if sizes and min(sizes) != max(sizes):
            rows.append(["chunk sizes", f"{min(sizes)}..{max(sizes)}"])
        rows += [
            ["workers", str(self.workers)],
            ["wall seconds", f"{self.wall_seconds:.2f}"],
            ["worker seconds", f"{self.worker_seconds:.2f}"],
            ["docs/sec", f"{self.docs_per_second:.1f}"],
            ["docs/sec/worker", f"{self.docs_per_second_per_worker:.1f}"],
            ["chunk overhead", f"{self.chunk_overhead_fraction:.0%}"],
            ["max queue depth", str(self.max_queue_depth)],
            ["input nodes", str(self.input_nodes)],
            ["tokens created", str(self.tokens_created)],
            ["groups created", str(self.groups_created)],
            ["nodes eliminated", str(self.nodes_eliminated)],
            ["concept nodes", str(self.concept_nodes)],
        ]
        events = self.tagger_cache_events
        if events:
            hits = sum(c.get("hits", 0) for c in events.values())
            lookups = hits + sum(c.get("misses", 0) for c in events.values())
            rows.append(
                [
                    "tagger cache",
                    f"{hits}/{lookups} hits ({self.tagger_cache_hit_rate:.0%})",
                ]
            )
        rows.extend(self.failure_rows())
        return rows

    def failure_rows(self) -> list[list[str]]:
        """The failure-report section of the summary table.

        Empty on a clean run, so historical reports are unchanged; with
        failures it leads with the total, then one row per failing
        stage, then pool rebuilds when crash recovery ran.
        """
        failed = self.failures_by_stage
        if not failed and not self.pool_rebuilds:
            return []
        rows = [["documents failed", str(self.documents_failed)]]
        for stage, count in sorted(failed.items()):
            rows.append([f"  failed @ {stage}", str(count)])
        if self.pool_rebuilds:
            rows.append(["pool rebuilds", str(self.pool_rebuilds)])
        return rows

    def rule_rows(self) -> list[list[str]]:
        """(rule, seconds, share) rows, slowest stage first."""
        return rule_rows_from_registry(self.registry)

    def slowest_rows(self) -> list[list[str]]:
        """(doc, seconds, label paths, input nodes) rows, slowest first."""
        return [
            [
                str(entry.get("doc", "?")),
                f"{entry.get('seconds', 0.0) * 1e3:.2f}",
                str(entry.get("label_paths", "")),
                str(entry.get("input_nodes", "")),
            ]
            for entry in self.slowest_docs
        ]

    def chunk_seconds_quantile(self, q: float) -> float:
        """Chunk-duration quantile from the registry's chunk digest --
        available for snapshots re-loaded by ``repro-web stats`` too."""
        metric = self.registry.get(CHUNK_SECONDS_HISTOGRAM)
        if not isinstance(metric, Distribution):
            return 0.0
        return metric.digest.quantile(q)
