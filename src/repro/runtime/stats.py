"""Engine instrumentation, built on the metrics registry.

One set of books runs from the worker to ``/metrics``.  A worker
records each chunk into a chunk-local
:class:`~repro.obs.metrics.MetricsRegistry` under the engine's metric
names (``repro_engine_documents_total``, ...); :class:`ChunkStats` is
that registry plus the chunk's index and slowest documents, and it
pickles by default across the process boundary.  :class:`EngineStats`
is the corpus-level view over the run's registry that the engine, the
``convert-corpus`` CLI and the Figure 5 scaling harness read.  One
merge, :meth:`~repro.obs.metrics.MetricsRegistry.update`, moves a
chunk's books into the run's (:meth:`EngineStats.absorb`) and stitches
crash recovery's bisection pieces into one chunk
(:meth:`ChunkStats.fold`).  One engine run exports directly as JSON or
Prometheus text, its run-ledger record stores the same JSON snapshot,
and ``repro-web report`` re-renders either as these same tables.

Stage time has one clock and one channel.  Each stage of a document
(:data:`repro.obs.tracer.STAGE_SPANS`) is read once by the stage clock,
and that reading -- its span's too, when tracing -- is observed into
the chunk registry's ``repro_stage_seconds{stage=...}`` histograms; the
merge carries them into the run's, and every surface -- the per-rule
seconds (each digest's total), the quantile tables, the run ledger,
``/metrics`` and a saved snapshot -- reads them there.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import Distribution, MetricsRegistry
from repro.obs.quantiles import QuantileDigest
from repro.obs.tracer import STAGE_SPANS

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
# extraction), alongside the stages from rule_seconds.
DOCUMENT_STAGE = "document"

# Stage order for quantile report tables: the stage table's order, so
# the end-to-end document row comes last.
STAGE_ORDER = tuple(STAGE_SPANS)

# How many slowest-document records each chunk ships home (the parent
# keeps the global top K of the per-chunk top Ks).
SLOWEST_PER_CHUNK = 10


def merge_slowest(held: list[dict], other: list[dict]) -> list[dict]:
    """Top-``SLOWEST_PER_CHUNK`` slowest documents across two top-K
    lists, slowest first, index-tiebroken so merging is
    order-insensitive."""
    combined = sorted(
        held + list(other),
        key=lambda entry: (-entry.get("seconds", 0.0), entry.get("index", 0)),
    )
    return combined[:SLOWEST_PER_CHUNK]


# The counters every chunk books, zero or not: a chunk whose documents
# all failed still reports zero documents, seconds and nodes.
CHUNK_COUNTERS = (
    DOCUMENTS,
    WORKER_SECONDS,
    DOC_SECONDS,
    TOKENS_CREATED,
    GROUPS_CREATED,
    NODES_ELIMINATED,
    INPUT_NODES,
    CONCEPT_NODES,
)


class RegistryView:
    """Read properties over a registry holding the engine's books --
    one chunk's (:class:`ChunkStats`) or a whole run's
    (:class:`EngineStats`)."""

    registry: MetricsRegistry

    def _count(self, name: str) -> int:
        return int(self.registry.value(name))

    @property
    def documents(self) -> int:
        return self._count(DOCUMENTS)

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
    def worker_seconds(self) -> float:
        return self.registry.value(WORKER_SECONDS)

    @property
    def doc_seconds(self) -> float:
        """In-worker seconds spent in the per-document loop bodies."""
        return self.registry.value(DOC_SECONDS)

    @property
    def stage_digests(self) -> dict[str, QuantileDigest]:
        """Per-stage latency digests (``document`` included), from the
        ``repro_stage_seconds`` histograms -- so a saved snapshot carries
        them too."""
        return {
            metric.label_dict().get("stage", "?"): metric.digest
            for metric in self.registry.find(STAGE_SECONDS)
            if isinstance(metric, Distribution)
        }


class ChunkStats(RegistryView):
    """One chunk's books, as recorded inside the worker.

    The worker writes the chunk's counters, tagger-cache events and
    per-stage digests straight into :attr:`registry` under the engine's
    metric names; the record crosses the process boundary with the
    chunk's payload and pickles by default (it is never persisted).
    The parent merges it into the run's :class:`EngineStats` with
    :meth:`EngineStats.absorb`.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.registry = MetricsRegistry()
        for name in CHUNK_COUNTERS:
            self.registry.counter(name)
        # This chunk's top-K slowest documents, slowest first, each with
        # its label-path context ({"doc", "index", "seconds", "root",
        # "label_paths", "input_nodes", "concept_nodes"}).
        self.slowest_docs: list[dict] = []

    def fold(self, other: "ChunkStats") -> None:
        """Accumulate another chunk record into this one (used when
        crash recovery stitches bisection pieces back into the original
        chunk; ``index`` keeps this record's value)."""
        self.registry.update(other.registry)
        self.slowest_docs = merge_slowest(self.slowest_docs, other.slowest_docs)

    def consider_slowest(
        self, doc_id: str, index: int, seconds: float, context: dict
    ) -> None:
        """Add one surviving document to the slowest-documents
        candidates."""
        self.slowest_docs.append(
            {"doc": doc_id, "index": index, "seconds": round(seconds, 6), **context}
        )
        if len(self.slowest_docs) > 4 * SLOWEST_PER_CHUNK:
            self.finalize_slowest()

    def finalize_slowest(self) -> None:
        """Trim the slowest-documents candidates to the shipped top K."""
        self.slowest_docs = merge_slowest(self.slowest_docs, [])


def stage_quantile_rows(summaries: Mapping[str, Mapping]) -> list[list[str]]:
    """(stage, count, p50/p95/p99 ms) rows from ``{stage: summary}``
    (:meth:`QuantileDigest.summary` dicts), pipeline order, end-to-end
    ``document`` row last."""
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


class EngineStats(RegistryView):
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
        # Slowest documents merged from the chunks' top Ks (parent-side;
        # a run-ledger record stores them beside the registry).
        self.slowest_docs: list[dict] = []
        self.workers = workers
        self.chunk_size = chunk_size

    # -- registry-backed attributes ------------------------------------------

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
    def chunks(self) -> int:
        return self._count(CHUNKS)

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
    def max_queue_depth(self) -> int:
        return self._count(MAX_QUEUE_DEPTH)

    @max_queue_depth.setter
    def max_queue_depth(self, value: int) -> None:
        self.registry.gauge(MAX_QUEUE_DEPTH).set(value)

    @property
    def input_nodes(self) -> int:
        return self._count(INPUT_NODES)

    @property
    def concept_nodes(self) -> int:
        return self._count(CONCEPT_NODES)

    @property
    def rule_seconds(self) -> dict[str, float]:
        """Per-stage seconds summed over workers: each pipeline stage's
        digest total, without the end-to-end ``document`` row."""
        return {
            stage: digest.total
            for stage, digest in self.stage_digests.items()
            if stage != DOCUMENT_STAGE
        }

    def stage_summaries(self) -> dict[str, dict]:
        """``{stage: digest summary}`` of every non-empty stage digest --
        the quantile table's input."""
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

    def _tagger_cache_hits(self) -> tuple[int, int, float]:
        """(hits, lookups, hit rate) across all token-decision caches."""
        events = self.tagger_cache_events.values()
        hits = sum(counters.get("hits", 0) for counters in events)
        lookups = hits + sum(counters.get("misses", 0) for counters in events)
        return hits, lookups, hits / lookups if lookups else 0.0

    @property
    def tagger_cache_hit_rate(self) -> float:
        """Hits over lookups across all token-decision caches."""
        return self._tagger_cache_hits()[2]

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
        cost (scheduling, cache-counter snapshots, payload assembly),
        which a larger chunk size spreads over more documents.
        """
        worker_seconds = self.worker_seconds
        if worker_seconds <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.doc_seconds / worker_seconds)

    # -- aggregation ---------------------------------------------------------

    def absorb(self, chunk: ChunkStats) -> None:
        """Merge one chunk's books into the registry: one chunk, one
        chunk-seconds observation, however many bisection pieces crash
        recovery stitched it from."""
        self.registry.update(chunk.registry)
        self.registry.counter(CHUNKS).inc()
        self.registry.histogram(CHUNK_SECONDS_HISTOGRAM).observe(chunk.worker_seconds)
        self.slowest_docs = merge_slowest(self.slowest_docs, chunk.slowest_docs)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "EngineStats":
        """View a saved registry snapshot (``repro-web report``) as
        engine statistics."""
        stats = cls.__new__(cls)
        stats.registry = registry
        stats.slowest_docs = []
        return stats

    # -- report tables -------------------------------------------------------

    def summary_rows(self) -> list[list[str]]:
        """(name, value) rows for the CLI report table."""
        rows = [
            ["documents", str(self.documents)],
            ["chunks", f"{self.chunks} x {self.chunk_size}"],
            ["workers", str(self.workers)],
            ["wall seconds", f"{self.wall_seconds:.2f}"],
            ["worker seconds", f"{self.worker_seconds:.2f}"],
            ["docs/sec", f"{self.docs_per_second:.1f}"],
            ["docs/sec/worker", f"{self.docs_per_second_per_worker:.1f}"],
            ["chunk overhead", f"{self.chunk_overhead_fraction:.0%}"],
            ["max queue depth", str(self.max_queue_depth)],
            ["input nodes", str(self._count(INPUT_NODES))],
            ["tokens created", str(self._count(TOKENS_CREATED))],
            ["groups created", str(self._count(GROUPS_CREATED))],
            ["nodes eliminated", str(self._count(NODES_ELIMINATED))],
            ["concept nodes", str(self._count(CONCEPT_NODES))],
        ]
        if self.tagger_cache_events:
            hits, lookups, rate = self._tagger_cache_hits()
            rows.append(["tagger cache", f"{hits}/{lookups} hits ({rate:.0%})"])
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
        """(rule, seconds, share) rows from the stage totals, slowest
        stage first -- shared by ``convert-corpus`` and ``repro-web
        report``."""
        timings = self.rule_seconds
        total = sum(timings.values())
        rows = []
        for rule, seconds in sorted(timings.items(), key=lambda item: -item[1]):
            share = seconds / total if total else 0.0
            rows.append([rule, f"{seconds:.3f}", f"{share:.0%}"])
        return rows

    def chunk_seconds_quantile(self, q: float) -> float:
        """Chunk-duration quantile from the registry's chunk digest --
        available for snapshots re-loaded by ``repro-web report`` too."""
        metric = self.registry.get(CHUNK_SECONDS_HISTOGRAM)
        if not isinstance(metric, Distribution):
            return 0.0
        return metric.digest.quantile(q)
