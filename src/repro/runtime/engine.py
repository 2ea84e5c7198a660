"""The parallel streaming corpus engine.

The paper's pipeline is embarrassingly parallel per document (Section 2
conversion) and its schema discovery (Section 3) only consumes
corpus-level path statistics -- so :class:`CorpusEngine` splits a corpus
into chunks (:data:`~repro.runtime.pool.CHUNK_SIZE` documents unless
configured otherwise), converts the chunks on a
:class:`~repro.runtime.pool.WorkerPool` whose workers each hold one
:class:`~repro.convert.pipeline.DocumentConverter` (and its compiled
synonym matcher), and merges results back **in document order**::

    sources ──chunk──▶ worker pool (DocumentConverter per process)
                          │  per chunk: XML strings + PathAccumulator
                          ▼           + ChunkStats (a metrics registry)
            in-order, backpressured merge
                          │
         CorpusResult(xml_documents, accumulator, stats)
                          │
         discover(): mine_frequent_paths ──▶ MajoritySchema ──▶ DTD

Workers never ship trees across the process boundary: a chunk comes back
as serialized XML plus a mergeable
:class:`~repro.schema.accumulator.PathAccumulator`, so peak memory is
bounded by the backpressure window regardless of corpus size, and the
differential test harness can compare the engine byte-for-byte against
the serial :meth:`DocumentConverter.convert_many` path.

Every worker count takes the same path: each chunk is one
:func:`_convert_chunk` task on the pool.  With ``max_workers=1`` the
pool runs that task inline in the calling process (no processes, no
pickling) -- the degenerate case the differential tests use to separate
chunking effects from multiprocessing effects.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.concepts.fastmatch import cache_counter_delta
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.convert.errors import (
    DocumentFailure,
    ErrorPolicy,
    failure_from_exception,
    write_quarantine,
)
from repro.convert.pipeline import DocumentConverter
from repro.obs.metrics import Distribution
from repro.obs.provenance import ProvenanceLog
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, resolve_tracer
from repro.runtime.faults import (
    RecoveryBudget,
    split_segment,
    worker_crash_failure,
)
from repro.runtime.pool import (
    CHUNK_SIZE,
    WorkerPool,
    chunked,
    inflight_window,
    resolve_workers,
)
from repro.runtime.stats import (
    CONCEPT_NODES,
    DOC_SECONDS,
    DOCUMENT_STAGE,
    DOCUMENTS,
    DOCUMENTS_FAILED,
    GROUPS_CREATED,
    INPUT_NODES,
    NODES_ELIMINATED,
    STAGE_SECONDS,
    TAGGER_CACHE_EVENTS,
    TOKENS_CREATED,
    WORKER_SECONDS,
    ChunkStats,
    EngineStats,
)
from repro.schema.accumulator import PathAccumulator
from repro.schema.discovery import DiscoveryResult, discover_schema
from repro.schema.paths import extract_paths


@dataclass
class EngineConfig:
    """Tuning knobs of the engine.

    ``max_workers=None`` uses every CPU; ``1`` runs the pool inline in
    the calling process.  ``chunk_size`` is the number of documents per
    pool task (every chunk but the last is full); the output does not
    depend on it, so tests set it to force chunk boundaries.
    """

    max_workers: int | None = None
    chunk_size: int = CHUNK_SIZE
    # What to do with documents that fail to convert, as a mode string:
    # "fail_fast" (the historical raise-and-abort default), "skip" or
    # "quarantine" (into quarantine_dir); "-" may stand for "_".
    error_policy: str = "fail_fast"
    quarantine_dir: str | None = None
    # Bounded-retry budget for BrokenProcessPool recovery: each worker
    # crash costs one pool rebuild (bisecting a chunk with one killer
    # document costs O(log chunk_size) rebuilds).
    max_pool_rebuilds: int = 16

    def resolved_workers(self) -> int:
        return resolve_workers(self.max_workers)

    def resolved_policy(self) -> ErrorPolicy:
        """The one :class:`ErrorPolicy` a run applies (it rejects an
        unknown mode, and quarantine without a directory)."""
        return ErrorPolicy(
            self.error_policy.replace("-", "_"), self.quarantine_dir
        )


@dataclass
class XmlSink:
    """Worker-side XML writer (the engine's write-through mode).

    When conversion output is destined for files anyway, shipping every
    serialized document back through the chunk pickle just to have the
    parent write it is pure transport cost.  A sink travels to each
    worker once (via the pool initializer) and survivors are written in
    the worker, so the payload carries only accumulator + stats.  Writes
    are idempotent full-file replacements: crash-recovery bisection can
    re-run a chunk's surviving documents and simply rewrite their files.
    """

    directory: str

    def write(self, name: str, xml: str) -> None:
        (Path(self.directory) / f"{name}.xml").write_text(xml, encoding="utf-8")

    def prepare(self) -> None:
        """Create the output directory (parent-side, before the pool)."""
        Path(self.directory).mkdir(parents=True, exist_ok=True)


@dataclass
class ChunkPayload:
    """Everything one worker returns for one chunk.

    ``stats`` is the chunk's books: the worker records them into the
    chunk's own metrics registry, under the names the parent's
    :class:`EngineStats` merges them into.  ``spans``/``events`` carry
    the worker's serialized observability output (``None`` when
    tracing/provenance is off).  ``failures`` are the documents a
    skip/quarantine policy dropped, in document order; ``xml`` holds the
    survivors only.
    """

    xml: list[str]
    accumulator: PathAccumulator
    stats: ChunkStats
    spans: list[dict] | None = None
    events: list[dict] | None = None
    failures: list[DocumentFailure] = field(default_factory=list)

    def drop(
        self, failure: DocumentFailure, provenance: ProvenanceLog | None
    ) -> None:
        """Book one dropped document: the failure record, the chunk's
        failure counters and, when provenance is on, an error event."""
        self.failures.append(failure)
        self.stats.registry.counter(DOCUMENTS_FAILED, stage=failure.stage).inc()
        if provenance is not None:
            provenance.error_event(
                failure.doc_id,
                failure.stage,
                failure.error_type,
                failure.message,
                index=failure.index,
            )


@dataclass
class CorpusResult:
    """Outcome of converting a corpus through the engine.

    ``xml_documents`` holds the surviving documents in corpus order;
    ``failures`` the documents the error policy dropped (empty under
    fail-fast, which raises instead).
    """

    xml_documents: list[str]
    accumulator: PathAccumulator
    stats: EngineStats
    failures: list[DocumentFailure] = field(default_factory=list)


@dataclass
class EngineRun:
    """A full convert-then-discover pass."""

    corpus: CorpusResult
    discovery: DiscoveryResult | None = None


# -- worker-side code ---------------------------------------------------------


@dataclass
class _ChunkWorker:
    """The per-worker state slot: one converter per process, built once
    so the knowledge base is unpickled and the synonym matcher compiled
    once, not once per chunk, plus the run's transport and obs options.
    When tracing/provenance is requested, each chunk builds its own
    tracer/log and ships the serialized output home in the payload."""

    converter: DocumentConverter
    trace: bool = False
    provenance: bool = False
    policy: ErrorPolicy = ErrorPolicy()
    collect_xml: bool = True
    sink: XmlSink | None = None


def _build_worker(kb: KnowledgeBase, config: ConversionConfig, *options) -> _ChunkWorker:
    return _ChunkWorker(DocumentConverter(kb, config), *options)


def _convert_chunk(
    worker: _ChunkWorker,
    index: int,
    base: int,
    sources: list[str],
    names: list[str] | None,
) -> ChunkPayload:
    """Pool task: convert one chunk with the per-worker converter.

    ``base`` is the corpus-wide index of the chunk's first document, so
    provenance events and spans key documents by their global position
    regardless of which worker converted them.

    Under a non-fail-fast policy a document whose conversion raises
    becomes a :class:`DocumentFailure` in the payload (with its source
    when the policy quarantines); fail-fast lets the exception
    propagate.  Survivors' XML ships only with ``collect_xml``, an
    :class:`XmlSink` writes it from the worker, and with neither the
    documents are not serialized at all.
    """
    converter = worker.converter
    kill_marker = converter.config.chaos_kill_marker
    if (
        kill_marker
        and multiprocessing.parent_process() is not None
        and any(kill_marker in source for source in sources)
    ):
        # Chaos hook: die the way an OOM-killed or segfaulted worker
        # does -- no exception, no cleanup, just a vanished process.
        # Only ever in a pool worker: an inline pool runs in the caller.
        os._exit(1)
    tracer: Tracer | NullTracer = Tracer(id_prefix="w") if worker.trace else NULL_TRACER
    provenance = ProvenanceLog() if worker.provenance else None
    sink = worker.sink
    need_xml = worker.collect_xml or sink is not None
    chunk = ChunkPayload(xml=[], accumulator=PathAccumulator(), stats=ChunkStats(index))
    stats = chunk.stats
    # The chunk's books: each counter and stage histogram is resolved
    # once per chunk, not once per document.
    registry = stats.registry
    documents = registry.counter(DOCUMENTS)
    doc_seconds = registry.counter(DOC_SECONDS)
    tokens = registry.counter(TOKENS_CREATED)
    groups = registry.counter(GROUPS_CREATED)
    eliminated = registry.counter(NODES_ELIMINATED)
    input_nodes = registry.counter(INPUT_NODES)
    concepts = registry.counter(CONCEPT_NODES)
    stage_histograms: dict[str, Distribution] = {}
    clock: dict[str, float] = {}
    with tracer.stage("engine.chunk", clock, chunk=index, documents=len(sources)):
        # Tagger caches persist across chunks inside one converter;
        # snapshotting around the chunk yields this chunk's traffic alone.
        cache_before = converter.tagger_cache_counters()
        for offset, source in enumerate(sources):
            doc_id = f"doc{base + offset:04d}"
            failure = None
            with tracer.stage(DOCUMENT_STAGE, clock, doc=doc_id) as doc_span:
                try:
                    result = converter.convert(
                        source, doc_id=doc_id, tracer=tracer, provenance=provenance
                    )
                    # Every document has a to_xml stage (and span), empty
                    # when the run ships no XML.
                    with tracer.stage("to_xml", result.rule_seconds):
                        doc_xml = result.to_xml() if need_xml else None
                except Exception as exc:
                    if worker.policy.is_fail_fast:
                        raise
                    failure = failure_from_exception(
                        doc_id,
                        base + offset,
                        exc,
                        source=source if worker.policy.captures_source else None,
                    )
                else:
                    doc_span.set(input_nodes=result.input_nodes)
                    if doc_xml is not None:
                        if sink is not None:
                            sink.write(
                                names[offset] if names is not None else doc_id,
                                doc_xml,
                            )
                        if worker.collect_xml:
                            chunk.xml.append(doc_xml)
                    with tracer.stage("extract_paths", result.rule_seconds, doc=doc_id):
                        doc_paths = extract_paths(result.root)
                        chunk.accumulator.add(doc_paths)
                    concept_nodes = result.concept_node_count
                    documents.inc()
                    tokens.inc(result.tokens_created)
                    groups.inc(result.groups_created)
                    eliminated.inc(result.nodes_eliminated)
                    input_nodes.inc(result.input_nodes)
                    concepts.inc(concept_nodes)
            seconds = clock[DOCUMENT_STAGE]
            doc_seconds.inc(seconds)
            if failure is not None:
                chunk.drop(failure, provenance)
                continue
            # Run intelligence: per-stage + end-to-end latency into the
            # chunk's mergeable digests, plus slowest-document context.
            stage_seconds = (*result.rule_seconds.items(), (DOCUMENT_STAGE, seconds))
            for stage, elapsed in stage_seconds:
                histogram = stage_histograms.get(stage)
                if histogram is None:
                    histogram = stage_histograms[stage] = registry.histogram(
                        STAGE_SECONDS, stage=stage
                    )
                histogram.observe(elapsed)
            stats.consider_slowest(
                doc_id,
                base + offset,
                seconds,
                {
                    "root": result.root.tag,
                    "label_paths": len(doc_paths.paths),
                    "input_nodes": result.input_nodes,
                    "concept_nodes": concept_nodes,
                },
            )
        stats.finalize_slowest()
        delta = cache_counter_delta(cache_before, converter.tagger_cache_counters())
        for cache_name, events in delta.items():
            for event, value in events.items():
                registry.counter(
                    TAGGER_CACHE_EVENTS, cache=cache_name, event=event
                ).inc(value)
    registry.counter(WORKER_SECONDS).inc(clock["engine.chunk"])
    if worker.trace:
        chunk.spans = tracer.export()
    if provenance is not None:
        chunk.events = provenance.events
    return chunk


@dataclass
class ChunkTask:
    """One chunk of a corpus, kept resubmittable for crash recovery."""

    index: int
    base: int
    sources: list[str]
    # Sink file stems for this chunk's documents (None when the caller
    # did not name them; the sink then falls back to global positions).
    names: list[str] | None = None

    def submit(self, pool: WorkerPool) -> "Future[ChunkPayload]":
        """Convert this chunk on a pool from :meth:`CorpusEngine.worker_pool`."""
        return pool.submit(
            _convert_chunk, self.index, self.base, self.sources, self.names
        )


# -- the engine ---------------------------------------------------------------


class CorpusEngine:
    """Chunked parallel conversion + streaming schema discovery.

    Construct once per topic, like :class:`DocumentConverter`; the
    knowledge base, conversion config, and optional Bayes tagger are
    shipped to each worker exactly once per engine run.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        config: ConversionConfig | None = None,
        *,
        engine_config: EngineConfig | None = None,
    ) -> None:
        self.kb = kb
        self.config = config or ConversionConfig()
        self.engine_config = engine_config or EngineConfig()
        self._inline_converter: DocumentConverter | None = None

    # -- conversion ----------------------------------------------------------

    def stream(
        self,
        sources: Iterable[str],
        *,
        stats: EngineStats | None = None,
        tracer: Tracer | NullTracer | None = None,
        provenance: ProvenanceLog | None = None,
        progress: Callable[[EngineStats], None] | None = None,
        collect_xml: bool = True,
        xml_sink: str | None = None,
        names: Sequence[str] | None = None,
    ) -> Iterator[ChunkPayload]:
        """Yield converted chunks **in document order**.

        Every chunk is one :func:`_convert_chunk` task on a
        :class:`WorkerPool` (inline at one worker); the worker count,
        chunk size and error policy come from :attr:`engine_config`.  At
        most :func:`~repro.runtime.pool.inflight_window` chunks are
        submitted but unmerged, so memory stays bounded, and each is
        merged through :meth:`settle`, which recovers a chunk a worker
        crash killed.  A passed :class:`EngineStats` is filled in as the
        stream drains, including the engine's ``workers`` and
        ``chunk_size``; ``progress`` is called with it after each merge.

        With a recording ``tracer``/``provenance``, each chunk ships its
        serialized spans/events back; the merge re-parents the spans
        under this tracer's current span (namespaced by chunk index) and
        appends the events in document order.

        ``collect_xml=False`` keeps survivors' XML out of the payloads;
        ``xml_sink`` (a directory) has each worker write its survivors,
        named by the aligned ``names`` when given, by global document
        position otherwise.
        """
        tracer = resolve_tracer(tracer)
        policy = self.engine_config.resolved_policy()
        sink = XmlSink(xml_sink) if xml_sink is not None else None
        if sink is not None:
            sink.prepare()
        started = time.perf_counter()
        budget = RecoveryBudget(self.engine_config.max_pool_rebuilds)
        pool = self.worker_pool(
            trace=tracer.enabled,
            provenance=provenance is not None,
            collect_xml=collect_xml,
            sink=sink,
        )
        max_pending = inflight_window(pool.workers)
        stats = stats if stats is not None else EngineStats()
        stats.workers, stats.chunk_size = pool.workers, self.engine_config.chunk_size
        pending: deque[tuple[ChunkTask, Future[ChunkPayload]]] = deque()
        doc_cursor = 0
        interrupted = False

        def merge_oldest() -> ChunkPayload:
            task, future = pending.popleft()
            payload = self.settle(pool, task, future, stats, budget)
            stats.absorb(payload.stats)
            # Wall clock advances at every merge, so an abandoned stream
            # still reports the time actually spent (not a close/GC-time
            # reading, and never a stale 0.0).
            stats.wall_seconds = time.perf_counter() - started
            if payload.spans:
                tracer.adopt(
                    payload.spans, prefix=f"c{payload.stats.index}."
                )
            if payload.events and provenance is not None:
                provenance.extend(payload.events)
            if policy.mode == "quarantine":
                for failure in payload.failures:
                    write_quarantine(policy.quarantine_dir, failure)
            if progress is not None:
                progress(stats)
            return payload

        try:
            for index, chunk in enumerate(
                chunked(sources, self.engine_config.chunk_size)
            ):
                task = ChunkTask(
                    index, doc_cursor, chunk,
                    None if names is None
                    else list(names[doc_cursor : doc_cursor + len(chunk)]),
                )
                doc_cursor += len(chunk)
                pending.append((task, self._start(pool, task)))
                stats.max_queue_depth = max(
                    stats.max_queue_depth, len(pending)
                )
                # Backpressure: consume the oldest chunk (preserving
                # document order) before submitting past the window.
                while len(pending) >= max_pending:
                    yield merge_oldest()
            while pending:
                yield merge_oldest()
        except BaseException:
            # An exceptional exit (the consumer closing the stream, Ctrl-C,
            # a progress callback or fail-fast raising) must not block on
            # in-flight chunks: cancel them and let workers die with the pool.
            interrupted = True
            raise
        finally:
            stats.wall_seconds = time.perf_counter() - started
            pool.shutdown(wait=not interrupted, cancel_futures=interrupted)

    def convert_corpus(
        self,
        sources: Iterable[str],
        *,
        tracer: Tracer | NullTracer | None = None,
        provenance: ProvenanceLog | None = None,
        progress: Callable[[EngineStats], None] | None = None,
        collect_xml: bool = True,
        xml_sink: str | None = None,
        names: Sequence[str] | None = None,
    ) -> CorpusResult:
        """Convert a corpus, collecting XML, statistics, and counters.

        The returned ``xml_documents`` are byte-identical to serializing
        the serial :meth:`DocumentConverter.convert_many` results, in
        the same order (the differential tests enforce this -- with
        tracing on or off).  With ``collect_xml=False`` the result's
        ``xml_documents`` is empty and only accumulator/stats/failures
        come home; ``xml_sink``/``names`` are forwarded to
        :meth:`stream` for worker-side file output.
        """
        tracer = resolve_tracer(tracer)
        stats = self.new_stats()
        xml_documents: list[str] = []
        failures: list[DocumentFailure] = []
        accumulator = PathAccumulator()
        with tracer.span("engine.convert_corpus") as span:
            for payload in self.stream(
                sources,
                stats=stats,
                tracer=tracer,
                provenance=provenance,
                progress=progress,
                collect_xml=collect_xml,
                xml_sink=xml_sink,
                names=names,
            ):
                xml_documents.extend(payload.xml)
                failures.extend(payload.failures)
                accumulator.update(payload.accumulator)
            span.set(
                documents=stats.documents,
                chunks=stats.chunks,
                documents_failed=stats.documents_failed,
            )
        return CorpusResult(
            xml_documents=xml_documents,
            accumulator=accumulator,
            stats=stats,
            failures=failures,
        )

    # -- discovery -----------------------------------------------------------

    def discover(
        self,
        accumulator: PathAccumulator,
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        tracer: Tracer | NullTracer | None = None,
    ) -> DiscoveryResult | None:
        """Majority schema + DTD from accumulated statistics alone, with
        this engine's knowledge base (see :func:`discover_schema`)."""
        return discover_schema(
            accumulator,
            self.kb,
            sup_threshold=sup_threshold,
            ratio_threshold=ratio_threshold,
            tracer=tracer,
        )

    def run(
        self,
        sources: Iterable[str],
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        discover: bool = True,
        tracer: Tracer | NullTracer | None = None,
        provenance: ProvenanceLog | None = None,
        progress: Callable[[EngineStats], None] | None = None,
        collect_xml: bool = True,
        xml_sink: str | None = None,
        names: Sequence[str] | None = None,
    ) -> EngineRun:
        """Convert a corpus and (optionally) discover its schema."""
        tracer = resolve_tracer(tracer)
        with tracer.span("engine.run"):
            corpus = self.convert_corpus(
                sources,
                tracer=tracer,
                provenance=provenance,
                progress=progress,
                collect_xml=collect_xml,
                xml_sink=xml_sink,
                names=names,
            )
            discovery = None
            # An empty corpus -- or one where the error policy dropped
            # *every* document, or whose paths all miss the thresholds --
            # yields discovery=None: there is no schema to derive.
            if discover:
                discovery = self.discover(
                    corpus.accumulator,
                    sup_threshold=sup_threshold,
                    ratio_threshold=ratio_threshold,
                    tracer=tracer,
                )
        return EngineRun(corpus=corpus, discovery=discovery)

    # -- worker pool + crash recovery ---------------------------------------

    def worker_pool(
        self,
        *,
        trace: bool = False,
        provenance: bool = False,
        collect_xml: bool = True,
        sink: XmlSink | None = None,
    ) -> WorkerPool:
        """A pool whose workers each hold this engine's converter.

        The worker count and error policy are the engine config's; the
        options select what a chunk ships home (see :meth:`stream`).
        The converter is built (or reused) parent-side, so forked
        workers adopt it copy-on-write.
        """
        config = self.engine_config
        options = (trace, provenance, config.resolved_policy(), collect_xml, sink)
        return WorkerPool(
            _build_worker,
            (self.kb, self.config, *options),
            workers=config.resolved_workers(),
            state=_ChunkWorker(self._converter(), *options),
        )

    @staticmethod
    def _start(pool: WorkerPool, task: ChunkTask) -> Future[ChunkPayload]:
        """Submit a chunk; on a pool a crash already broke, its future is
        dead at once, and :meth:`settle` recovers it like the others."""
        try:
            return task.submit(pool)
        except BrokenProcessPool as exc:
            dead: Future[ChunkPayload] = Future()
            dead.set_exception(exc)
            return dead

    def convert_chunk(
        self, pool: WorkerPool, task: ChunkTask, stats: EngineStats
    ) -> ChunkPayload:
        """Submit one chunk and settle it: the conversion service's step
        for a micro-batch, run on an executor thread since it blocks."""
        return self.settle(pool, task, self._start(pool, task), stats)

    def settle(
        self,
        pool: WorkerPool,
        task: ChunkTask,
        future: Future[ChunkPayload],
        stats: EngineStats,
        budget: RecoveryBudget | None = None,
    ) -> ChunkPayload:
        """A submitted chunk's payload: the one step that settles every
        chunk, for :meth:`stream` and the conversion service alike.

        A dead worker fails every chunk in flight with it, not only its
        killer.  Under fail-fast ``BrokenProcessPool`` propagates;
        otherwise each dead chunk goes through :meth:`recover_chunk`
        when its turn comes.
        """
        try:
            return future.result()
        except BrokenProcessPool:
            if pool.state.policy.is_fail_fast:  # type: ignore[attr-defined]
                raise
            return self.recover_chunk(pool, task, stats, budget)

    def recover_chunk(
        self,
        pool: WorkerPool,
        task: ChunkTask,
        stats: EngineStats,
        budget: RecoveryBudget | None = None,
    ) -> ChunkPayload:
        """Re-run a chunk whose pool broke, bisecting around worker-killing
        documents.  The one crash-recovery path: :meth:`settle` calls it
        for :meth:`stream` and the conversion service alike.

        The chunk's sources are processed as a worklist of contiguous
        segments: a segment that converts cleanly is kept whole; one
        that breaks the pool again is split in half (single documents
        are the proven killers and become ``stage="worker"`` failures).
        The surviving pieces are stitched back into a single payload
        with the chunk's original index, so the caller's in-order merge
        never notices the detour.  Sink writes are idempotent full-file
        replacements, so a re-run segment's survivors simply overwrite
        the files any pre-crash attempt already produced.

        The bisection holds :meth:`WorkerPool.exclusive`: it starts once
        every other task in flight has finished or died, and no other
        submit reaches the pool until it ends, so only this chunk's own
        documents can break the pool while it runs.  Pool rebuilds are
        recorded on ``stats`` and bounded by ``budget`` (a fresh
        ``max_pool_rebuilds`` budget by default).
        """
        if budget is None:
            budget = RecoveryBudget(self.engine_config.max_pool_rebuilds)
        worker: _ChunkWorker = pool.state  # type: ignore[assignment]
        segments = deque([(task.base, task.sources)])
        pieces: list[tuple[int, ChunkPayload | DocumentFailure]] = []
        with pool.exclusive():
            while segments:
                base, sources = segments.popleft()
                offset = base - task.base
                names = task.names and task.names[offset : offset + len(sources)]
                segment = ChunkTask(task.index, base, sources, names)
                try:
                    pieces.append((base, self._rerun(pool, segment, budget, stats)))
                except BrokenProcessPool:
                    if len(sources) > 1:
                        segments.extendleft(reversed(split_segment(base, sources)))
                        continue
                    source = sources[0] if worker.policy.captures_source else None
                    failure = worker_crash_failure(f"doc{base:04d}", base, source=source)
                    pieces.append((base, failure))
        return self._stitch_chunk(task.index, pieces, worker.provenance)

    @staticmethod
    def _rerun(
        pool: WorkerPool, segment: ChunkTask, budget: RecoveryBudget, stats: EngineStats
    ) -> ChunkPayload:
        """Run one bisection segment, first replacing the pool if a crash
        broke it.  ``BrokenProcessPool`` here means the segment killed a
        worker itself."""
        try:
            future = segment.submit(pool)
        except BrokenProcessPool:
            budget.spend()
            stats.record_pool_rebuild()
            pool.rebuild()
            future = segment.submit(pool)
        return future.result()

    @staticmethod
    def _stitch_chunk(
        index: int,
        pieces: list[tuple[int, ChunkPayload | DocumentFailure]],
        provenance_on: bool,
    ) -> ChunkPayload:
        """Reassemble bisection pieces into one in-order chunk payload."""
        chunk = ChunkPayload(
            xml=[], accumulator=PathAccumulator(), stats=ChunkStats(index)
        )
        provenance = ProvenanceLog() if provenance_on else None
        spans: list[dict] = []
        for base, piece in sorted(pieces, key=lambda item: item[0]):
            if isinstance(piece, DocumentFailure):
                chunk.drop(piece, provenance)
                continue
            chunk.xml.extend(piece.xml)
            chunk.accumulator.update(piece.accumulator)
            chunk.stats.fold(piece.stats)
            if piece.spans:
                # Each piece came from a fresh worker tracer whose span
                # ids restart at w1; namespace per segment so the chunk
                # prefix applied at adopt time stays collision-free.
                for span in piece.spans:
                    span = dict(span)
                    span["id"] = f"b{base}.{span['id']}"
                    if span.get("parent") is not None:
                        span["parent"] = f"b{base}.{span['parent']}"
                    spans.append(span)
            if piece.events and provenance is not None:
                provenance.extend(piece.events)
            chunk.failures.extend(piece.failures)
        chunk.spans = spans or None
        if provenance is not None:
            chunk.events = provenance.events or None
        return chunk

    # -- internals -----------------------------------------------------------

    def new_stats(self) -> EngineStats:
        """A fresh stats sink sized to this engine's configuration."""
        return EngineStats(
            workers=self.engine_config.resolved_workers(),
            chunk_size=self.engine_config.chunk_size,
        )

    def _converter(self) -> DocumentConverter:
        """The lazily built parent-side converter: the inline pool runs
        on it, and forked workers adopt it copy-on-write."""
        if self._inline_converter is None:
            self._inline_converter = DocumentConverter(self.kb, self.config)
        return self._inline_converter
