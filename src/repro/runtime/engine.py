"""The parallel streaming corpus engine.

The paper's pipeline is embarrassingly parallel per document (Section 2
conversion) and its schema discovery (Section 3) only consumes
corpus-level path statistics -- so :class:`CorpusEngine` splits a corpus
into chunks, converts the chunks on a
:class:`~repro.runtime.pool.WorkerPool` whose workers each hold one
:class:`~repro.convert.pipeline.DocumentConverter` (and its compiled
synonym matcher), and merges results back **in document order**::

    sources ──chunk──▶ worker pool (DocumentConverter per process)
                          │  per chunk: XML strings + PathAccumulator
                          ▼           + ChunkStats
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

With ``max_workers=1`` the engine runs inline in the calling process
(no pool, no pickling) -- the degenerate case the differential tests use
to separate chunking effects from multiprocessing effects.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.fastmatch import cache_counter_delta
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.convert.pipeline import DocumentConverter
from repro.obs.provenance import ProvenanceLog
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, resolve_tracer
from repro.runtime.faults import (
    DocumentFailure,
    ErrorPolicy,
    RecoveryBudget,
    failure_from_exception,
    split_segment,
    worker_crash_failure,
    write_quarantine,
)
from repro.runtime.pool import WorkerPool, chunked, resolve_workers
from repro.runtime.stats import ChunkStats, EngineStats
from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import extract_paths
from repro.schema.dtd import DTD, derive_dtd
from repro.schema.frequent import FrequentPathSet, mine_frequent_paths
from repro.schema.majority import MajoritySchema


@dataclass
class EngineConfig:
    """Tuning knobs of the engine.

    ``max_workers=None`` uses every CPU; ``1`` forces the inline serial
    path.  ``chunk_size`` trades scheduling overhead against load
    balance: an explicit integer pins every chunk to that size (the
    historical behavior, and what the differential tests use), while
    the default ``None`` enables *adaptive* sizing -- chunks start at
    ``min_chunk_size`` and a :class:`ChunkSizer` grows them (up to
    ``max_chunk_size``) until each chunk's measured duration amortizes
    the per-chunk fixed overhead against ``target_chunk_seconds``.
    ``max_pending`` bounds submitted-but-unmerged chunks (default
    ``2 * workers``): the backpressure window that keeps the in-order
    merge from buffering an unbounded reordering queue.  Under adaptive
    sizing the window is counted in *documents* (``max_pending`` times
    the current chunk size) so growing chunks do not multiply the
    buffered volume.
    """

    max_workers: int | None = None
    chunk_size: int | None = None
    # Adaptive-sizing bounds (ignored when chunk_size is an explicit
    # integer): first/smallest chunk size, growth ceiling, and the
    # per-chunk duration to aim for.  50ms per chunk keeps progress
    # reporting and the backpressure window responsive while making the
    # ~1ms fixed cost of scheduling + payload transport <2% overhead.
    min_chunk_size: int = 8
    max_chunk_size: int = 128
    target_chunk_seconds: float = 0.05
    max_pending: int | None = None
    # What to do with documents that fail to convert: "fail_fast" (the
    # historical raise-and-abort default), "skip", "quarantine" (an
    # ErrorPolicy instance carrying the directory), or a mode string.
    error_policy: ErrorPolicy | str = "fail_fast"
    quarantine_dir: str | None = None
    # Bounded-retry budget for BrokenProcessPool recovery: each worker
    # crash costs one pool rebuild (bisecting a chunk with one killer
    # document costs O(log chunk_size) rebuilds).
    max_pool_rebuilds: int = 16

    def resolved_workers(self) -> int:
        return resolve_workers(self.max_workers)

    def resolved_pending(self, workers: int) -> int:
        if self.max_pending is None:
            return max(2, 2 * workers)
        return max(1, self.max_pending)

    def resolved_policy(self) -> ErrorPolicy:
        return ErrorPolicy.coerce(
            self.error_policy, quarantine_dir=self.quarantine_dir
        )

    def adaptive_chunking(self) -> bool:
        return self.chunk_size is None

    def resolved_chunk_size(self) -> int:
        """The first chunk's size (and every chunk's, when static)."""
        if self.chunk_size is None:
            return max(1, self.min_chunk_size)
        return max(1, self.chunk_size)


class ChunkSizer:
    """In-flight chunk-size controller.

    Each merged chunk reports its wall time (``ChunkStats.seconds``) and
    its per-document time (``doc_seconds``); the difference is fixed
    overhead that does not shrink with smaller chunks.  While chunks
    finish faster than the target duration the controller grows the
    size toward ``target / per_doc_seconds`` (at most 4x per step, so
    one anomalously fast chunk cannot blow past the cap); if chunks
    overshoot the target badly it backs off by halves.  A static
    configuration never changes size -- the controller is then just the
    place the constant lives.
    """

    def __init__(
        self,
        initial: int,
        cap: int,
        target_seconds: float,
        adaptive: bool,
    ) -> None:
        self.size = max(1, initial)
        self.initial = self.size
        self.cap = max(self.size, cap)
        self.target_seconds = target_seconds
        self.adaptive = adaptive

    @classmethod
    def from_config(cls, config: EngineConfig) -> "ChunkSizer":
        return cls(
            config.resolved_chunk_size(),
            config.max_chunk_size,
            config.target_chunk_seconds,
            config.adaptive_chunking(),
        )

    def observe(self, stats: "ChunkStats") -> None:
        """Adjust the size from one merged chunk's measurements."""
        if not self.adaptive:
            return
        documents = stats.documents + stats.documents_failed
        if documents <= 0 or stats.seconds <= 0.0:
            return
        per_doc = stats.seconds / documents
        desired = max(1, int(self.target_seconds / per_doc)) if per_doc > 0 else self.cap
        if stats.seconds < self.target_seconds:
            grown = max(self.size + 1, min(desired, self.size * 4))
            self.size = min(self.cap, grown)
        elif stats.seconds > 4 * self.target_seconds and self.size > self.initial:
            self.size = max(self.initial, max(self.size // 2, min(desired, self.size)))


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

    ``spans``/``events`` carry the worker's serialized observability
    output (``None`` when tracing/provenance is off, or when the chunk
    ran inline and recorded straight into the caller's tracer).
    ``failures`` are the documents a skip/quarantine policy dropped, in
    document order; ``xml`` holds the survivors only.
    """

    xml: list[str]
    accumulator: PathAccumulator
    stats: ChunkStats
    spans: list[dict] | None = None
    events: list[dict] | None = None
    failures: list[DocumentFailure] = field(default_factory=list)


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
class DiscoveryResult:
    """Outcome of schema discovery over accumulated statistics."""

    frequent: FrequentPathSet
    schema: MajoritySchema
    dtd: DTD


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
    policy: ErrorPolicy = ErrorPolicy.fail_fast()
    collect_xml: bool = True
    sink: XmlSink | None = None


def _build_worker(
    kb: KnowledgeBase,
    config: ConversionConfig,
    bayes: MultinomialNaiveBayes | None,
    *options,
) -> _ChunkWorker:
    return _ChunkWorker(DocumentConverter(kb, config, bayes), *options)


def _run_chunk(
    converter: DocumentConverter,
    index: int,
    base: int,
    sources: list[str],
    tracer: Tracer | NullTracer = NULL_TRACER,
    provenance: ProvenanceLog | None = None,
    policy: ErrorPolicy = ErrorPolicy.fail_fast(),
    collect_xml: bool = True,
    sink: XmlSink | None = None,
    names: Sequence[str] | None = None,
) -> ChunkPayload:
    """Convert one chunk: the shared worker/inline code path.

    ``base`` is the corpus-wide index of the chunk's first document, so
    provenance events and spans key documents by their global position
    regardless of which worker converted them.

    Per-document isolation: under a non-fail-fast ``policy`` a document
    whose conversion raises becomes a :class:`DocumentFailure` in the
    payload (with the source attached when the policy quarantines) and
    its siblings convert exactly as they would alone.  Fail-fast lets
    the exception propagate -- the historical behavior.

    Transport control: with ``collect_xml=False`` survivors' XML stays
    out of the payload (discovery-only callers never pay to ship it);
    an :class:`XmlSink` writes each survivor -- named by ``names`` when
    the caller supplied original stems, by global position otherwise --
    from inside the worker.  With neither, documents are not even
    serialized.
    """
    started = time.perf_counter()
    stats = ChunkStats(index=index, documents=0)
    xml: list[str] = []
    failures: list[DocumentFailure] = []
    accumulator = PathAccumulator()
    need_xml = collect_xml or sink is not None
    # Token-decision caches persist across chunks inside one converter;
    # snapshotting around the chunk yields this chunk's traffic alone.
    cache_before = converter.tagger_cache_counters()
    with tracer.span("engine.chunk", chunk=index, documents=len(sources)):
        for offset, source in enumerate(sources):
            doc_id = f"doc{base + offset:04d}"
            doc_started = time.perf_counter()
            try:
                result = converter.convert(
                    source, doc_id=doc_id, tracer=tracer, provenance=provenance
                )
                doc_xml = result.to_xml() if need_xml else None
            except Exception as exc:
                stats.doc_seconds += time.perf_counter() - doc_started
                if policy.is_fail_fast:
                    raise
                failure = failure_from_exception(
                    doc_id,
                    base + offset,
                    exc,
                    source=source if policy.captures_source else None,
                )
                failures.append(failure)
                stats.documents_failed += 1
                stats.failures_by_stage[failure.stage] = (
                    stats.failures_by_stage.get(failure.stage, 0) + 1
                )
                if provenance is not None:
                    provenance.error_event(
                        doc_id,
                        failure.stage,
                        failure.error_type,
                        failure.message,
                        index=failure.index,
                    )
                continue
            if doc_xml is not None:
                if sink is not None:
                    sink.write(
                        names[offset] if names is not None else doc_id, doc_xml
                    )
                if collect_xml:
                    xml.append(doc_xml)
            with tracer.span("discover.extract_paths", doc=doc_id):
                doc_paths = extract_paths(result.root)
                accumulator.add(doc_paths)
            concept_nodes = result.concept_node_count
            stats.documents += 1
            stats.tokens_created += result.tokens_created
            stats.groups_created += result.groups_created
            stats.nodes_eliminated += result.nodes_eliminated
            stats.input_nodes += result.input_nodes
            stats.concept_nodes += concept_nodes
            # Run intelligence: per-stage + end-to-end latency into the
            # chunk's mergeable digests, plus slowest-document context.
            doc_elapsed = time.perf_counter() - doc_started
            stats.doc_seconds += doc_elapsed
            stats.observe_document(
                doc_id,
                base + offset,
                doc_elapsed,
                result.rule_seconds,
                context={
                    "root": result.root.tag,
                    "label_paths": len(doc_paths.paths),
                    "input_nodes": result.input_nodes,
                    "concept_nodes": concept_nodes,
                },
            )
    stats.finalize_slowest()
    stats.tagger_cache = cache_counter_delta(
        cache_before, converter.tagger_cache_counters()
    )
    stats.seconds = time.perf_counter() - started
    return ChunkPayload(
        xml=xml, accumulator=accumulator, stats=stats, failures=failures
    )


def _convert_chunk(
    worker: _ChunkWorker,
    index: int,
    base: int,
    sources: list[str],
    names: list[str] | None,
) -> ChunkPayload:
    """Pool task: convert a chunk with the per-worker converter."""
    kill_marker = worker.converter.config.chaos_kill_marker
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
    chunk = _run_chunk(
        worker.converter,
        index,
        base,
        sources,
        tracer,
        provenance,
        worker.policy,
        worker.collect_xml,
        worker.sink,
        names,
    )
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
        bayes: MultinomialNaiveBayes | None = None,
    ) -> None:
        self.kb = kb
        self.config = config or ConversionConfig()
        self.engine_config = engine_config or EngineConfig()
        self.bayes = bayes
        self._inline_converter: DocumentConverter | None = None
        self._recovery = threading.Lock()

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
        xml_sink: XmlSink | str | None = None,
        names: Sequence[str] | None = None,
    ) -> Iterator[ChunkPayload]:
        """Yield converted chunks **in document order**.

        Results stream as soon as their chunk (and every earlier chunk)
        finishes; at most ``max_pending`` chunks are in flight, so
        memory stays bounded on arbitrarily large corpora.  Pass a
        :class:`EngineStats` to have counters, timings, and queue-depth
        instrumentation filled in as the stream drains.

        With a recording ``tracer``/``provenance``, workers build their
        own tracer per chunk and ship serialized spans/events back; the
        merge loop re-parents the spans under this tracer's current span
        (namespaced by chunk index) and appends the events in document
        order -- the cross-process half of the span tree.

        ``progress`` (e.g. a :class:`repro.obs.progress.ProgressReporter`)
        is called with the updated stats after every chunk merge --
        the live progress/ETA hook.

        Transport: ``collect_xml=False`` keeps survivors' XML out of
        the payloads (``payload.xml`` comes back empty) for callers that
        only need accumulator + stats; ``xml_sink`` (an :class:`XmlSink`
        or a directory path) writes each survivor to a file from inside
        the worker, named by the aligned ``names`` sequence when given,
        by global document position otherwise.
        """
        stats = stats if stats is not None else self.new_stats()
        tracer = resolve_tracer(tracer)
        policy = self.engine_config.resolved_policy()
        sink = (
            XmlSink(str(xml_sink))
            if xml_sink is not None and not isinstance(xml_sink, XmlSink)
            else xml_sink
        )
        if sink is not None:
            sink.prepare()
        sizer = ChunkSizer.from_config(self.engine_config)
        started = time.perf_counter()
        workers = stats.workers
        chunks = enumerate(chunked(sources, lambda: sizer.size))
        doc_cursor = 0

        def chunk_names(base: int, count: int) -> list[str] | None:
            if names is None:
                return None
            return list(names[base : base + count])

        def merge(payload: ChunkPayload) -> ChunkPayload:
            stats.absorb(payload.stats)
            sizer.observe(payload.stats)
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
            for failure in payload.failures:
                stats.failures.append(failure)
                if policy.mode == "quarantine":
                    write_quarantine(policy.quarantine_dir, failure)
            if progress is not None:
                progress(stats)
            return payload

        if workers == 1:
            converter = self._converter()
            try:
                for index, chunk in chunks:
                    stats.max_queue_depth = max(stats.max_queue_depth, 1)
                    # Inline: record straight into the caller's tracer --
                    # nothing to re-parent, payload.spans stays None.
                    payload = _run_chunk(
                        converter, index, doc_cursor, chunk, tracer,
                        provenance, policy, collect_xml, sink,
                        chunk_names(doc_cursor, len(chunk)),
                    )
                    doc_cursor += len(chunk)
                    yield merge(payload)
            finally:
                stats.wall_seconds = time.perf_counter() - started
            return

        max_pending = self.engine_config.resolved_pending(workers)
        budget = RecoveryBudget(self.engine_config.max_pool_rebuilds)
        pool = self.worker_pool(
            workers=workers,
            trace=tracer.enabled,
            provenance=provenance is not None,
            policy=policy,
            collect_xml=collect_xml,
            sink=sink,
        )
        pending: deque[tuple[ChunkTask, Future[ChunkPayload]]] = deque()
        pending_docs = 0
        interrupted = False

        def window_full() -> bool:
            # Static sizing keeps the historical chunk-count window;
            # adaptive sizing counts *documents* (max_pending chunks of
            # the current size) so the buffered volume stays bounded as
            # chunks grow, and the many small warm-up chunks do not
            # throttle the pool.
            if sizer.adaptive:
                return pending_docs >= max_pending * sizer.size
            return len(pending) >= max_pending

        def merge_oldest() -> ChunkPayload:
            nonlocal pending_docs
            payload = self._next_payload(pending, pool, policy, budget, stats)
            pending_docs -= payload.stats.documents + payload.stats.documents_failed
            return merge(payload)

        try:
            for index, chunk in chunks:
                task = ChunkTask(
                    index, doc_cursor, chunk,
                    chunk_names(doc_cursor, len(chunk)),
                )
                doc_cursor += len(chunk)
                pending.append((task, self._submit(pool, task, budget, stats)))
                pending_docs += len(chunk)
                stats.max_queue_depth = max(
                    stats.max_queue_depth, len(pending)
                )
                # Backpressure: consume the oldest chunk (preserving
                # document order) before submitting past the window.
                while pending and window_full():
                    yield merge_oldest()
            while pending:
                yield merge_oldest()
        except BaseException:
            # Any exceptional exit -- the consumer closing the stream
            # (GeneratorExit), Ctrl-C (KeyboardInterrupt), a progress
            # callback raising, or a conversion error under fail-fast --
            # must not block on in-flight chunks (the old `with pool:`
            # exit did, leaking the caller's time into generator close);
            # cancel queued ones and let workers die with the pool.
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
        xml_sink: XmlSink | str | None = None,
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

    def mine(
        self,
        accumulator: PathAccumulator,
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        tracer: Tracer | NullTracer | None = None,
    ) -> FrequentPathSet:
        """Frequent-path mining over accumulated statistics, using the
        topic's constraints and concept alphabet."""
        tracer = resolve_tracer(tracer)
        with tracer.span("discover.mine_frequent") as span:
            frequent = mine_frequent_paths(
                accumulator,
                sup_threshold=sup_threshold,
                ratio_threshold=ratio_threshold,
                constraints=self.kb.constraints,
                candidate_labels=self.kb.concept_tags(),
            )
            span.set(
                frequent_paths=len(frequent.paths),
                nodes_explored=frequent.nodes_explored,
            )
        return frequent

    def discover(
        self,
        accumulator: PathAccumulator,
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        optional_threshold: float | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> DiscoveryResult:
        """Majority schema + DTD from accumulated statistics alone."""
        tracer = resolve_tracer(tracer)
        frequent = self.mine(
            accumulator,
            sup_threshold=sup_threshold,
            ratio_threshold=ratio_threshold,
            tracer=tracer,
        )
        with tracer.span("discover.majority_schema") as span:
            schema = MajoritySchema.from_frequent_paths(frequent)
            span.set(elements=schema.element_count())
        dtd = derive_dtd(
            schema,
            accumulator,
            optional_threshold=optional_threshold,
            tracer=tracer,
        )
        return DiscoveryResult(frequent=frequent, schema=schema, dtd=dtd)

    def run(
        self,
        sources: Iterable[str],
        *,
        sup_threshold: float = 0.4,
        ratio_threshold: float = 0.0,
        optional_threshold: float | None = None,
        discover: bool = True,
        tracer: Tracer | NullTracer | None = None,
        provenance: ProvenanceLog | None = None,
        progress: Callable[[EngineStats], None] | None = None,
        collect_xml: bool = True,
        xml_sink: XmlSink | str | None = None,
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
            # Schema discovery needs surviving documents: an empty corpus
            # -- or one where the error policy dropped *every* document --
            # yields discovery=None rather than mining an empty
            # accumulator into a degenerate schema.
            if discover and corpus.stats.documents:
                discovery = self.discover(
                    corpus.accumulator,
                    sup_threshold=sup_threshold,
                    ratio_threshold=ratio_threshold,
                    optional_threshold=optional_threshold,
                    tracer=tracer,
                )
        return EngineRun(corpus=corpus, discovery=discovery)

    # -- worker pool + crash recovery ---------------------------------------

    def worker_pool(
        self,
        *,
        workers: int | None = None,
        trace: bool = False,
        provenance: bool = False,
        policy: ErrorPolicy | None = None,
        collect_xml: bool = True,
        sink: XmlSink | None = None,
    ) -> WorkerPool:
        """A pool whose workers each hold this engine's converter.

        The converter is built (or reused) parent-side, so forked
        workers adopt it copy-on-write.  ``policy`` defaults to the
        engine's error policy; the other options select what a chunk
        ships home (see :meth:`stream`).
        """
        if policy is None:
            policy = self.engine_config.resolved_policy()
        if workers is None:
            workers = self.engine_config.resolved_workers()
        options = (trace, provenance, policy, collect_xml, sink)
        return WorkerPool(
            _build_worker,
            (self.kb, self.config, self.bayes, *options),
            workers=workers,
            state=_ChunkWorker(self._converter(), *options),
        )

    def _submit(
        self,
        pool: WorkerPool,
        task: ChunkTask,
        budget: RecoveryBudget,
        stats: EngineStats,
    ) -> Future[ChunkPayload]:
        """Submit a chunk, first replacing the pool if a crash broke it
        (bounded by the recovery budget)."""
        try:
            return task.submit(pool)
        except BrokenProcessPool:
            budget.spend()
            stats.record_pool_rebuild()
            pool.rebuild()
            return task.submit(pool)

    def _next_payload(
        self,
        pending: deque[tuple[ChunkTask, Future[ChunkPayload]]],
        pool: WorkerPool,
        policy: ErrorPolicy,
        budget: RecoveryBudget,
        stats: EngineStats,
    ) -> ChunkPayload:
        """The oldest pending chunk's payload, recovering worker crashes.

        A dead worker surfaces as ``BrokenProcessPool`` on whichever
        future is awaited -- not necessarily the chunk that killed it.
        Under fail-fast the error propagates (historical behavior);
        otherwise the awaited chunk goes through :meth:`recover_chunk`
        and every other in-flight chunk is resubmitted in order, so the
        in-order merge semantics survive the crash.
        """
        task, future = pending.popleft()
        try:
            return future.result()
        except BrokenProcessPool:
            if policy.is_fail_fast:
                raise
            payload = self.recover_chunk(pool, task, stats, budget)
            # Every other in-flight future died with the pool; resubmit
            # the chunks in their original order on the rebuilt pool.
            for position, (other, _dead) in enumerate(pending):
                pending[position] = (other, self._submit(pool, other, budget, stats))
            return payload

    def recover_chunk(
        self,
        pool: WorkerPool,
        task: ChunkTask,
        stats: EngineStats,
        budget: RecoveryBudget | None = None,
    ) -> ChunkPayload:
        """Re-run a chunk whose pool broke, bisecting around worker-killing
        documents.  The one crash-recovery entry point: :meth:`stream`
        and the conversion service both call it.

        The chunk's sources are processed as a worklist of contiguous
        segments: a segment that converts cleanly is kept whole; one
        that breaks the pool again is split in half (single documents
        are the proven killers and become ``stage="worker"`` failures).
        The surviving pieces are stitched back into a single payload
        with the chunk's original index, so the caller's in-order merge
        never notices the detour.  Sink writes are idempotent full-file
        replacements, so a re-run segment's survivors simply overwrite
        the files any pre-crash attempt already produced.

        Recoveries on one engine run one at a time, so a bisection
        never shares the pool with another chunk's re-run segments.
        Pool rebuilds are recorded on ``stats`` and bounded by
        ``budget`` (a fresh ``max_pool_rebuilds`` budget by default).
        """
        if budget is None:
            budget = RecoveryBudget(self.engine_config.max_pool_rebuilds)
        worker: _ChunkWorker = pool.state  # type: ignore[assignment]
        segments: deque[tuple[int, list[str]]] = deque(
            [(task.base, task.sources)]
        )
        pieces: list[tuple[int, ChunkPayload | DocumentFailure]] = []
        with self._recovery:
            while segments:
                base, sources = segments.popleft()
                offset = base - task.base
                names = (
                    None
                    if task.names is None
                    else task.names[offset : offset + len(sources)]
                )
                segment = ChunkTask(task.index, base, sources, names)
                try:
                    pieces.append(
                        (base, self._submit(pool, segment, budget, stats).result())
                    )
                except BrokenProcessPool:
                    if len(sources) == 1:
                        pieces.append(
                            (
                                base,
                                worker_crash_failure(
                                    f"doc{base:04d}",
                                    base,
                                    source=sources[0]
                                    if worker.policy.captures_source
                                    else None,
                                ),
                            )
                        )
                    else:
                        for part in reversed(split_segment(base, sources)):
                            segments.appendleft(part)
        return self._stitch_chunk(task.index, pieces, worker.provenance)

    @staticmethod
    def _stitch_chunk(
        index: int,
        pieces: list[tuple[int, ChunkPayload | DocumentFailure]],
        provenance_on: bool,
    ) -> ChunkPayload:
        """Reassemble bisection pieces into one in-order chunk payload."""
        xml: list[str] = []
        accumulator = PathAccumulator()
        stats = ChunkStats(index=index, documents=0)
        spans: list[dict] = []
        events: list[dict] = []
        failures: list[DocumentFailure] = []
        for base, piece in sorted(pieces, key=lambda item: item[0]):
            if isinstance(piece, DocumentFailure):
                stats.documents_failed += 1
                stats.failures_by_stage[piece.stage] = (
                    stats.failures_by_stage.get(piece.stage, 0) + 1
                )
                failures.append(piece)
                if provenance_on:
                    log = ProvenanceLog()
                    log.error_event(
                        piece.doc_id,
                        piece.stage,
                        piece.error_type,
                        piece.message,
                        index=piece.index,
                    )
                    events.extend(log.events)
                continue
            xml.extend(piece.xml)
            accumulator.update(piece.accumulator)
            stats.fold(piece.stats)
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
            if piece.events:
                events.extend(piece.events)
            failures.extend(piece.failures)
        return ChunkPayload(
            xml=xml,
            accumulator=accumulator,
            stats=stats,
            spans=spans or None,
            events=events or None,
            failures=failures,
        )

    # -- internals -----------------------------------------------------------

    def new_stats(self) -> EngineStats:
        """A fresh stats sink sized to this engine's configuration."""
        return EngineStats(
            workers=self.engine_config.resolved_workers(),
            chunk_size=self.engine_config.resolved_chunk_size(),
        )

    def _converter(self) -> DocumentConverter:
        """The lazily built converter for the inline (1-worker) path."""
        if self._inline_converter is None:
            self._inline_converter = DocumentConverter(
                self.kb, self.config, self.bayes
            )
        return self._inline_converter
