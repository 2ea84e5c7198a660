"""The asyncio HTTP server over the corpus engine's warm worker pool.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` (stdlib-only, like
everything else in the reproduction): request line + headers +
``Content-Length`` body, keep-alive by default.  Routes::

    POST /convert             one document -> one outcome
    POST /convert/batch       N documents -> N outcomes (+ fold summary)
    GET  /schemas/<topic>     evolving-schema status, current DTD
    GET  /schemas/<topic>/<v> one archived DTD version
    GET  /metrics             Prometheus 0.0.4 exposition
    GET  /healthz             liveness + worker pids + /convert latency
    GET  /                    route listing

Shutdown is a graceful drain: stop accepting connections, let every
in-flight and queued request finish (the batcher flushes its lanes),
close the connections left idle, then shut the pool down with
``wait=True`` so no worker process is orphaned.  ``run()`` wires
SIGTERM/SIGINT to exactly that.

The service serves one topic, its knowledge base's.  Each micro-batch
is one engine chunk on the service's
:class:`~repro.runtime.pool.WorkerPool`, converted under the engine's
``skip`` policy by :meth:`CorpusEngine.convert_chunk`, the step that
settles every chunk of the offline engine too: a worker crash goes
through the same bisection, so a worker-killing document fails alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import signal
import time
from pathlib import Path
from typing import Callable

from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.convert.errors import DocumentFailure
from repro.obs.metrics import MetricsRegistry
from repro.runtime.engine import ChunkPayload, ChunkTask, CorpusEngine, EngineConfig
from repro.runtime.pool import CHUNK_SIZE, PoolClosed, WorkerPool, inflight_window
from repro.runtime.stats import ChunkStats, EngineStats
from repro.schema.accumulator import PathAccumulator
from repro.service.batcher import MicroBatcher, PendingDocument, ServiceDraining
from repro.service.contracts import (
    BatchOutcome,
    ContractError,
    ConvertRequest,
    DocumentOutcome,
)
from repro.service.state import TopicState, UnknownSchemaVersion

MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADERS = 100
# Read deadlines, in seconds: for a keep-alive connection's next request
# to start (then a close), and for its head and its body (then a 408).
IDLE_SECONDS = 60.0
HEADER_SECONDS = 10.0
BODY_SECONDS = 60.0
# Seconds a drain waits for in-flight HTTP requests before flushing the
# batcher regardless.
DRAIN_SECONDS = 30.0

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 413: "Payload Too Large",
    422: "Unprocessable Entity", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

# Metric names (service-level; engine counters share the registry).
REQUESTS = "repro_service_requests_total"
DOCUMENTS = "repro_service_documents_total"
REQUEST_SECONDS = "repro_service_request_seconds"
BATCH_DOCUMENTS = "repro_service_batch_documents"
QUEUE_WAIT_SECONDS = "repro_service_queue_wait_seconds"
INFLIGHT = "repro_service_inflight_requests"


class HttpError(Exception):
    """An HTTP-level failure with a status code."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


class ConversionService:
    """The long-lived daemon: warm pool + batcher + topic state + HTTP.

    The topic is ``kb.topic``; its state lives under
    ``<state_dir>/<topic>/``.  ``max_workers=None`` runs min(4, CPUs)
    workers; ``publish`` publishes folded documents into a versioned
    repository under the state dir.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        state_dir: str | Path,
        max_workers: int | None = None,
        publish: bool = False,
        conversion: ConversionConfig | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        if max_workers is None:
            max_workers = min(4, os.cpu_count() or 1)
        self.registry = MetricsRegistry()
        self.engine = CorpusEngine(
            kb,
            conversion,
            engine_config=EngineConfig(max_workers=max_workers, error_policy="skip"),
        )
        self.workers = self.engine.engine_config.resolved_workers()
        # The warm pool is built by start().
        self.pool: WorkerPool | None = None
        self.state = TopicState(
            kb.topic, kb, self.state_dir / kb.topic,
            registry=self.registry, publish=publish,
            max_workers=self.workers,
        )
        self.batcher = MicroBatcher(self._dispatch, inflight_window(self.workers))
        # Every micro-batch is one engine chunk of up to CHUNK_SIZE documents.
        self.stats = EngineStats(
            workers=self.workers,
            chunk_size=CHUNK_SIZE,
            registry=self.registry,
        )
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        # Service-wide document numbering (the engine's docNNNN ids);
        # only touched from the event loop, so a plain counter is safe.
        self._doc_cursor = 0
        self._chunk_indices = itertools.count()
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._started_at = time.monotonic()
        self._describe_metrics()

    def _describe_metrics(self) -> None:
        describe = self.registry.describe
        describe(REQUESTS, "HTTP requests served, by route and status code.")
        describe(DOCUMENTS, "Documents accepted for conversion over HTTP.")
        describe(REQUEST_SECONDS, "End-to-end /convert request latency in seconds.")
        describe(BATCH_DOCUMENTS, "Documents per dispatched engine chunk.")
        describe(
            QUEUE_WAIT_SECONDS,
            "Seconds a document waited in the micro-batch queue.",
        )
        describe(INFLIGHT, "HTTP requests currently being processed.")

    # -- lifecycle -----------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Warm the pool and start accepting; returns the bound address."""
        self.pool = self.engine.worker_pool()
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        ready: "Callable[[str, int], None] | None" = None,
    ) -> tuple[str, int]:
        """``serve``'s main: start, wait for SIGTERM/SIGINT, drain.

        ``ready`` is called with the bound address before blocking, so
        the CLI can announce the listening URL (port 0 binds ephemeral).
        """
        address = await self.start(host, port)
        if ready is not None:
            ready(*address)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown()
        return address

    async def shutdown(self) -> None:
        """Graceful drain: finish everything in flight, orphan nothing."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Every accepted request runs to completion: first the ones in
        # HTTP handlers (they may be waiting on batcher futures)...
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._idle.wait(), timeout=DRAIN_SECONDS)
        # ...then the batcher's queues and in-flight chunks.
        await self.batcher.drain()
        # Close idle and half-sent connections before wait_closed(),
        # which from Python 3.12.1 also waits for every open connection.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        # Workers exit with their pool; wait=True means no orphans.
        if self.pool is not None:
            self.pool.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- dispatch (batcher -> engine -> topic state) -------------------------

    async def _dispatch(self, fold: bool, batch: list[PendingDocument]) -> None:
        now = time.monotonic()
        wait_histogram = self.registry.histogram(QUEUE_WAIT_SECONDS)
        for pending in batch:
            wait_histogram.observe(now - pending.enqueued_at)
        self.registry.histogram(BATCH_DOCUMENTS).observe(len(batch))
        task = ChunkTask(
            next(self._chunk_indices),
            self._doc_cursor,
            [pending.request.source for pending in batch],
        )
        self._doc_cursor += len(batch)
        try:
            # The engine's step blocks on the chunk, and on the pool's
            # gate while a crash bisection runs, so it runs on a thread.
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self.engine.convert_chunk, self.pool, task, self.stats
            )
        except Exception as exc:
            payload = _engine_failure(task, exc)
            fold = False  # nothing converted, nothing to fold
        # Counters, failure counts included, feed /healthz and /metrics.
        self.stats.absorb(payload.stats)
        outcomes = self._split_payload(payload, task.base, batch)
        if fold:
            survivors = list(payload.xml)
            summary = await asyncio.get_running_loop().run_in_executor(
                None, self.state.fold, payload.accumulator, survivors
            )
            for outcome in outcomes:
                if outcome.ok:
                    outcome.folded = True
                    outcome.schema_version = summary["schema_version"]
                    outcome.fold_summary = summary
        await self._apply_schema_versions(batch, outcomes)
        for pending, outcome in zip(batch, outcomes):
            if not pending.future.done():
                pending.future.set_result(outcome)

    def _split_payload(
        self, payload, base: int, batch: list[PendingDocument]
    ) -> list[DocumentOutcome]:
        """Map a chunk payload back onto its documents: failures carry
        their corpus index, survivors' XML is in document order."""
        failures = {f.index - base: f for f in payload.failures}
        xml_iter = iter(payload.xml)
        outcomes = []
        for offset, pending in enumerate(batch):
            doc_id = pending.request.doc_id or f"doc{base + offset:04d}"
            seconds = time.monotonic() - pending.enqueued_at
            failure = failures.get(offset)
            if failure is not None:
                outcomes.append(DocumentOutcome(
                    ok=False, doc_id=doc_id, index=base + offset,
                    seconds=seconds,
                    error={
                        "stage": failure.stage,
                        "error_type": failure.error_type,
                        "message": failure.message,
                    },
                ))
            else:
                outcomes.append(DocumentOutcome(
                    ok=True, doc_id=doc_id, index=base + offset,
                    seconds=seconds, xml=next(xml_iter),
                ))
        return outcomes

    async def _apply_schema_versions(
        self, batch: list[PendingDocument], outcomes: list[DocumentOutcome]
    ) -> None:
        """Conform outcomes that pinned ``schema_version`` against the
        archived DTD (validated at request time, so lookups succeed)."""
        targeted = [
            (pending.request.schema_version, outcome)
            for pending, outcome in zip(batch, outcomes)
            if outcome.ok and pending.request.schema_version is not None
        ]
        if not targeted:
            return
        state = self.state
        loop = asyncio.get_running_loop()

        def conform_all() -> list[str | AssertionError]:
            conformed: list[str | AssertionError] = []
            for version, outcome in targeted:
                try:
                    conformed.append(
                        state.conform_to_version(outcome.xml, version)
                    )
                except AssertionError as exc:  # residue fails one document
                    conformed.append(exc)
            return conformed

        conformed = await loop.run_in_executor(None, conform_all)
        for (version, outcome), xml in zip(targeted, conformed):
            outcome.schema_version = version
            if isinstance(xml, AssertionError):
                outcome.ok, outcome.xml = False, None
                outcome.error = {
                    "stage": "conform",
                    "error_type": type(xml).__name__,
                    "message": str(xml),
                }
            else:
                outcome.xml = xml

    # -- request validation --------------------------------------------------

    def _check_request(self, request: ConvertRequest) -> None:
        if request.topic not in (None, self.state.topic):
            raise HttpError(404, f"unknown topic {request.topic!r}")
        if request.schema_version is not None:
            try:
                self.state.dtd_for_version(request.schema_version)
            except UnknownSchemaVersion as exc:
                raise HttpError(400, str(exc)) from exc

    # -- HTTP plumbing -------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    parsed = await _read_request(reader)
                except HttpError as exc:
                    writer.write(_response(exc.status, _error_body(exc), close=True))
                    await writer.drain()
                    return
                except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                    return
                if parsed is None:
                    return
                method, path, headers, body = parsed
                self._active_requests += 1
                self._idle.clear()
                self.registry.gauge(INFLIGHT).set(self._active_requests)
                started = time.monotonic()
                try:
                    status, payload = await self._route(method, path, body)
                except HttpError as exc:
                    status, payload = exc.status, _error_body(exc)
                except ContractError as exc:
                    status, payload = 400, _error_body(exc)
                except (ServiceDraining, PoolClosed) as exc:
                    status, payload = 503, _error_body(exc)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    status, payload = 500, _error_body(exc)
                finally:
                    self._active_requests -= 1
                    if self._active_requests == 0:
                        self._idle.set()
                    self.registry.gauge(INFLIGHT).set(self._active_requests)
                self.registry.counter(
                    REQUESTS, route=_route_label(method, path), code=str(status)
                ).inc()
                if path.startswith("/convert"):
                    self.registry.histogram(REQUEST_SECONDS).observe(
                        time.monotonic() - started
                    )
                keep = (
                    not self._draining
                    and headers.get("connection", "").lower() != "close"
                )
                content_type = (
                    "text/plain; version=0.0.4; charset=utf-8"
                    if path == "/metrics" else "application/json"
                )
                writer.write(_response(
                    status, payload, close=not keep, content_type=content_type
                ))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, bytes]:
        parts = [part for part in path.split("?")[0].split("/") if part]
        if not parts:
            if method != "GET":
                raise HttpError(405, "GET only")
            return 200, _json_body(self._describe_service())
        head = parts[0]
        if head == "healthz" and len(parts) == 1:
            if method != "GET":
                raise HttpError(405, "GET only")
            report = self._health_report()
            return (503 if self._draining else 200), _json_body(report)
        if head == "metrics" and len(parts) == 1:
            if method != "GET":
                raise HttpError(405, "GET only")
            return 200, self.registry.render_prometheus().encode("utf-8")
        if head == "schemas":
            if method != "GET":
                raise HttpError(405, "GET only")
            return self._route_schemas(parts[1:])
        if head == "convert":
            if method != "POST":
                raise HttpError(405, "POST only")
            data = _parse_json(body)
            if len(parts) == 1:
                return await self._handle_convert(data)
            if len(parts) == 2 and parts[1] == "batch":
                return await self._handle_batch(data)
        raise HttpError(404, f"no route for {method} {path}")

    def _route_schemas(self, rest: list[str]) -> tuple[int, bytes]:
        state = self.state
        if not rest:
            return 200, _json_body({"topics": [state.topic]})
        if rest[0] != state.topic:
            raise HttpError(404, f"unknown topic {rest[0]!r}")
        if len(rest) == 1:
            return 200, _json_body(state.describe())
        if len(rest) == 2:
            try:
                version = int(rest[1].lstrip("v"))
            except ValueError:
                raise HttpError(400, f"bad schema version {rest[1]!r}")
            try:
                dtd_text = state.dtd_text_for_version(version)
            except UnknownSchemaVersion as exc:
                raise HttpError(404, str(exc)) from exc
            return 200, _json_body(
                {"topic": state.topic, "version": version, "dtd": dtd_text}
            )
        raise HttpError(404, "no such schema route")

    async def _handle_convert(self, data: object) -> tuple[int, bytes]:
        request = ConvertRequest.parse(data)
        self._check_request(request)
        self.registry.counter(DOCUMENTS).inc()
        outcome = await self.batcher.submit(request)
        status = 200 if outcome.ok else 422
        return status, _json_body(outcome.to_json())

    async def _handle_batch(self, data: object) -> tuple[int, bytes]:
        requests = ConvertRequest.parse_batch(data)
        for request in requests:
            self._check_request(request)
        self.registry.counter(DOCUMENTS).inc(len(requests))
        results = await asyncio.gather(
            *(self.batcher.submit(request) for request in requests)
        )
        batch = BatchOutcome(results=list(results))
        if requests and requests[0].fold:
            batch.fold = self._batch_fold(batch.results)
        return 200, _json_body(batch.to_json())

    def _batch_fold(self, results: list[DocumentOutcome]) -> dict:
        """The batch's ``fold`` object, from the folds that took its
        documents: the latest one's summary, ``bumped`` if any of them
        bumped, and ``documents_folded`` counting this batch only.

        Folds may finish out of dispatch order; the topic's document
        total and schema version only grow, so the latest fold is the
        one with the largest pair."""
        summaries = [r.fold_summary for r in results if r.fold_summary is not None]
        if not summaries:
            # Nothing folded (every document failed): report where the
            # topic stands.
            evolving = self.state.evolving
            return {
                "documents_folded": 0,
                "total_documents": evolving.total_documents(),
                "schema_version": evolving.version,
                "bumped": False,
            }
        latest = max(
            summaries, key=lambda s: (s["total_documents"], s["schema_version"])
        )
        return {
            **latest,
            "documents_folded": len(summaries),
            "bumped": any(summary["bumped"] for summary in summaries),
        }

    # -- reporting -----------------------------------------------------------

    def _health_report(self) -> dict:
        worker_pids = sorted(self.pool.pids()) if self.pool is not None else []
        latency = self.registry.histogram(REQUEST_SECONDS).digest
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "workers": self.workers,
            "worker_pids": worker_pids,
            "documents": self.stats.documents,
            "documents_failed": self.stats.documents_failed,
            "queued": self.batcher.queued(),
            "topics": [self.state.topic],
            "latency": latency.summary() if latency.count else None,
        }

    def _describe_service(self) -> dict:
        return {
            "service": "repro-web",
            "routes": [
                "POST /convert",
                "POST /convert/batch",
                "GET /schemas/<topic>",
                "GET /schemas/<topic>/<version>",
                "GET /metrics",
                "GET /healthz",
            ],
            "topics": [self.state.topic],
        }


def _engine_failure(task: ChunkTask, exc: Exception) -> ChunkPayload:
    """The payload of a micro-batch the engine could not run at all:
    every document fails with ``stage="engine"``."""
    payload = ChunkPayload(
        xml=[], accumulator=PathAccumulator(), stats=ChunkStats(task.index)
    )
    for index in range(task.base, task.base + len(task.sources)):
        failure = DocumentFailure(
            f"doc{index:04d}", index, "engine", type(exc).__name__, str(exc)
        )
        payload.drop(failure, None)
    return payload


# -- wire helpers -------------------------------------------------------------


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket
    or one left idle for :data:`IDLE_SECONDS`.  A head or body that
    misses its deadline raises ``HttpError(408)``.

    A deadline is a timer that ends the reader's wait (an end of file
    when idle, the error otherwise), not a task per read."""
    loop = asyncio.get_running_loop()
    timer = loop.call_later(IDLE_SECONDS, reader.feed_eof)
    try:
        line = await reader.read(1)
        if not line:
            return None
        timer.cancel()
        timer = loop.call_later(
            HEADER_SECONDS, reader.set_exception,
            HttpError(408, f"request head not received in {HEADER_SECONDS:g} s"),
        )
        line += await reader.readline()
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise HttpError(400, "truncated headers")
            if len(headers) >= MAX_HEADERS:
                raise HttpError(431, "too many headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(400, f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding"):
            raise HttpError(400, "chunked bodies are not supported")
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise HttpError(400, f"bad content-length {length_text!r}")
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        timer.cancel()
        timer = loop.call_later(
            BODY_SECONDS, reader.set_exception,
            HttpError(408, f"request body not received in {BODY_SECONDS:g} s"),
        )
        body = await reader.readexactly(length)
        return method, target, headers, body
    finally:
        timer.cancel()


def _response(
    status: int,
    body: bytes,
    *,
    close: bool = False,
    content_type: str = "application/json",
) -> bytes:
    reason = _STATUS_TEXT.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def _json_body(data: dict) -> bytes:
    return (json.dumps(data) + "\n").encode("utf-8")


def _error_body(exc: Exception) -> bytes:
    return _json_body({"error": str(exc)})


def _parse_json(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(400, f"invalid JSON body: {exc}") from exc


def _route_label(method: str, path: str) -> str:
    """Collapse paths to bounded route labels (no per-topic explosion)."""
    clean = path.split("?")[0]
    if clean.startswith("/schemas"):
        clean = "/schemas"
    return f"{method} {clean}"
