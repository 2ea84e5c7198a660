"""Micro-batching with bounded backpressure.

Concurrent clients each submit one (or a few) documents; the engine
wants chunks.  The batcher bridges the two: submissions enqueue onto a
bounded per-lane :class:`asyncio.Queue` of :data:`MAX_QUEUED` documents
(a full queue makes ``await submit()`` wait -- callers are never
dropped), and one collector task per lane coalesces queued documents
into chunks of up to :data:`~repro.runtime.pool.CHUNK_SIZE`, the
engine's one chunk size.

Batching is adaptive: while the dispatch semaphore has free slots a
lone document ships immediately (no added latency on an idle service);
once every slot is busy the collector waits up to
:data:`LINGER_SECONDS` for companions, amortizing per-chunk overhead
exactly when load makes it worthwhile.

Lanes are keyed by the request's ``fold`` flag: a chunk's
:class:`~repro.schema.accumulator.PathAccumulator` is batch-wide, so a
fold must cover the whole chunk -- mixing fold and non-fold documents
in one chunk would fold strangers' statistics into the live schema.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

from repro.runtime.pool import CHUNK_SIZE
from repro.service.contracts import ConvertRequest, DocumentOutcome

# Documents one lane queues before ``submit()`` blocks (backpressure).
MAX_QUEUED = 1024
# Seconds a collector lingers for batch companions while every dispatch
# slot is busy.
LINGER_SECONDS = 0.005


class ServiceDraining(RuntimeError):
    """A submission arrived after drain began (HTTP 503)."""


@dataclass
class PendingDocument:
    """One enqueued document: the request plus its result future."""

    request: ConvertRequest
    future: "asyncio.Future[DocumentOutcome]"
    enqueued_at: float = field(init=False, default_factory=time.monotonic)


_CLOSE = object()

# Called with the lane's ``fold`` flag and the batch.
DispatchFn = Callable[[bool, list[PendingDocument]], Awaitable[None]]


class MicroBatcher:
    """Coalesces concurrent submissions into engine chunks, with at most
    ``max_inflight`` chunks dispatched at once."""

    def __init__(self, dispatch: DispatchFn, max_inflight: int) -> None:
        self._dispatch = dispatch
        self._inflight = asyncio.Semaphore(max_inflight)
        self._queues: dict[bool, asyncio.Queue] = {}
        self._collectors: dict[bool, asyncio.Task] = {}
        self._dispatches: set[asyncio.Task] = set()
        self._draining = False

    # -- submission ----------------------------------------------------------

    async def submit(self, request: ConvertRequest) -> DocumentOutcome:
        """Enqueue one document and wait for its outcome.

        Backpressure, not load-shedding: a full lane queue blocks the
        caller (and therefore the HTTP read loop for that client) until
        the engine catches up.  Zero dropped requests by construction.
        """
        if self._draining:
            raise ServiceDraining("service is draining")
        queue = self._lane_queue(request.fold)
        pending = PendingDocument(
            request, asyncio.get_running_loop().create_future()
        )
        await queue.put(pending)
        return await pending.future

    def _lane_queue(self, lane: bool) -> asyncio.Queue:
        queue = self._queues.get(lane)
        if queue is None:
            queue = self._queues[lane] = asyncio.Queue(maxsize=MAX_QUEUED)
            self._collectors[lane] = asyncio.get_running_loop().create_task(
                self._collect(lane, queue)
            )
        return queue

    # -- collection ----------------------------------------------------------

    async def _collect(self, lane: bool, queue: asyncio.Queue) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await queue.get()
            if first is _CLOSE:
                return
            batch = [first]
            deadline = loop.time() + LINGER_SECONDS
            closing = False
            while len(batch) < CHUNK_SIZE:
                # Drain whatever is already queued for free.
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    item = None
                if item is None:
                    # Nothing waiting: only linger for companions when
                    # every dispatch slot is busy anyway.
                    if not self._inflight.locked():
                        break
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if item is _CLOSE:
                    closing = True
                    break
                batch.append(item)
            await self._inflight.acquire()
            task = loop.create_task(self._run_dispatch(lane, batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
            if closing:
                return

    async def _run_dispatch(
        self, lane: bool, batch: list[PendingDocument]
    ) -> None:
        try:
            await self._dispatch(lane, batch)
        except Exception as exc:  # pragma: no cover - dispatch guards itself
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
        finally:
            self._inflight.release()

    # -- drain ---------------------------------------------------------------

    async def drain(self) -> None:
        """Stop accepting, flush every queued document, and wait for all
        in-flight dispatches: the graceful half of SIGTERM."""
        self._draining = True
        for queue in self._queues.values():
            await queue.put(_CLOSE)
        if self._collectors:
            await asyncio.gather(*self._collectors.values())
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches), return_exceptions=True)

    def queued(self) -> int:
        return sum(queue.qsize() for queue in self._queues.values())
