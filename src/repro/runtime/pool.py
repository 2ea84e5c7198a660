"""The one worker pool behind every parallel path in the reproduction.

The paper converts each document independently (Section 2) and mines
the schema from corpus-level path statistics (Section 3), so all of the
repo's parallelism has one shape: build expensive per-worker state once,
run chunks of work against it, and merge the results back in order
under a bounded window.  :class:`WorkerPool` is that shape, and this
module is the only place that builds a ``ProcessPoolExecutor``:

* **one state slot per worker** -- ``state_factory(*state_args)`` runs
  in the pool initializer, and every task ``fn(state, *args)`` receives
  the result (the engine's converter, migration's parsed DTD);
* **copy-on-write adoption under fork** -- the parent builds the state
  too (the inline path needs it anyway) and registers it under its
  ``state_args``.  A forked worker receives the *identical* initargs
  objects, finds the registered state and adopts it instead of calling
  the factory again; under spawn the initargs arrive as copies, the
  identity check fails, and each worker builds its own;
* **inline execution** when ``workers == 1`` -- no processes, no
  pickling; :meth:`WorkerPool.submit` runs the task at once, one task
  at a time across threads, and returns a completed future (the
  degenerate case differential tests use);
* :meth:`WorkerPool.map` -- ordered results over a bounded window of
  :func:`inflight_window` chunks (the window the engine's merge and the
  service's dispatch share);
* :meth:`WorkerPool.exclusive` -- the gate of crash recovery: it waits
  until every task in flight has finished or died, then keeps every
  other thread's submit off the pool until the block ends;
* :meth:`WorkerPool.rebuild`, :meth:`WorkerPool.pids` and
  :meth:`WorkerPool.shutdown` -- the lifecycle crash recovery and the
  service's drain need.

Task functions and state factories must be module-level callables:
they cross the process boundary by reference.  What to do when a worker
dies (bisecting a chunk, blaming a document) is the caller's policy;
the pool only replaces the broken executor when asked.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

Item = TypeVar("Item")

# The worker process's state slot, filled once by the pool initializer.
_STATE: object = None

# Documents (or items) per pool task: the engine's default chunk, and
# migration's.  Results do not depend on it; it only trades per-task
# overhead against load balance.
CHUNK_SIZE = 16

# Parent-built states keyed by id(state_args), each kept with its
# state_args tuple so the id stays unique while registered.  Forked
# workers inherit this dict; spawned ones start with it empty.
_PREFORK: dict[int, tuple[tuple, object]] = {}


def _init_worker(state_factory: Callable[..., object], state_args: tuple) -> None:
    global _STATE
    prebuilt = _PREFORK.get(id(state_args))
    if prebuilt is not None and prebuilt[0] is state_args:
        _STATE = prebuilt[1]
    else:
        _STATE = state_factory(*state_args)


def _call(fn: Callable, args: tuple) -> object:
    return fn(_STATE, *args)


def _map_chunk(state: object, fn: Callable, items: list) -> list:
    return [fn(state, item) for item in items]


class PoolClosed(RuntimeError):
    """Work was submitted after the pool shut down."""


def resolve_workers(workers: int | None) -> int:
    """``None`` means every CPU; anything else is at least one."""
    if workers is None:
        return os.cpu_count() or 1
    return max(1, workers)


def inflight_window(workers: int) -> int:
    """Chunks submitted but not yet consumed, at most: two per worker,
    so each worker has its next chunk queued while the oldest result is
    merged.  :meth:`WorkerPool.map`, the engine's stream and the
    service's dispatch all bound their in-flight work by it."""
    return 2 * workers


def chunked(items: Iterable[Item], size: int) -> Iterator[list[Item]]:
    """Split ``items`` into lists of ``size`` (the last may be shorter)."""
    chunk: list[Item] = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class _RecordingContext:
    """The default multiprocessing context, remembering the processes it
    starts so :meth:`WorkerPool.pids` needs no executor internals."""

    def __init__(self) -> None:
        self._context = multiprocessing.get_context()
        self.processes: list = []

    def __getattr__(self, name: str):
        return getattr(self._context, name)

    def Process(self, *args, **kwargs):  # the context API's name
        process = self._context.Process(*args, **kwargs)
        self.processes.append(process)
        return process


class WorkerPool:
    """Run ``fn(state, *args)`` tasks against per-worker state.

    ``state`` is the parent-side state; pass it when the caller already
    built one (the engine reuses its inline converter), otherwise the
    pool calls the factory once in the parent.  Usable as a context
    manager that shuts down with ``wait=True`` on exit.
    """

    def __init__(
        self,
        state_factory: Callable[..., object],
        state_args: tuple = (),
        *,
        workers: int | None = None,
        state: object = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.state_factory = state_factory
        self.state_args = state_args
        self.state = state if state is not None else state_factory(*state_args)
        self._executor: ProcessPoolExecutor | None = None
        self._context: _RecordingContext | None = None
        self._closed = False
        # The pool's one lock: inline tasks run under it (the state is
        # not thread-safe), every submit takes it, and exclusive() holds it.
        self._lock = threading.RLock()
        self._inflight: set[Future] = set()
        if self.workers > 1:
            _PREFORK[id(state_args)] = (state_args, self.state)
            self._spawn()

    def _spawn(self) -> None:
        self._context = _RecordingContext()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_init_worker,
            initargs=(self.state_factory, self.state_args),
        )

    def submit(self, fn: Callable, *args) -> Future:
        """Schedule ``fn(state, *args)``; inline pools run it now.

        A broken process pool raises ``BrokenProcessPool`` here or from
        the returned future; :meth:`rebuild` makes the pool usable again.
        While another thread holds :meth:`exclusive`, this waits.
        """
        if self._closed:
            raise PoolClosed("worker pool is shut down")
        with self._lock:
            if self._executor is None:
                future: Future = Future()
                try:
                    future.set_result(fn(self.state, *args))
                except Exception as exc:
                    future.set_exception(exc)
                return future
            future = self._executor.submit(_call, fn, args)
            self._inflight.add(future)
        future.add_done_callback(self._inflight.discard)
        return future

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Have the pool alone: wait until every task in flight has
        finished or died, then hold every other thread's :meth:`submit`
        until the block ends (the holder's own submits go through)."""
        with self._lock:
            wait(list(self._inflight))
            yield

    def map(
        self,
        fn: Callable[[object, Item], object],
        items: Iterable[Item],
        *,
        chunk_size: int,
    ) -> Iterator:
        """Yield ``fn(state, item)`` for every item, in item order.

        Items travel in chunks of ``chunk_size``; at most
        :func:`inflight_window` chunks are in flight, so the oldest is
        drained before the window overflows.  Errors raised by ``fn``
        propagate to the caller.
        """
        window = inflight_window(self.workers)
        pending: deque[Future] = deque()
        for chunk in chunked(items, chunk_size):
            pending.append(self.submit(_map_chunk, fn, chunk))
            while len(pending) >= window:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()

    def rebuild(self) -> None:
        """Replace a broken executor with fresh workers (same state)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._spawn()

    def pids(self) -> list[int]:
        """Process ids of the current workers (empty when inline or shut
        down, and until the first task starts them)."""
        if self._executor is None or self._context is None:
            return []
        # A process is recorded just before it starts; skip one caught
        # in between (no pid yet).
        return sorted(
            process.pid
            for process in self._context.processes
            if process.pid is not None
        )

    def shutdown(self, *, wait: bool = True, cancel_futures: bool = False) -> None:
        self._closed = True
        _PREFORK.pop(id(self.state_args), None)
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
