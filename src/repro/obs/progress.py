"""Rate-limited live progress/ETA reporting for long corpus runs.

A :class:`ProgressReporter` is the engine's ``progress`` hook: the merge
loop calls it with the run's :class:`~repro.runtime.stats.EngineStats`
after every chunk merge, and it renders a single self-overwriting
stderr line::

    [repro-web]  312/1000 docs  31%  847.2 docs/s  ETA 0.8s  (2 failed)

Three properties keep it safe to leave on by default:

* **Rate-limited** -- at most one render per ``min_interval`` seconds
  (plus a final one from :meth:`finish`), so a million-document run
  costs a handful of writes per second, not one per chunk.
* **Auto-disabled off-TTY** -- when the target stream is not a terminal
  (CI logs, pipes) nothing is written unless the caller forces
  ``enabled=True`` (the CLI's ``--progress``); ``--quiet`` forces it
  off.  A disabled reporter's ``__call__`` is a cheap early return.
* **Out-of-band** -- it writes to stderr only and never touches the
  conversion output, so XML/DTD bytes are identical with progress on or
  off (the run-intelligence differential tests pin this).

The ETA comes from the merged chunk stats: documents finished so far
over elapsed wall time, extrapolated to the remaining document count
(unknown totals render without the ETA/percent fields).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Protocol, TextIO


class _StatsLike(Protocol):  # pragma: no cover - typing aid
    documents: int
    documents_failed: int
    wall_seconds: float


# Rate computations floor elapsed time here: a first-tick merge can
# arrive with microseconds on the clock, and dividing by it would print
# an absurd six-figure docs/s (and a bogus near-zero ETA) before the
# run settles.  Mirrors stats.MIN_WALL_SECONDS.
MIN_RATE_ELAPSED = 1e-3


def _default_enabled(stream: TextIO) -> bool:
    isatty = getattr(stream, "isatty", None)
    try:
        return bool(isatty()) if callable(isatty) else False
    except (OSError, ValueError):
        return False


class ProgressReporter:
    """Renders live progress for one engine run; call :meth:`finish` (or
    use as a context manager) to terminate the line."""

    def __init__(
        self,
        total: int | None = None,
        *,
        stream: TextIO | None = None,
        min_interval: float = 0.2,
        enabled: bool | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.enabled = (
            _default_enabled(self.stream) if enabled is None else enabled
        )
        self.clock = clock
        self.renders = 0
        self._last_render = float("-inf")
        self._last_width = 0
        self._finished = False

    # -- engine hook ----------------------------------------------------------

    def __call__(self, stats: _StatsLike) -> None:
        """The engine's per-merge progress hook."""
        if not self.enabled:
            return
        now = self.clock()
        if now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self._render(stats.documents, stats.documents_failed, stats.wall_seconds)

    def finish(self, stats: _StatsLike | None = None) -> None:
        """Render one final line (ignoring the rate limit) and end it.

        Idempotent, and a no-op when nothing was ever rendered and no
        final stats were supplied: a run that never drew a progress line
        (or an exception path calling ``finish()`` defensively) must not
        emit a stray newline into captured stderr."""
        if not self.enabled or self._finished:
            return
        if stats is not None:
            self._render(
                stats.documents, stats.documents_failed, stats.wall_seconds
            )
        self._finished = True
        if self.renders == 0:
            return
        self.stream.write("\n")
        self.stream.flush()

    def __enter__(self) -> "ProgressReporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.finish()

    # -- rendering ------------------------------------------------------------

    def format_line(self, done: int, failed: int, elapsed: float) -> str:
        """The progress line for a given state (exposed for tests).

        Degenerate inputs stay sane: zero/negative elapsed never
        divides by zero, sub-millisecond first ticks are floored to
        :data:`MIN_RATE_ELAPSED` so the rate (and the ETA derived from
        it) is never garbage, and a zero rate suppresses the ETA field
        entirely rather than extrapolating from nothing."""
        rate = done / max(elapsed, MIN_RATE_ELAPSED) if done > 0 else 0.0
        parts = ["[repro-web] "]
        if self.total is not None and self.total > 0:
            finished = done + failed
            percent = min(1.0, finished / self.total)
            parts.append(f" {done}/{self.total} docs  {percent:.0%}")
        else:
            parts.append(f" {done} docs")
        parts.append(f"  {rate:.1f} docs/s")
        if self.total is not None and rate > 0:
            remaining = max(0, self.total - done - failed)
            parts.append(f"  ETA {remaining / rate:.1f}s")
        if failed:
            parts.append(f"  ({failed} failed)")
        return "".join(parts)

    def _render(self, done: int, failed: int, elapsed: float) -> None:
        line = self.format_line(done, failed, elapsed)
        # Overwrite the previous line in place; pad with spaces when the
        # new line is shorter so stale characters never linger.
        padding = " " * max(0, self._last_width - len(line))
        self.stream.write("\r" + line + padding)
        self.stream.flush()
        self._last_width = len(line)
        self.renders += 1
