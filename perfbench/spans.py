"""The benchmark's own span recorder (the traced run only).

Spans sit around calls into the program's public entry points and
around each phase of a client request; the program itself records
nothing.  Spans stay in memory and are written out once, when the run
ends.  A span's *self time* is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": self.parent, "rid": self.rid,
        }


@dataclass
class SpanLog:
    """Spans of one process; ``prefix`` keeps ids unique when logs of
    several processes are merged."""

    prefix: str = ""
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, rid: str = ""):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        start = time.perf_counter()
        record = Span(span_id, name, start, start, parent, rid)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, rid: str = "",
            parent: int | None = None) -> int:
        """Record a span measured elsewhere (e.g. one phase of a client
        request timed inside the load generator)."""
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, rid))
        return span_id

    def export(self) -> list[dict]:
        out = []
        for span in self.spans:
            record = span.to_json()
            record["id"] = f"{self.prefix}{span.id}"
            if span.parent is not None:
                record["parent"] = f"{self.prefix}{span.parent}"
            out.append(record)
        return out


def self_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self seconds, span count).

    Children of one parent do not overlap (each process records
    sequentially), so covered time is the sum of child durations
    clipped to the parent's interval.
    """
    covered: dict[str, float] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            covered[parent["id"]] = covered.get(parent["id"], 0.0) + (end - start)
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        own = max(0.0, span["end"] - span["start"] - covered.get(span["id"], 0.0))
        seconds, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (seconds + own, count + 1)
    return totals

