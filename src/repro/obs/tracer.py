"""Hierarchical span tracing for the conversion/discovery pipeline.

A :class:`Span` is one timed region (a rule application, a chunk, a
discovery stage) with a name, attributes, and a parent -- together the
spans of one run form a tree whose root is the engine run and whose
leaves are individual rule applications.  :class:`Tracer` hands out
spans through a context-manager API::

    with tracer.span("convert.tokenize", doc="doc0003") as span:
        tokens = apply_tokenization_rule(...)
        span.set(tokens=tokens)

**One stage clock.**  :meth:`Tracer.stage` times a stage into the
caller's seconds dict and builds its span (named by :data:`STAGE_SPANS`)
from the same two clock readings; :meth:`Tracer.span` is the same
:class:`StageClock` without the dict.  The default everywhere is
:data:`NULL_TRACER`: its ``stage`` still times, and its ``span`` is a
reusable no-op -- no span objects, no clock reads, no allocation.

**Crossing the process boundary.**  Worker processes cannot share a
tracer, so each chunk worker builds its own, serializes its spans with
:meth:`Tracer.export`, and ships plain dicts back in the chunk payload.
The parent re-parents them with :meth:`Tracer.adopt`: span ids are
namespaced by a per-chunk prefix (keeping them unique corpus-wide) and
roots of the worker's span forest are attached under the parent's
current span.  Span clocks are ``time.perf_counter`` readings, which are
process-local: durations (``seconds``) are always meaningful, absolute
``start``/``end`` values only within one process.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Iterator, Mapping

# Stage label -> span name for every timed stage of one document, in
# pipeline order; the end-to-end "document" stage encloses the others.
STAGE_SPANS: dict[str, str] = {
    "parse": "convert.parse",
    "tidy": "convert.tidy",
    "tokenize": "convert.tokenize",
    "instance": "convert.instance",
    "group": "convert.group",
    "consolidate": "convert.consolidate",
    "root": "convert.root",
    "to_xml": "convert.to_xml",
    "extract_paths": "discover.extract_paths",
    "document": "convert.document",
}


class Span:
    """One timed, named, attributed region of the pipeline."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None = None,
        start: float = 0.0,
        end: float = 0.0,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def seconds(self) -> float:
        """Wall-clock duration of the span."""
        return max(0.0, self.end - self.start)

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span (counters, ids, outcomes)."""
        self.attrs.update(attrs)

    def to_dict(self) -> dict:
        """JSONL-ready representation (``kind`` discriminates records)."""
        return {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Span":
        return cls(
            name=data["name"],
            span_id=data["id"],
            parent_id=data.get("parent"),
            start=float(data.get("start", 0.0)),
            end=float(data.get("end", 0.0)),
            attrs=dict(data.get("attrs", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, id={self.span_id!r}, {self.seconds:.6f}s)"


class StageClock:
    """The one clock primitive: ``perf_counter`` is read once on entry
    and once on exit.  ``end - start`` is stored in ``seconds[label]``
    (also when the region raises) and, with a recording tracer, the
    span is registered with those same two readings."""

    __slots__ = ("_seconds", "_label", "_tracer", "_span", "_start")

    def __init__(
        self,
        seconds: dict[str, float] | None,
        label: str,
        tracer: "Tracer | None" = None,
        span: Span | None = None,
    ) -> None:
        self._seconds = seconds
        self._label = label
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "Span | _NullSpan":
        if self._tracer is not None:
            self._tracer._stack.append(self._span.span_id)  # type: ignore[union-attr]
        self._start = time.perf_counter()
        return self._span or _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        if self._seconds is not None:
            self._seconds[self._label] = end - self._start
        tracer, span = self._tracer, self._span
        if tracer is not None and span is not None:
            span.start, span.end = self._start, end
            tracer._stack.pop()
            tracer.spans.append(span)


class Tracer:
    """Collects a tree of spans; the active ("recording") tracer."""

    enabled = True

    def __init__(self, *, id_prefix: str = "s") -> None:
        self.spans: list[Span] = []
        self._stack: list[str] = []
        self._id_prefix = id_prefix
        self._next_id = 0

    def span(self, name: str, **attrs: object) -> StageClock:
        """A context manager for one timed span, nested under the
        currently open span (if any)."""
        return StageClock(None, name, self, self._open(name, attrs))

    def stage(
        self, label: str, seconds: dict[str, float], **attrs: object
    ) -> StageClock:
        """Time ``label`` into ``seconds[label]`` and record its span,
        named by :data:`STAGE_SPANS` (a label outside the table, such as
        a chunk or a sweep point, names its span itself)."""
        return StageClock(
            seconds, label, self, self._open(STAGE_SPANS.get(label, label), attrs)
        )

    def _open(self, name: str, attrs: dict) -> Span:
        self._next_id += 1
        span_id = f"{self._id_prefix}{self._next_id}"
        return Span(name, span_id, parent_id=self.current_span_id, attrs=attrs)

    @property
    def current_span_id(self) -> str | None:
        """Id of the innermost open span, or ``None`` at the top level."""
        return self._stack[-1] if self._stack else None

    # -- serialization across the process boundary ---------------------------

    def export(self) -> list[dict]:
        """Spans as plain dicts, completion order (children first)."""
        return [span.to_dict() for span in self.spans]

    def adopt(self, span_dicts: list[dict], *, prefix: str = "") -> list[Span]:
        """Graft serialized spans from another process into this tracer.

        Every span id (and internal parent reference) is namespaced with
        ``prefix`` so ids stay unique after merging many workers; spans
        that were roots in the worker (no parent) are re-parented under
        this tracer's current span.
        """
        parent_id = self.current_span_id
        adopted: list[Span] = []
        for data in span_dicts:
            span = Span.from_dict(data)
            span.span_id = prefix + span.span_id
            if span.parent_id is None:
                span.parent_id = parent_id
            else:
                span.parent_id = prefix + span.parent_id
            self.spans.append(span)
            adopted.append(span)
        return adopted

    # -- queries (tests, reports) --------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def names(self) -> set[str]:
        return {span.name for span in self.spans}

    def iter_dicts(self) -> Iterator[dict]:
        for span in self.spans:
            yield span.to_dict()


class _NullSpan:
    """The do-nothing span yielded when tracing is off."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        pass


class NullTracer:
    """No-op tracer: the default on every instrumented code path.

    ``stage`` times into the caller's seconds dict and records no span.
    ``span`` (a region that is not a stage) returns a shared, stateless
    context manager -- no clock reads, no allocations.
    """

    enabled = False

    def span(self, name: str, **attrs: object) -> nullcontext[_NullSpan]:
        return _NULL_CONTEXT

    def stage(
        self, label: str, seconds: dict[str, float], **attrs: object
    ) -> StageClock:
        """Time ``label`` into ``seconds[label]``; no span."""
        return StageClock(seconds, label)

    @property
    def current_span_id(self) -> None:
        return None

    def export(self) -> list[dict]:
        return []

    def adopt(self, span_dicts: list[dict], **kwargs: object) -> list[Span]:
        return []


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = nullcontext(_NULL_SPAN)
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """``tracer`` if given, else the shared no-op tracer."""
    return tracer if tracer is not None else NULL_TRACER
