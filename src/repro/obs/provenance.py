"""Per-document provenance: why each node of the output looks the way
it does.

Two record kinds, both plain dicts destined for JSONL:

* ``rule`` -- one record per conversion-rule application per document
  (rule name, wall seconds, the rule's own counters), so "which rule
  rewrote this document, and what did it do" is answerable offline.
* ``concept`` -- one record per concept-instance decision of the
  instance rule (Section 2.3.1), keyed by document id and the token's
  label path at decision time: ``decision`` is ``synonym`` (a matched
  keyword, confidence = matched fraction of the token text), ``bayes``
  (classifier win, confidence = log-odds margin in nats), or
  ``unlabeled`` (the token text passed to the parent ``val``).  Split
  tokens emit one ``synonym`` record per surviving instance with
  ``split: true``.

A :class:`ProvenanceLog` is just an ordered list of these dicts; worker
processes ship their chunk's events back to the parent, which extends
its own log, so event order follows document order exactly like the
engine's XML output.  When provenance is off, every instrumented call
site holds ``None`` and skips event construction entirely.
"""

from __future__ import annotations

from typing import Iterable

from repro.dom.node import Element, Node

_TEXT_SNIPPET = 80


class ProvenanceLog:
    """An append-only list of provenance event dicts."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def __len__(self) -> int:
        return len(self.events)

    def rule_event(
        self, doc_id: str | None, rule: str, seconds: float, **counters: object
    ) -> None:
        """Record one rule application on one document."""
        self.events.append(
            {
                "kind": "rule",
                "doc": doc_id,
                "rule": rule,
                "seconds": round(seconds, 6),
                **counters,
            }
        )

    def concept_event(
        self,
        doc_id: str | None,
        node_path: str,
        decision: str,
        *,
        concept: str | None = None,
        confidence: float = 0.0,
        text: str = "",
        **extra: object,
    ) -> None:
        """Record one concept-instance decision on one token."""
        self.events.append(
            {
                "kind": "concept",
                "doc": doc_id,
                "node_path": node_path,
                "decision": decision,
                "concept": concept,
                "confidence": round(float(confidence), 6),
                "text": text[:_TEXT_SNIPPET],
                **extra,
            }
        )

    def error_event(
        self,
        doc_id: str | None,
        stage: str,
        error_type: str,
        message: str,
        *,
        index: int | None = None,
        **extra: object,
    ) -> None:
        """Record one document the error policy dropped.

        ``stage`` is the pipeline stage that failed (``"worker"`` when
        the document killed its worker process); ``index`` is the
        document's corpus-wide position.  Error events interleave with
        rule/concept events in document order, so the provenance log
        answers "what happened to doc N" uniformly for survivors and
        casualties.
        """
        event: dict = {
            "kind": "error",
            "doc": doc_id,
            "stage": stage,
            "error": error_type,
            "message": message[:_TEXT_SNIPPET * 4],
        }
        if index is not None:
            event["index"] = index
        event.update(extra)
        self.events.append(event)

    def extend(self, events: Iterable[dict]) -> None:
        """Append events shipped from another process."""
        self.events.extend(events)

    def by_kind(self, kind: str) -> list[dict]:
        return [event for event in self.events if event.get("kind") == kind]


def node_label_path(node: Node) -> str:
    """The node's slash path from its tree root, with sibling indices.

    ``RESUME/SECTION[1]/TOKEN[4]`` names the fifth element child of the
    second section -- stable against text siblings, and computed *before*
    the instance rule rewrites the token, so it addresses the input
    position the decision was made at.
    """
    segments: list[str] = []
    current: Node | None = node
    while current is not None:
        if isinstance(current, Element):
            parent = current.parent
            if parent is None:
                segments.append(current.tag)
            else:
                index = parent.element_children().index(current)
                segments.append(f"{current.tag}[{index}]")
        current = current.parent
    return "/".join(reversed(segments))
