"""Request/result wire contracts for the conversion service.

Everything that crosses the HTTP boundary is defined here, parsed with
explicit validation (a :class:`ContractError` maps to a 400), so the
server and batcher never see malformed input.  The split mirrors the
request-contract / result-contract / store layering of analyzer-style
pipelines: contracts here, artifacts in :mod:`repro.service.state`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# One document's HTML; resumes are kilobytes, so this is generous while
# still bounding what a single request can pin in memory.
MAX_SOURCE_BYTES = 4 * 1024 * 1024
# Documents per batch request: larger batches gain nothing over the
# micro-batcher's own coalescing and would bypass queue backpressure.
MAX_BATCH_DOCUMENTS = 256


class ContractError(ValueError):
    """A request failed contract validation (HTTP 400)."""

    def __init__(self, message: str, *, field_name: str | None = None) -> None:
        self.field_name = field_name
        where = f"{field_name}: " if field_name else ""
        super().__init__(f"{where}{message}")


def _require_mapping(data: object) -> dict:
    if not isinstance(data, dict):
        raise ContractError("request body must be a JSON object")
    return data


def _parse_source(value: object) -> str:
    if not isinstance(value, str):
        raise ContractError("must be an HTML string", field_name="source")
    if not value.strip():
        raise ContractError("must not be empty", field_name="source")
    if len(value.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise ContractError(
            f"exceeds {MAX_SOURCE_BYTES} bytes", field_name="source"
        )
    return value


def _parse_doc_id(value: object) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value or len(value) > 200:
        raise ContractError(
            "must be a non-empty string (<= 200 chars)", field_name="doc_id"
        )
    return value


def _parse_topic(value: object) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value.isidentifier():
        raise ContractError(
            "must be an identifier-like string", field_name="topic"
        )
    return value


def _parse_schema_version(value: object) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ContractError(
            "must be a positive integer", field_name="schema_version"
        )
    return value


def _parse_fold(value: object) -> bool:
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ContractError("must be a boolean", field_name="fold")
    return value


@dataclass(frozen=True)
class ConvertRequest:
    """One document to convert.

    ``fold`` folds the document's path statistics into the topic's live
    accumulator (advancing the evolving schema); ``schema_version``
    instead conforms the output against an archived schema version.
    The two are mutually exclusive: folding targets the *live* head.
    ``topic`` is ``None`` when the request names none: the service
    serves one topic, so that means its own.
    """

    source: str
    doc_id: str | None = None
    topic: str | None = None
    fold: bool = False
    schema_version: int | None = None

    def __post_init__(self) -> None:
        if self.fold and self.schema_version is not None:
            raise ContractError(
                "fold targets the live accumulator; it cannot also pin "
                "schema_version"
            )

    @classmethod
    def parse(cls, data: object) -> "ConvertRequest":
        body = _require_mapping(data)
        return cls(
            source=_parse_source(body.get("source")),
            doc_id=_parse_doc_id(body.get("doc_id")),
            topic=_parse_topic(body.get("topic")),
            fold=_parse_fold(body.get("fold")),
            schema_version=_parse_schema_version(body.get("schema_version")),
        )

    @classmethod
    def parse_batch(cls, data: object) -> list["ConvertRequest"]:
        """Parse a batch request: ``documents`` (strings or per-document
        objects) plus batch-level ``topic``/``fold``/``schema_version``
        defaults applied to documents that do not override them."""
        body = _require_mapping(data)
        documents = body.get("documents")
        if not isinstance(documents, list) or not documents:
            raise ContractError(
                "must be a non-empty list", field_name="documents"
            )
        if len(documents) > MAX_BATCH_DOCUMENTS:
            raise ContractError(
                f"at most {MAX_BATCH_DOCUMENTS} documents per batch",
                field_name="documents",
            )
        topic = _parse_topic(body.get("topic"))
        fold = _parse_fold(body.get("fold"))
        schema_version = _parse_schema_version(body.get("schema_version"))
        requests: list[ConvertRequest] = []
        for position, entry in enumerate(documents):
            if isinstance(entry, str):
                entry = {"source": entry}
            if not isinstance(entry, dict):
                raise ContractError(
                    "entries must be HTML strings or objects",
                    field_name=f"documents[{position}]",
                )
            requests.append(
                cls(
                    source=_parse_source(entry.get("source")),
                    doc_id=_parse_doc_id(entry.get("doc_id")),
                    topic=topic,
                    fold=fold,
                    schema_version=schema_version,
                )
            )
        return requests


@dataclass
class DocumentOutcome:
    """The result of converting one document.

    Exactly one of ``xml``/``error`` is set.  ``index`` is the
    service-wide document position (the engine's ``docNNNN`` numbering);
    ``doc_id`` echoes the client's id when one was supplied.
    """

    ok: bool
    doc_id: str
    index: int
    xml: str | None = None
    error: dict | None = None
    seconds: float = 0.0
    schema_version: int | None = None
    folded: bool = False
    # The summary of the fold that took this document (not serialized;
    # the batch response reports it once, in its ``fold`` object).
    fold_summary: dict | None = None

    def to_json(self) -> dict:
        out: dict = {
            "ok": self.ok,
            "doc_id": self.doc_id,
            "index": self.index,
            "seconds": round(self.seconds, 6),
        }
        if self.ok:
            out["xml"] = self.xml
        else:
            out["error"] = self.error
        if self.schema_version is not None:
            out["schema_version"] = self.schema_version
        if self.folded:
            out["folded"] = True
        return out


@dataclass
class BatchOutcome:
    """The result of a batch request, in submission order."""

    results: list[DocumentOutcome] = field(default_factory=list)
    fold: dict | None = None

    @property
    def converted(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def to_json(self) -> dict:
        out: dict = {
            "documents": len(self.results),
            "converted": self.converted,
            "failed": self.failed,
            "results": [r.to_json() for r in self.results],
        }
        if self.fold is not None:
            out["fold"] = self.fold
        return out
