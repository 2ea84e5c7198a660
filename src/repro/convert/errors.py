"""Structured conversion failures and the policies that govern them.

Real-web corpora are heterogeneously authored; at scale, documents that
crash some pipeline stage are a *counted outcome*, not an exceptional
one.  This module defines the vocabulary the fault-tolerance layer is
built from:

* :class:`PipelineStageError` -- the exception
  :meth:`repro.convert.pipeline.DocumentConverter.convert` wraps any
  stage failure in, so callers learn *which* of the four rules (or
  parse/tidy) rejected the document without the pipeline growing
  per-stage error handling.
* :class:`DocumentFailure` -- the picklable record a failure becomes
  under a non-fail-fast policy: document id, corpus position, pipeline
  stage, exception type, message, and a truncated traceback.  Workers
  ship these home instead of raising.
* :class:`ErrorPolicy` -- what to do when a document fails:
  ``fail_fast`` (raise, the historical behavior and the default),
  ``skip`` (record and continue), or ``quarantine`` (record, continue,
  and save the offending source plus an error JSON to a directory).
  A run spells its policy once, as the mode string of
  ``EngineConfig.error_policy``; the engine turns it into the one
  ``ErrorPolicy(mode, quarantine_dir)`` it applies.

These live at the conversion layer (not :mod:`repro.runtime`) because
they describe one document's conversion; the engine applies the
policies to a corpus, and the engine and the service import them from
here.  The engine-side machinery (worker-crash recovery, chunk
bisection) builds on top in :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import json
import traceback as traceback_module
from dataclasses import dataclass
from pathlib import Path

# Keep shipped tracebacks bounded: chunk payloads cross the process
# boundary and quarantine JSONs should stay human-sized.
TRACEBACK_LIMIT = 2000

ERROR_MODES = ("fail_fast", "skip", "quarantine")


class PipelineStageError(Exception):
    """A conversion-pipeline stage raised while converting one document.

    ``stage`` is the pipeline stage name ("parse", "tidy", "tokenize",
    "instance", "group", "consolidate", "root", or "inject" for chaos
    faults); the original exception is chained as ``__cause__``.
    """

    def __init__(self, stage: str, doc_id: str | None = None) -> None:
        self.stage = stage
        self.doc_id = doc_id
        where = f" ({doc_id})" if doc_id else ""
        super().__init__(f"conversion failed in stage {stage!r}{where}")

    def __reduce__(self):
        # args holds the formatted message, not (stage, doc_id); without
        # this, crossing a process boundary (fail-fast in a pool worker)
        # re-inits with the message as the stage and nests the text.
        return (type(self), (self.stage, self.doc_id))


class InjectedFaultError(RuntimeError):
    """Raised by the pipeline's chaos hook (``chaos_fail_marker``)."""


@dataclass
class DocumentFailure:
    """One document that could not be converted.

    ``index`` is the document's corpus-wide position (the position its
    XML would have occupied in the output); ``source`` carries the
    offending HTML only under a quarantine policy, so skip-mode payloads
    stay small.
    """

    doc_id: str
    index: int
    stage: str
    error_type: str
    message: str
    traceback: str = ""
    source: str | None = None

    def to_json(self) -> dict:
        """The JSON-serializable record (without the source text)."""
        return {
            "doc_id": self.doc_id,
            "index": self.index,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass(frozen=True)
class ErrorPolicy:
    """What a corpus run does with a document that fails to convert.

    The engine builds the one instance a run uses from its
    :class:`~repro.runtime.engine.EngineConfig` mode string
    (:meth:`~repro.runtime.engine.EngineConfig.resolved_policy`).
    """

    mode: str = "fail_fast"
    quarantine_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in ERROR_MODES:
            raise ValueError(
                f"unknown error policy {self.mode!r}; expected one of {ERROR_MODES}"
            )
        if self.mode == "quarantine" and not self.quarantine_dir:
            raise ValueError("quarantine policy needs a quarantine_dir")

    # -- predicates ----------------------------------------------------------

    @property
    def is_fail_fast(self) -> bool:
        return self.mode == "fail_fast"

    @property
    def captures_source(self) -> bool:
        """Whether failure records should carry the offending source."""
        return self.mode == "quarantine"


def truncate_traceback(exc: BaseException) -> str:
    """The exception's formatted traceback, tail-truncated to the wire
    budget (the tail names the raising frame, the useful part)."""
    text = "".join(
        traceback_module.format_exception(type(exc), exc, exc.__traceback__)
    )
    if len(text) > TRACEBACK_LIMIT:
        return "...[truncated]...\n" + text[-TRACEBACK_LIMIT:]
    return text


def failure_from_exception(
    doc_id: str,
    index: int,
    exc: BaseException,
    *,
    source: str | None = None,
) -> DocumentFailure:
    """Build the structured record for one failed document.

    A :class:`PipelineStageError` contributes its stage and is unwrapped
    to the underlying cause for type/message; anything else is
    attributed to the whole conversion (stage ``"convert"``).
    """
    if isinstance(exc, PipelineStageError):
        stage = exc.stage
        cause = exc.__cause__ if exc.__cause__ is not None else exc
    else:
        stage = "convert"
        cause = exc
    return DocumentFailure(
        doc_id=doc_id,
        index=index,
        stage=stage,
        error_type=type(cause).__name__,
        message=str(cause),
        traceback=truncate_traceback(exc),
        source=source,
    )


def write_quarantine(directory: str | Path, failure: DocumentFailure) -> Path:
    """Save one failed document to the quarantine directory.

    Writes ``<doc_id>.html`` (the offending source, empty when the
    failure carries none -- e.g. a worker crash mid-pickle) and
    ``<doc_id>.error.json`` (the structured failure record).  Returns
    the error-JSON path.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    (target / f"{failure.doc_id}.html").write_text(
        failure.source or "", encoding="utf-8"
    )
    error_path = target / f"{failure.doc_id}.error.json"
    error_path.write_text(
        json.dumps(failure.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return error_path
