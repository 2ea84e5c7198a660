"""Homonym-context analysis (Section 2.2).

"In a document, different objects can be associated with the same
concept.  This typically holds for topic independent concepts such as
date ...  However, the context of the concepts then differs, that is,
they represent homonyms.  Homonyms can play different roles in different
contexts.  For example, in order to detail information about the concept
education, date can be used to chronologically organize this
information, whereas for other concepts, date does not exhibit such a
property."

This module makes those contexts inspectable: for a label, report every
parent context it occurs under (with document frequencies and the child
structure it carries there).  ``DATE`` under ``EDUCATION`` anchoring an
entry vs. ``DATE`` under ``COURSES`` as a bare leaf is exactly the
paper's example, surfaced from the discovered schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import DocumentPaths, LabelPath


@dataclass
class HomonymContext:
    """One context a label occurs in."""

    path: LabelPath  # full path ending in the label
    support: float
    child_labels: set[str] = field(default_factory=set)

    @property
    def parent_label(self) -> str:
        """The immediately enclosing label ('' at the root)."""
        return self.path[-2] if len(self.path) > 1 else ""

    @property
    def is_organizing(self) -> bool:
        """Whether the label carries structure here (has children) --
        the paper's "chronologically organize" role -- or is a leaf."""
        return bool(self.child_labels)


def homonym_contexts(
    documents: list[DocumentPaths], label: str, *, min_support: float = 0.0
) -> list[HomonymContext]:
    """All contexts of ``label`` across the corpus, by falling support."""
    statistics = PathAccumulator.from_documents(documents)
    contexts: dict[LabelPath, HomonymContext] = {}
    for path in statistics.doc_frequency:
        if path[-1] != label:
            continue
        support = statistics.support(path)
        if support < min_support:
            continue
        contexts[path] = HomonymContext(path, support)
    # Attach observed child labels per context.
    for path in statistics.doc_frequency:
        if len(path) >= 2 and path[:-1] in contexts:
            contexts[path[:-1]].child_labels.add(path[-1])
    return sorted(contexts.values(), key=lambda c: (-c.support, c.path))
