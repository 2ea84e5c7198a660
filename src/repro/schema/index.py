"""The path index of Section 3.3.

"An efficient computation of an ordering can be supported by an
appropriate index structure on the input XML documents.  That is, for
each path and node, the index contains pointers to the positions in XML
documents that contain that node.  Such an index structure can easily be
built while the set paths is computed for each XML document."

:class:`PathIndex` is that structure: one traversal per document records,
for every label path, pointers to the concrete element nodes realizing
it together with their child positions.

It serves repository lookups only:
:meth:`repro.mapping.repository.XMLRepository.path_index` and
``query_path`` reach stored nodes directly by label path.  Schema discovery does not
read it -- the ordering rule's average positions, like support and
multiplicity, come from :class:`~repro.schema.accumulator.PathAccumulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dom.node import Element
from repro.schema.paths import LabelPath


@dataclass(frozen=True)
class IndexEntry:
    """One occurrence of a label path: a node pointer plus position."""

    doc_id: int
    element: Element
    position: int  # 0-based index among the parent's element children


@dataclass
class PathIndex:
    """Inverted index from label paths to node occurrences."""

    entries: dict[LabelPath, list[IndexEntry]] = field(default_factory=dict)
    document_count: int = 0

    @classmethod
    def from_documents(cls, roots: list[Element]) -> "PathIndex":
        """Index a corpus; document ids are positions in ``roots``."""
        index = cls()
        for doc_id, root in enumerate(roots):
            index.add_document(doc_id, root)
        return index

    def add_document(self, doc_id: int, root: Element) -> None:
        """Index one document tree."""
        self.document_count += 1
        root_path: LabelPath = (root.tag,)
        self.entries.setdefault(root_path, []).append(
            IndexEntry(doc_id, root, 0)
        )
        stack: list[tuple[Element, LabelPath]] = [(root, root_path)]
        while stack:
            element, path = stack.pop()
            for position, child in enumerate(element.element_children()):
                child_path = path + (child.tag,)
                self.entries.setdefault(child_path, []).append(
                    IndexEntry(doc_id, child, position)
                )
                stack.append((child, child_path))

    # -- lookups -------------------------------------------------------------

    def elements(self, path: LabelPath) -> list[Element]:
        """All nodes realizing ``path``, across documents."""
        return [entry.element for entry in self.entries.get(path, ())]

    def values(self, path: LabelPath) -> list[str]:
        """The non-empty ``val`` attributes of nodes realizing ``path``."""
        return [
            entry.element.get_val()
            for entry in self.entries.get(path, ())
            if entry.element.get_val()
        ]

    def child_labels(self, parent_path: LabelPath) -> set[str]:
        """Labels observed directly below ``parent_path``."""
        depth = len(parent_path) + 1
        return {
            path[-1]
            for path in self.entries
            if len(path) == depth and path[:-1] == parent_path
        }
