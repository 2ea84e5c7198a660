"""The XML repository: the integration target of the whole pipeline.

"If the input XML documents need to be integrated into some kind of XML
repository, the majority schema can be used to translate the input XML
documents so that they conform exactly to the majority schema"
(Section 1).  The repository holds a DTD and documents that conform to
it; non-conforming documents are repaired on insertion by the document
mapping component.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dom.node import Element
from repro.dom.path import find_all
from repro.dom.serialize import to_xml_document
from repro.mapping.conform import ConformResult, repair
from repro.schema.dtd import DTD


@dataclass
class RepositoryStats:
    """Aggregate insertion statistics."""

    documents: int = 0
    conforming_on_arrival: int = 0
    repaired: int = 0
    rejected: int = 0
    total_repair_operations: int = 0

    @property
    def repair_rate(self) -> float:
        """Fraction of accepted documents that needed repair."""
        accepted = self.conforming_on_arrival + self.repaired
        return self.repaired / accepted if accepted else 0.0

    def record(self, operations: int) -> None:
        """Count one accepted document whose repair took ``operations``
        (zero: it conformed on arrival)."""
        self.documents += 1
        if operations:
            self.repaired += 1
            self.total_repair_operations += operations
        else:
            self.conforming_on_arrival += 1


class XMLRepository:
    """A DTD-typed store of XML documents.

    ``max_repair_operations`` bounds how much surgery insertion may
    perform: documents needing more are rejected (callers can inspect
    :attr:`stats` and loosen the bound or the schema thresholds).
    """

    def __init__(self, dtd: DTD, *, max_repair_operations: int | None = None) -> None:
        self.dtd = dtd
        self.max_repair_operations = max_repair_operations
        self.documents: list[Element] = []
        self.stats = RepositoryStats()
        # The evolution schema version this repository's DTD came from
        # (None for repositories outside an evolution workflow); carried
        # through the manifest by the persistence layer.
        self.schema_version: int | None = None
        self._index = None  # lazily built, invalidated on insert

    def insert(self, root: Element) -> ConformResult | None:
        """Insert a document, repairing it to conform first.

        Returns the :class:`ConformResult` describing the repair (zero
        operations when the document already conformed), or ``None`` when
        the document was rejected by the repair budget.  The input tree
        is mutated by the repair.
        """
        self._index = None
        result = repair(root, self.dtd)
        if (
            self.max_repair_operations is not None
            and result.total_operations > self.max_repair_operations
        ):
            self.stats.documents += 1
            self.stats.rejected += 1
            return None
        self.documents.append(root)
        self.stats.record(result.total_operations)
        return result

    def __len__(self) -> int:
        return len(self.documents)

    # -- querying ------------------------------------------------------------

    def query(self, path: str) -> list[Element]:
        """All elements matching a slash path (e.g. ``RESUME/EDUCATION``)
        across the stored documents."""
        results: list[Element] = []
        for document in self.documents:
            results.extend(find_all(document, path))
        return results

    def values(self, path: str) -> list[str]:
        """The ``val`` attributes of all elements matching ``path``."""
        return [el.get_val() for el in self.query(path) if el.get_val()]

    def path_index(self):
        """The Section 3.3 path index over the stored documents.

        Built lazily on first use, invalidated by inserts.  Exact label
        paths resolve through it without tree walks::

            repo.path_index().values(("RESUME", "EDUCATION", "DATE"))
        """
        if self._index is None:
            from repro.schema.index import PathIndex

            self._index = PathIndex.from_documents(self.documents)
        return self._index

    def query_path(self, path: tuple[str, ...]) -> list[Element]:
        """All elements realizing an exact label path, via the index."""
        return self.path_index().elements(path)

    def export(self) -> list[str]:
        """All documents serialized as XML text."""
        return [to_xml_document(document) for document in self.documents]
