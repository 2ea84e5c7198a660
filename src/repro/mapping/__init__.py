"""Document Mapping Component (Section 5, companion papers [11, 13]).

"The Document Mapping component ... converts non-conforming XML
documents using a tree-edit distance algorithm so that they eventually
conform to the derived DTD and can easily be integrated into an XML
document repository."

* :mod:`repro.mapping.tree_edit` -- Zhang--Shasha ordered tree edit
  distance, implemented from scratch.
* :mod:`repro.mapping.validate` -- DTD conformance checking.
* :mod:`repro.mapping.conform` -- DTD-guided document repair, and
  :func:`~repro.mapping.conform.repair`, the one step every insert,
  migration and schema-version conform runs.
* :mod:`repro.mapping.repository` -- the XML repository that integrates
  conformed documents.
* :mod:`repro.mapping.versioned` -- the on-disk versioned repository
  (immutable version directories, atomic ``CURRENT`` pointer, rollback)
  with parallel document migration between schema versions.
"""

from repro.mapping.conform import ConformResult, conform_document, repair
from repro.mapping.persistence import load_repository, save_repository
from repro.mapping.repository import XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.mapping.validate import Violation, validate_document
from repro.mapping.versioned import (
    MigrationReport,
    VersionedRepository,
    migrate_documents,
)

__all__ = [
    "tree_edit_distance",
    "validate_document",
    "Violation",
    "conform_document",
    "ConformResult",
    "repair",
    "XMLRepository",
    "save_repository",
    "load_repository",
    "MigrationReport",
    "VersionedRepository",
    "migrate_documents",
]
