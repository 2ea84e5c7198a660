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

from repro import lazy_exports

lazy_exports(globals(), {
    ".tree_edit": ("tree_edit_distance",),
    ".validate": ("validate_document", "Violation"),
    ".conform": ("conform_document", "ConformResult", "repair"),
    ".repository": ("XMLRepository",),
    ".persistence": ("save_repository", "load_repository"),
    ".versioned": ("MigrationReport", "VersionedRepository", "migrate_documents"),
})
