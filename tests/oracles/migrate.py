"""The serial in-memory repository migration, kept as an oracle.

:meth:`repro.mapping.versioned.VersionedRepository.sync` migrates stored
documents with :func:`repro.mapping.versioned.migrate_documents` and
inserts new ones through the same per-document step,
:func:`repro.mapping.conform.repair`.  :func:`migrate_repository` is the
serial path they replaced, kept unchanged: it writes out the
validate / conform / re-validate sequence itself, so the product path
can be checked against it with ``==`` (XML, report and edit distances).
"""

from __future__ import annotations

from repro.dom.treeops import clone
from repro.mapping.conform import conform_document
from repro.mapping.repository import XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.mapping.validate import validate_document
from repro.mapping.versioned import MigrationReport
from repro.schema.dtd import DTD


def migrate_repository(
    repository: XMLRepository,
    new_dtd: DTD,
    *,
    measure_distance: bool = True,
) -> tuple[XMLRepository, MigrationReport]:
    """Move every document of ``repository`` onto ``new_dtd``.

    Returns a fresh repository (the input is not mutated) and the
    migration report.  ``measure_distance=False`` skips the Zhang--Shasha
    measurement for speed on large stores.
    """
    migrated = XMLRepository(new_dtd)
    report = MigrationReport()
    for document in repository.documents:
        report.documents += 1
        copy = clone(document)
        if not validate_document(copy, new_dtd):
            migrated.documents.append(copy)
            migrated.stats.documents += 1
            migrated.stats.conforming_on_arrival += 1
            report.already_conforming += 1
            continue
        outcome = conform_document(copy, new_dtd)
        remaining = validate_document(copy, new_dtd)
        if remaining:
            raise AssertionError(
                f"migration left violations: {[str(v) for v in remaining[:3]]}"
            )
        if measure_distance:
            report.edit_distances.append(tree_edit_distance(document, copy))
        migrated.documents.append(copy)
        migrated.stats.documents += 1
        migrated.stats.repaired += 1
        migrated.stats.total_repair_operations += outcome.total_operations
        report.migrated += 1
        report.total_operations += outcome.total_operations
    return migrated, report
