"""Repository schema migration.

When the corpus's authoring habits drift (see :mod:`repro.schema.diff`),
the majority schema is re-discovered -- and the repository's existing
documents must follow it.  :func:`migrate_repository` replays the
document mapping component against the new DTD for every stored
document, producing a migrated repository plus an account of what it
cost.  This is the maintenance loop the paper's Introduction contrasts
with handcrafted wrappers ("every change of format would require a new
handcrafted wrapper").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dom.treeops import clone
from repro.mapping.conform import conform_document
from repro.mapping.repository import XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.mapping.validate import validate_document
from repro.schema.dtd import DTD


@dataclass
class MigrationReport:
    """What a migration did."""

    documents: int = 0
    already_conforming: int = 0
    migrated: int = 0
    total_operations: int = 0
    edit_distances: list[float] = field(default_factory=list)

    @property
    def avg_edit_distance(self) -> float:
        """Mean structural change per migrated document."""
        if not self.edit_distances:
            return 0.0
        return sum(self.edit_distances) / len(self.edit_distances)

    def to_json(self) -> dict:
        """The summary a run-ledger record and a service fold carry."""
        return {
            "documents": self.documents,
            "already_conforming": self.already_conforming,
            "migrated": self.migrated,
            "total_operations": self.total_operations,
            "avg_edit_distance": self.avg_edit_distance,
        }

    def rows(self) -> list[list[str]]:
        """Report-table rows for the CLI's migration table."""
        return [
            ["documents", str(self.documents)],
            ["already conforming", str(self.already_conforming)],
            ["migrated", str(self.migrated)],
            ["repair operations", str(self.total_operations)],
            ["avg edit distance", f"{self.avg_edit_distance:.2f}"],
        ]


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
