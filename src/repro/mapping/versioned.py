"""Versioned repository layout with parallel migration and rollback.

When the evolving schema bumps (:mod:`repro.schema.evolution`), the
repository's existing documents must follow it -- and they must be able
to come *back* if the bump turns out to be noise.  This module stores a
repository as a sequence of immutable version directories plus an
atomically updated ``CURRENT`` pointer::

    repo/
      CURRENT                 -- {"version": 3}  (atomic rename commit)
      versions/
        v0001/  v0002/  v0003/   -- each a full save_repository() dir

Every publish allocates the next version number and writes a complete
directory (each file fsync'd, staged under a temp name, renamed into
place) before ``CURRENT`` is committed through
:func:`repro.durable.atomic_replace`, so a reader following ``CURRENT``
never observes a half-written store, not even after a crash, and
``rollback`` is just repointing ``CURRENT`` at the previous version --
the superseded directories stay on disk until explicitly pruned.

:meth:`VersionedRepository.sync` is the one way a repository follows the
evolving schema: ``repro-web evolve fold --repository``, ``repro-web
evolve migrate`` and the conversion service's fold lane all call it.
Its migration productionizes ``examples/schema_evolution.py``'s serial
sketch: documents are replayed through the existing tree-edit mapping
layer (:func:`repro.mapping.conform.conform_document`) **in parallel**
on a :class:`repro.runtime.pool.WorkerPool` -- the corpus engine's
pool with a parsed DTD as the per-worker state -- and every migrated
document is re-validated against the new DTD before
the new version is published.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.dom.serialize import to_xml_document
from repro.dom.treeops import clone
from repro.durable import atomic_replace, fsync_dir
from repro.mapping.conform import conform_document
from repro.mapping.migrate import MigrationReport
from repro.mapping.persistence import (
    DTD_NAME,
    ENCODING,
    MANIFEST_NAME,
    load_repository,
    load_xml_document,
    write_repository_dir,
)
from repro.mapping.repository import RepositoryStats, XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.mapping.validate import validate_document
from repro.runtime.pool import WorkerPool
from repro.schema.dtd import DTD

VERSIONS_DIR = "versions"
CURRENT_NAME = "CURRENT"


# -- parallel migration (worker side) -----------------------------------------


def _migration_state(
    dtd_text: str, root_name: str, measure_distance: bool
) -> tuple[DTD, bool]:
    """Per-worker state: the target DTD parsed exactly once."""
    return DTD.parse(dtd_text, root_name=root_name), measure_distance


def _migrate_one(state: tuple[DTD, bool], xml_text: str) -> dict:
    """Migrate one serialized document onto the per-worker DTD.

    Returns the migrated XML plus the accounting the report needs.  The
    post-repair validation mirrors :func:`repro.mapping.migrate.
    migrate_repository`: repair is designed to be complete, so residue
    is a bug, not a skippable document.
    """
    dtd, measure_distance = state
    root = load_xml_document(xml_text)
    if not validate_document(root, dtd):
        return {
            "xml": to_xml_document(root),
            "conforming": True,
            "operations": 0,
            "distance": None,
        }
    original = clone(root) if measure_distance else None
    outcome = conform_document(root, dtd)
    remaining = validate_document(root, dtd)
    if remaining:
        raise AssertionError(
            f"migration left violations: {[str(v) for v in remaining[:3]]}"
        )
    distance = (
        tree_edit_distance(original, root) if measure_distance else None
    )
    return {
        "xml": to_xml_document(root),
        "conforming": False,
        "operations": outcome.total_operations,
        "distance": distance,
    }


def migrate_documents(
    xml_documents: list[str],
    new_dtd: DTD,
    *,
    max_workers: int | None = 1,
    chunk_size: int = 32,
    measure_distance: bool = True,
) -> tuple[list[str], MigrationReport]:
    """Migrate serialized documents onto ``new_dtd`` in parallel.

    Returns the migrated XML (document order preserved) and a
    :class:`~repro.mapping.migrate.MigrationReport` identical to what
    the serial :func:`~repro.mapping.migrate.migrate_repository` path
    reports for the same input.
    """
    report = MigrationReport()
    migrated_xml: list[str] = []
    with WorkerPool(
        _migration_state,
        (new_dtd.render(), new_dtd.root_name, measure_distance),
        workers=max_workers,
    ) as pool:
        for result in pool.map(_migrate_one, xml_documents, chunk_size=chunk_size):
            report.documents += 1
            migrated_xml.append(result["xml"])
            if result["conforming"]:
                report.already_conforming += 1
                continue
            report.migrated += 1
            report.total_operations += result["operations"]
            if result["distance"] is not None:
                report.edit_distances.append(result["distance"])
    return migrated_xml, report


# -- the versioned store ------------------------------------------------------


class VersionedRepository:
    """A repository stored as immutable versions plus a CURRENT pointer."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- layout --------------------------------------------------------------

    @property
    def versions_dir(self) -> Path:
        return self.root / VERSIONS_DIR

    @property
    def current_path(self) -> Path:
        return self.root / CURRENT_NAME

    def version_dir(self, version: int) -> Path:
        return self.versions_dir / f"v{version:04d}"

    def exists(self) -> bool:
        return self.current_path.exists()

    def versions(self) -> list[int]:
        """All published version numbers, ascending."""
        if not self.versions_dir.exists():
            return []
        found = []
        for entry in self.versions_dir.iterdir():
            name = entry.name
            if entry.is_dir() and name.startswith("v") and name[1:].isdigit():
                found.append(int(name[1:]))
        return sorted(found)

    def current_version(self) -> int | None:
        if not self.current_path.exists():
            return None
        pointer = json.loads(self.current_path.read_text(encoding=ENCODING))
        return pointer["version"]

    def _directory(self, version: int | None) -> Path:
        """A version's directory (default: the one CURRENT points at)."""
        if version is None:
            version = self.current_version()
            if version is None:
                raise ValueError(f"{self.root}: no CURRENT version published")
        return self.version_dir(version)

    # -- reading -------------------------------------------------------------

    def load(self, version: int | None = None) -> XMLRepository:
        """Load a version (default: the one CURRENT points at)."""
        directory = self._directory(version)
        if not directory.exists():
            raise ValueError(f"{self.root}: version {version} does not exist")
        return load_repository(directory)

    def document_xml(self, version: int | None = None) -> list[str]:
        """The stored documents of a version as serialized XML text.

        Reads the files directly (no tree rebuild) -- the transport form
        parallel migration wants.
        """
        directory = self._directory(version)
        manifest = json.loads(
            (directory / MANIFEST_NAME).read_text(encoding=ENCODING)
        )
        return [
            (directory / name).read_text(encoding=ENCODING)
            for name in manifest["documents"]
        ]

    def dtd_text(self) -> str:
        """The DTD text stored with the CURRENT version."""
        return (self._directory(None) / DTD_NAME).read_text(encoding=ENCODING)

    # -- writing -------------------------------------------------------------

    def _set_current(self, version: int) -> None:
        """Durably repoint CURRENT (write-temp + fsync + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_replace(
            self.current_path,
            (json.dumps({"version": version}) + "\n").encode(ENCODING),
        )

    def publish(
        self,
        dtd: DTD,
        xml_documents: list[str],
        stats: RepositoryStats,
        *,
        schema_version: int | None = None,
    ) -> int:
        """Write serialized documents as a new version; repoint CURRENT.

        The directory is staged under a temporary name, flushed and
        renamed into place before CURRENT moves, so a concurrent reader
        -- or one after a crash -- sees the complete new version or
        none at all.
        """
        version = (self.versions()[-1] + 1) if self.versions() else 1
        staging = self.versions_dir / f".staging-v{version:04d}"
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        write_repository_dir(
            staging, dtd, xml_documents, stats, schema_version=schema_version
        )
        os.replace(staging, self.version_dir(version))
        fsync_dir(self.versions_dir)
        self._set_current(version)
        return version

    def sync(
        self,
        dtd: DTD,
        new_xml: list[str],
        *,
        schema_version: int | None = None,
        max_workers: int | None = 1,
        chunk_size: int = 16,
    ) -> tuple[int, MigrationReport | None]:
        """Bring the repository up to ``dtd`` and publish ``new_xml`` in it.

        When the CURRENT version's stored DTD is not ``dtd``, its
        documents are migrated in parallel (:func:`migrate_documents`);
        the documents of ``new_xml`` are conformed on insertion; the
        combined store is published as the next version, the previous
        one staying on disk for rollback.  Returns the published version
        and the migration report (``None`` when nothing was migrated).
        """
        existing_xml: list[str] = []
        report = None
        if self.exists():
            existing_xml = self.document_xml()
            if self.dtd_text() != dtd.render():
                existing_xml, report = migrate_documents(
                    existing_xml, dtd,
                    max_workers=max_workers, chunk_size=chunk_size,
                )
        existing = report if report is not None else MigrationReport(
            documents=len(existing_xml), already_conforming=len(existing_xml)
        )
        inserter = XMLRepository(dtd)
        for xml in new_xml:
            inserter.insert(load_xml_document(xml))
        inserted = inserter.stats
        combined = existing_xml + inserter.export()
        stats = RepositoryStats(
            documents=len(combined),
            conforming_on_arrival=(
                existing.already_conforming + inserted.conforming_on_arrival
            ),
            repaired=existing.migrated + inserted.repaired,
            rejected=inserted.rejected,
            total_repair_operations=(
                existing.total_operations + inserted.total_repair_operations
            ),
        )
        version = self.publish(
            dtd, combined, stats, schema_version=schema_version
        )
        return version, report

    def rollback(self) -> int:
        """Repoint CURRENT at the previous version; returns it.

        The rolled-back version's directory stays on disk, so a
        subsequent :meth:`activate` can roll forward again.
        """
        current = self.current_version()
        if current is None:
            raise ValueError(f"{self.root}: nothing published to roll back")
        earlier = [v for v in self.versions() if v < current]
        if not earlier:
            raise ValueError(
                f"{self.root}: version {current} has no predecessor"
            )
        previous = earlier[-1]
        self._set_current(previous)
        return previous

    def activate(self, version: int) -> None:
        """Repoint CURRENT at an existing version (roll forward/back)."""
        if version not in self.versions():
            raise ValueError(f"{self.root}: version {version} does not exist")
        self._set_current(version)
