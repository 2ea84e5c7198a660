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
directory (staged under a temp name, renamed into place), so a reader
following ``CURRENT`` never observes a half-written store and
``rollback`` is just repointing ``CURRENT`` at the previous version --
the superseded directories stay on disk until explicitly pruned.

Migration productionizes ``examples/schema_evolution.py``'s serial
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
import time
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dom.serialize import to_xml_document
from repro.dom.treeops import clone
from repro.mapping.conform import conform_document
from repro.mapping.migrate import MigrationReport
from repro.mapping.persistence import (
    ENCODING,
    load_repository,
    load_xml_document,
    save_repository,
    write_repository_dir,
)
from repro.mapping.repository import RepositoryStats, XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.mapping.validate import validate_document
from repro.runtime.pool import WorkerPool
from repro.schema.dtd import DTD

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

VERSIONS_DIR = "versions"
CURRENT_NAME = "CURRENT"

# -- metric names (registered only when a registry is supplied) ---------------

MIGRATION_DOCUMENTS = "repro_migration_documents_total"
MIGRATION_OPERATIONS = "repro_migration_repair_operations_total"
MIGRATION_SECONDS = "repro_migration_seconds_total"


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

    # -- reading -------------------------------------------------------------

    def load(self, version: int | None = None) -> XMLRepository:
        """Load a version (default: the one CURRENT points at)."""
        if version is None:
            version = self.current_version()
            if version is None:
                raise ValueError(f"{self.root}: no CURRENT version published")
        directory = self.version_dir(version)
        if not directory.exists():
            raise ValueError(f"{self.root}: version {version} does not exist")
        return load_repository(directory)

    def document_xml(self, version: int | None = None) -> list[str]:
        """The stored documents of a version as serialized XML text.

        Reads the files directly (no tree rebuild) -- the transport form
        parallel migration wants.
        """
        if version is None:
            version = self.current_version()
            if version is None:
                raise ValueError(f"{self.root}: no CURRENT version published")
        directory = self.version_dir(version)
        manifest = json.loads(
            (directory / "manifest.json").read_text(encoding=ENCODING)
        )
        return [
            (directory / name).read_text(encoding=ENCODING)
            for name in manifest["documents"]
        ]

    # -- writing -------------------------------------------------------------

    def _set_current(self, version: int) -> None:
        """Atomically repoint CURRENT (write-temp + rename)."""
        self.root.mkdir(parents=True, exist_ok=True)
        temp = self.current_path.with_name(CURRENT_NAME + ".tmp")
        temp.write_text(
            json.dumps({"version": version}) + "\n", encoding=ENCODING
        )
        os.replace(temp, self.current_path)

    def publish(
        self,
        repository: XMLRepository,
        *,
        schema_version: int | None = None,
    ) -> int:
        """Write a new version directory and repoint CURRENT to it.

        The directory is staged under a temporary name and renamed into
        place, so a concurrent reader either sees the complete new
        version or none at all.
        """
        version = (self.versions()[-1] + 1) if self.versions() else 1
        final = self.version_dir(version)
        staging = self.versions_dir / f".staging-v{version:04d}"
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        save_repository(repository, staging, schema_version=schema_version)
        os.replace(staging, final)
        self._set_current(version)
        return version

    def publish_xml(
        self,
        dtd: DTD,
        xml_documents: list[str],
        stats: RepositoryStats,
        *,
        schema_version: int | None = None,
    ) -> int:
        """Publish from already-serialized documents (migration output)."""
        version = (self.versions()[-1] + 1) if self.versions() else 1
        final = self.version_dir(version)
        staging = self.versions_dir / f".staging-v{version:04d}"
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        write_repository_dir(
            staging, dtd, xml_documents, stats, schema_version=schema_version
        )
        os.replace(staging, final)
        self._set_current(version)
        return version

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

    # -- migration -----------------------------------------------------------

    def migrate(
        self,
        new_dtd: DTD,
        *,
        schema_version: int | None = None,
        max_workers: int | None = 1,
        chunk_size: int = 32,
        measure_distance: bool = True,
        registry: "MetricsRegistry | None" = None,
    ) -> tuple[int, MigrationReport]:
        """Migrate the CURRENT version onto ``new_dtd`` as a new version.

        Every document is replayed through the tree-edit mapping layer
        in parallel and re-validated against ``new_dtd``; the migrated
        store is published as the next version (the old one remains for
        rollback).  Returns ``(new_version, report)``.
        """
        started = time.perf_counter()
        source_xml = self.document_xml()
        migrated_xml, report = migrate_documents(
            source_xml,
            new_dtd,
            max_workers=max_workers,
            chunk_size=chunk_size,
            measure_distance=measure_distance,
        )
        stats = RepositoryStats(
            documents=len(migrated_xml),
            conforming_on_arrival=report.already_conforming,
            repaired=report.migrated,
            rejected=0,
            total_repair_operations=report.total_operations,
        )
        version = self.publish_xml(
            new_dtd, migrated_xml, stats, schema_version=schema_version
        )
        if registry is not None:
            registry.counter(MIGRATION_DOCUMENTS).inc(report.documents)
            registry.counter(MIGRATION_OPERATIONS).inc(report.total_operations)
            registry.counter(MIGRATION_SECONDS).inc(
                time.perf_counter() - started
            )
        return version, report
