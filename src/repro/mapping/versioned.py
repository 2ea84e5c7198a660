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

Every publish allocates the next version number and stages a complete
directory under a temp name (new files fsync'd, documents carried over
unchanged hard-linked from the previous version), renames it into
place and only then commits ``CURRENT`` through
:func:`repro.durable.atomic_replace`, so a reader following ``CURRENT``
never observes a half-written store, not even after a crash, and
``rollback`` is just repointing ``CURRENT`` at the previous version --
the superseded directories stay on disk until explicitly pruned.  A
version never changes after it is published, so sharing a file between
versions is safe.

:meth:`VersionedRepository.sync` is the one way a repository follows the
evolving schema: ``repro-web evolve fold --repository``, ``repro-web
evolve migrate`` and the conversion service's fold lane all call it.
Every document it migrates or inserts goes through one per-document
step, :func:`repro.mapping.conform.repair`: stored documents are
migrated **in parallel** on a
:class:`repro.runtime.pool.WorkerPool` (the corpus engine's pool with
a parsed DTD as the per-worker state), new documents in the calling
process.  Migration tasks carry the engine's
:data:`~repro.runtime.pool.CHUNK_SIZE` documents each; the output does
not depend on it.
"""

from __future__ import annotations

import json
import os
import shutil
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.dom.serialize import to_xml_document
from repro.durable import atomic_replace, fsync_dir
from repro.mapping.conform import repair
from repro.mapping.persistence import (
    DTD_NAME,
    ENCODING,
    MANIFEST_NAME,
    load_repository,
    load_xml_document,
    read_document,
    write_repository_dir,
)
from repro.mapping.repository import RepositoryStats, XMLRepository
from repro.mapping.tree_edit import tree_edit_distance
from repro.runtime.pool import CHUNK_SIZE, WorkerPool
from repro.schema.dtd import DTD

VERSIONS_DIR = "versions"
CURRENT_NAME = "CURRENT"


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


# -- the per-document step ----------------------------------------------------


def _migration_state(dtd_text: str, root_name: str) -> DTD:
    """Per-worker state: the target DTD parsed exactly once."""
    return DTD.parse(dtd_text, root_name=root_name)


def repair_xml(
    dtd: DTD, xml_text: str, measure_distance: bool = False
) -> tuple[str, int, float | None]:
    """Repair one serialized document onto ``dtd``.

    Returns the repaired XML, the repair operations it took (zero: it
    already conformed) and, with ``measure_distance``, the
    Zhang--Shasha distance a repaired document moved (``None`` when
    not measured or nothing changed).
    """
    root = load_xml_document(xml_text)
    operations = repair(root, dtd).total_operations
    distance = None
    if measure_distance and operations:
        distance = tree_edit_distance(load_xml_document(xml_text), root)
    return to_xml_document(root), operations, distance


def migrate_documents(
    xml_documents: list[str],
    new_dtd: DTD,
    *,
    max_workers: int | None = 1,
) -> tuple[list[str], MigrationReport]:
    """Migrate serialized documents onto ``new_dtd`` in parallel.

    Returns the migrated XML (document order preserved) and the
    migration report; neither depends on the worker count.
    """
    report = MigrationReport()
    migrated_xml: list[str] = []
    with WorkerPool(
        _migration_state,
        (new_dtd.render(), new_dtd.root_name),
        workers=max_workers,
    ) as pool:
        for xml, operations, distance in pool.map(
            partial(repair_xml, measure_distance=True),
            xml_documents,
            chunk_size=CHUNK_SIZE,
        ):
            report.documents += 1
            migrated_xml.append(xml)
            if not operations:
                report.already_conforming += 1
                continue
            report.migrated += 1
            report.total_operations += operations
            report.edit_distances.append(distance)
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

    def document_paths(self, version: int | None = None) -> list[Path]:
        """The stored document files of a version, in manifest order."""
        directory = self._directory(version)
        manifest = json.loads(
            (directory / MANIFEST_NAME).read_text(encoding=ENCODING)
        )
        return [directory / name for name in manifest["documents"]]

    def document_xml(self, version: int | None = None) -> list[str]:
        """The stored documents of a version as serialized XML text.

        Reads the files directly (no tree rebuild) -- the transport form
        parallel migration wants.
        """
        return [read_document(path) for path in self.document_paths(version)]

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
        carried: Sequence[Path] = (),
    ) -> int:
        """Write a new version; repoint CURRENT.

        The version holds the ``carried`` files of an earlier version
        (hard-linked, unchanged) followed by ``xml_documents``.  The
        directory is staged under a temporary name, flushed and renamed
        into place before CURRENT moves, so a concurrent reader -- or
        one after a crash -- sees the complete new version or none at
        all.
        """
        version = (self.versions()[-1] + 1) if self.versions() else 1
        staging = self.versions_dir / f".staging-v{version:04d}"
        # A publish that died before its rename leaves this directory
        # behind, possibly holding links to a published version's files;
        # writing through those links would change that version.
        shutil.rmtree(staging, ignore_errors=True)
        self.versions_dir.mkdir(parents=True, exist_ok=True)
        write_repository_dir(
            staging, dtd, xml_documents, stats,
            schema_version=schema_version, carried=carried,
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
    ) -> tuple[int, MigrationReport | None]:
        """Bring the repository up to ``dtd`` and publish ``new_xml`` in it.

        When the CURRENT version's stored DTD is not ``dtd``, its
        documents are migrated in parallel (:func:`migrate_documents`);
        otherwise they are carried into the new version unread.  The
        documents of ``new_xml`` are repaired in this process; the
        combined store is published as the next version, the previous
        one staying on disk for rollback.  Returns the published version
        and the migration report (``None`` when nothing was migrated).
        """
        documents: list[str] = []
        carried: list[Path] = []
        report = None
        if self.exists() and self.dtd_text() != dtd.render():
            documents, report = migrate_documents(
                self.document_xml(), dtd, max_workers=max_workers
            )
            stats = RepositoryStats(
                documents=report.documents,
                conforming_on_arrival=report.already_conforming,
                repaired=report.migrated,
                total_repair_operations=report.total_operations,
            )
        else:
            if self.exists():
                carried = self.document_paths()
            stats = RepositoryStats(
                documents=len(carried), conforming_on_arrival=len(carried)
            )
        for xml in new_xml:
            repaired, operations, _ = repair_xml(dtd, xml)
            documents.append(repaired)
            stats.record(operations)
        version = self.publish(
            dtd, documents, stats,
            schema_version=schema_version, carried=carried,
        )
        return version, report

    def rollback(self) -> int:
        """Repoint CURRENT at the previous version; returns it.

        The rolled-back version's directory stays on disk.
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
