"""The topic's artifact store behind the conversion service.

The service's one topic (its knowledge base's ``topic``) keeps its
state under one directory::

    <state-dir>/<topic>/evolution/    durable accumulator checkpoint,
                                      current.dtd, dtds/vNNNN.dtd
    <state-dir>/<topic>/repository/   optional versioned XML repository

Folds go through :class:`~repro.schema.evolution.EvolvingSchema` (the
same state an offline ``repro-web evolve fold`` advances -- the
accumulator is a monoid, so folding per micro-batch converges to the
same schema as one offline fold over the same documents), and archived
``dtds/vNNNN.dtd`` files back the "convert against schema v3" request
mode.  A fold with a repository configured publishes through
:meth:`~repro.mapping.versioned.VersionedRepository.sync`, the same
step ``repro-web evolve fold --repository`` runs.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING

from repro.schema.dtd import DTD
from repro.schema.evolution import EvolvingSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concepts.knowledge import KnowledgeBase
    from repro.mapping.versioned import VersionedRepository
    from repro.obs.metrics import MetricsRegistry
    from repro.schema.accumulator import PathAccumulator


class UnknownSchemaVersion(KeyError):
    """A request targeted a schema version the topic never published."""


class TopicState:
    """One topic's evolving schema + optional versioned repository.

    Thread-safe: folds and publishes run in executor threads under
    :attr:`lock` (the checkpoint's delta log is append-ordered), while
    read paths (`describe`, version lookups) only touch immutable
    version artifacts and atomic state snapshots.
    """

    def __init__(
        self,
        topic: str,
        kb: "KnowledgeBase",
        directory: str | Path,
        *,
        registry: "MetricsRegistry | None" = None,
        publish: bool = False,
        max_workers: int | None = None,
    ) -> None:
        self.topic = topic
        self.kb = kb
        self.directory = Path(directory)
        self.lock = threading.Lock()
        self.max_workers = max_workers
        self.evolving = EvolvingSchema(
            self.directory / "evolution", kb, registry=registry
        )
        if not self.evolving.exists():
            # Auto-init: a fresh service state dir is usable immediately
            # (the CLI's `evolve init` does the same for offline runs).
            self.evolving.save_state()
        self.repository: "VersionedRepository | None" = None
        if publish:
            from repro.mapping.versioned import VersionedRepository

            self.repository = VersionedRepository(self.directory / "repository")
        self._dtd_cache: dict[int, DTD] = {}

    # -- folding (called from executor threads) ------------------------------

    def fold(
        self, accumulator: "PathAccumulator", new_xml: list[str]
    ) -> dict:
        """Fold a micro-batch's statistics into the live accumulator;
        publish the surviving XML when a repository is configured.
        Returns the JSON summary attached to the batch outcome."""
        with self.lock:
            outcome = self.evolving.fold(accumulator)
            summary: dict = {
                "documents_folded": outcome.documents_folded,
                "total_documents": outcome.total_documents,
                "schema_version": outcome.version,
                "bumped": outcome.bumped,
            }
            dtd = self.evolving.dtd
            if self.repository is not None and dtd is not None:
                version, migration = self.repository.sync(
                    dtd, new_xml, schema_version=self.evolving.version,
                    max_workers=self.max_workers,
                )
                summary["repository_version"] = version
                if migration is not None:
                    summary["migration"] = migration.to_json()
            return summary

    # -- schema-version targeting --------------------------------------------

    def dtd_text_for_version(self, version: int) -> str:
        path = self.evolving.version_dtd_path(version)
        if not path.exists():
            raise UnknownSchemaVersion(
                f"{self.topic}: no archived schema version {version}"
            )
        return path.read_text(encoding="utf-8")

    def dtd_for_version(self, version: int) -> DTD:
        cached = self._dtd_cache.get(version)
        if cached is None:
            cached = DTD.parse(self.dtd_text_for_version(version))
            self._dtd_cache[version] = cached
        return cached

    def conform_to_version(self, xml_text: str, version: int) -> str:
        """Re-shape converted XML against an archived schema version
        (the "convert against schema v3" request mode)."""
        from repro.mapping.versioned import repair_xml

        return repair_xml(self.dtd_for_version(version), xml_text)[0]

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        """The ``GET /schemas/<topic>`` payload."""
        evolving = self.evolving
        history = evolving.history
        out: dict = {
            "topic": self.topic,
            "schema_version": evolving.version,
            "documents": evolving.total_documents(),
            "dtd": evolving.dtd_text or None,
            "versions": [entry["version"] for entry in history],
            "history": history,
        }
        if self.repository is not None:
            out["repository_version"] = (
                self.repository.current_version()
                if self.repository.exists()
                else None
            )
        return out
