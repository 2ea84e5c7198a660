"""Tests for the versioned repository and parallel migration."""

import json
import os
from pathlib import Path

import pytest

from repro.dom.node import Element
from repro.dom.serialize import to_xml_document
from repro.mapping.migrate import migrate_repository
from repro.mapping.persistence import load_xml_document
from repro.mapping.repository import XMLRepository
from repro.mapping.versioned import (
    VersionedRepository,
    migrate_documents,
)
from repro.schema.dtd import DTD

OLD_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), contact, education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree)>
<!ELEMENT degree (#PCDATA)>
"""
)

# The new majority inserts a DATE level and drops CONTACT.
NEW_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), education+)>
<!ELEMENT education ((#PCDATA), degree, date?)>
<!ELEMENT degree (#PCDATA)>
<!ELEMENT date (#PCDATA)>
"""
)


def old_doc(degree):
    root = Element("RESUME")
    root.append_child(Element("CONTACT"))
    education = root.append_child(Element("EDUCATION"))
    education.append_child(Element("DEGREE")).set_val(degree)
    return root


def old_repository(count=5):
    repository = XMLRepository(OLD_DTD)
    for index in range(count):
        repository.insert(old_doc(f"B.S.{index}"))
    return repository


def publish(versioned, repository, schema_version=None):
    """Publish an in-memory repository as the next version."""
    return versioned.publish(
        repository.dtd, repository.export(), repository.stats,
        schema_version=schema_version,
    )


class TestVersionedLayout:
    def test_publish_creates_version_dirs(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        assert not versioned.exists()
        version = publish(versioned, old_repository(), schema_version=1)
        assert version == 1
        assert versioned.exists()
        assert versioned.current_version() == 1
        assert (versioned.version_dir(1) / "manifest.json").exists()
        assert versioned.versions() == [1]

    def test_publish_allocates_next_version(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository())
        version = publish(versioned, old_repository())
        assert version == 2
        assert versioned.versions() == [1, 2]
        assert versioned.current_version() == 2

    def test_load_current_and_specific(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3), schema_version=7)
        publish(versioned, old_repository(5), schema_version=8)
        assert len(versioned.load()) == 5
        assert versioned.load().schema_version == 8
        assert len(versioned.load(version=1)) == 3
        assert versioned.load(version=1).schema_version == 7

    def test_load_without_publish_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        with pytest.raises(ValueError):
            versioned.load()

    def test_current_pointer_is_json(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository())
        pointer = json.loads(versioned.current_path.read_text())
        assert pointer == {"version": 1}

    def test_document_xml_matches_export(self, tmp_path):
        repository = old_repository(3)
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, repository)
        assert versioned.document_xml() == repository.export()


class TestRollback:
    def test_rollback_repoints_current(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(2))
        publish(versioned, old_repository(4))
        assert versioned.rollback() == 1
        assert versioned.current_version() == 1
        assert len(versioned.load()) == 2
        # The superseded version stays on disk for roll-forward.
        assert versioned.versions() == [1, 2]

    def test_rollback_at_first_version_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository())
        with pytest.raises(ValueError):
            versioned.rollback()

    def test_rollback_empty_store_fails(self, tmp_path):
        with pytest.raises(ValueError):
            VersionedRepository(tmp_path / "repo").rollback()

    def test_activate_rolls_forward(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(2))
        publish(versioned, old_repository(4))
        versioned.rollback()
        versioned.activate(2)
        assert versioned.current_version() == 2

    def test_activate_unknown_version_fails(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository())
        with pytest.raises(ValueError):
            versioned.activate(9)


class TestParallelMigration:
    def test_serial_parity_with_migrate_repository(self):
        """Parallel migration over serialized documents produces exactly
        what the serial in-memory path produces."""
        repository = old_repository(6)
        serial_repo, serial_report = migrate_repository(repository, NEW_DTD)
        migrated_xml, report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=1
        )
        assert migrated_xml == [
            to_xml_document(doc) for doc in serial_repo.documents
        ]
        assert report.documents == serial_report.documents
        assert report.migrated == serial_report.migrated
        assert report.already_conforming == serial_report.already_conforming
        assert report.total_operations == serial_report.total_operations
        assert report.edit_distances == serial_report.edit_distances

    @pytest.mark.slow
    def test_workers_do_not_change_output(self):
        repository = old_repository(8)
        serial_xml, serial_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=1
        )
        parallel_xml, parallel_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=2, chunk_size=3
        )
        assert parallel_xml == serial_xml
        assert parallel_report.total_operations == serial_report.total_operations
        assert parallel_report.edit_distances == serial_report.edit_distances

    def test_migrate_publishes_new_version(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(4), schema_version=1)
        version, report = versioned.sync(NEW_DTD, [], schema_version=2)
        assert version == 2
        assert report.documents == 4
        assert report.migrated == 4
        migrated = versioned.load()
        assert migrated.schema_version == 2
        assert len(migrated) == 4
        assert migrated.dtd.render() == NEW_DTD.render()
        # Every migrated document conforms (load re-validates), and the
        # old version remains for rollback.
        assert versioned.rollback() == 1
        assert versioned.load().dtd.render() == OLD_DTD.render()

    def test_already_conforming_documents_skip_repair(self):
        repository = old_repository(3)
        migrated_xml, report = migrate_documents(
            repository.export(), OLD_DTD, max_workers=1
        )
        assert report.already_conforming == 3
        assert report.migrated == 0
        assert migrated_xml == repository.export()


def new_doc(degree):
    root = Element("RESUME")
    education = root.append_child(Element("EDUCATION"))
    education.append_child(Element("DEGREE")).set_val(degree)
    return root


def manifest_stats(versioned, version):
    manifest = versioned.version_dir(version) / "manifest.json"
    return json.loads(manifest.read_text())["stats"]


def version_files(versioned, version):
    directory = versioned.version_dir(version)
    return {path.name: path.read_bytes() for path in directory.iterdir()}


class TestSync:
    def test_stale_dtd_migrates_and_inserts_in_one_version(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(4), schema_version=1)
        new_xml = [to_xml_document(old_doc("M.S.")),
                   to_xml_document(new_doc("Ph.D."))]
        version, report = versioned.sync(NEW_DTD, new_xml, schema_version=2)
        assert version == 2
        assert versioned.versions() == [1, 2]
        assert report.documents == 4 and report.migrated == 4
        inserted = XMLRepository(NEW_DTD)
        for xml in new_xml:
            inserted.insert(load_xml_document(xml))
        assert manifest_stats(versioned, 2) == {
            "documents": report.documents + len(inserted),
            "conforming_on_arrival": (
                report.already_conforming + inserted.stats.conforming_on_arrival
            ),
            "repaired": report.migrated + inserted.stats.repaired,
            "rejected": inserted.stats.rejected,
            "total_repair_operations": (
                report.total_operations + inserted.stats.total_repair_operations
            ),
        }
        current = versioned.load()  # re-validates every document
        assert current.schema_version == 2
        assert len(current) == 6
        assert versioned.dtd_text() == NEW_DTD.render()

    def test_current_dtd_leaves_existing_documents_alone(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3))
        before = version_files(versioned, 1)
        version, report = versioned.sync(
            OLD_DTD, [to_xml_document(old_doc("M.S."))]
        )
        assert version == 2
        assert report is None
        assert version_files(versioned, 1) == before
        after = version_files(versioned, 2)
        for name in ("schema.dtd", "doc00000.xml", "doc00001.xml",
                     "doc00002.xml"):
            assert after[name] == before[name]
        assert manifest_stats(versioned, 2)["conforming_on_arrival"] == 4

    def test_first_sync_publishes_only_the_new_documents(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        new_xml = [to_xml_document(new_doc(f"B.A.{i}")) for i in range(3)]
        version, report = versioned.sync(NEW_DTD, new_xml, schema_version=1)
        assert (version, report) == (1, None)
        assert versioned.versions() == [1]
        assert versioned.document_xml() == new_xml
        assert manifest_stats(versioned, 1)["documents"] == 3


class TestDurablePublish:
    def test_current_is_fsynced_before_it_replaces(self, tmp_path, monkeypatch):
        """Every published file, and CURRENT's temp file, reaches stable
        storage before the rename that commits CURRENT."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def identity(stat):
            return stat.st_dev, stat.st_ino

        def fsync(fd):
            events.append(("fsync", identity(os.fstat(fd))))
            real_fsync(fd)

        def replace(source, target):
            if Path(target).name == "CURRENT":
                events.append(("commit", identity(os.stat(source))))
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3))
        commits = [index for index, (kind, _) in enumerate(events)
                   if kind == "commit"]
        assert len(commits) == 1
        flushed = {key for kind, key in events[:commits[0]] if kind == "fsync"}
        assert events[commits[0]][1] in flushed
        for path in versioned.version_dir(1).iterdir():
            assert identity(path.stat()) in flushed
