"""Tests for the versioned repository, parallel migration and the one
repair step every insert, migration and schema-version conform runs."""

import json
import os
from pathlib import Path

import pytest

import repro.mapping.conform as conform_module
from repro.dom.node import Element, Text
from repro.dom.serialize import to_xml_document
from repro.dom.treeops import iter_elements
from repro.durable import link_or_copy
from repro.mapping.conform import ConformResult
from repro.mapping.persistence import load_xml_document
from repro.mapping.repository import XMLRepository
from repro.mapping.validate import validate_document
from repro.mapping.versioned import VersionedRepository, migrate_documents
from repro.runtime.pool import CHUNK_SIZE
from repro.schema.accumulator import PathAccumulator
from repro.schema.dtd import DTD
from repro.service.state import TopicState
from tests.oracles.migrate import migrate_repository

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
        # Three migration chunks, so two workers each take at least one.
        repository = old_repository(3 * CHUNK_SIZE)
        serial_xml, serial_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=1
        )
        parallel_xml, parallel_report = migrate_documents(
            repository.export(), NEW_DTD, max_workers=2
        )
        assert parallel_xml == serial_xml
        assert parallel_report == serial_report

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


def degrees(root):
    return [element for element in iter_elements(root) if element.tag == "DEGREE"]


def carriage_return_doc(tag):
    r"""An ``old_doc`` (``tag`` "old") or ``new_doc`` whose DEGREE holds
    ``\r`` and ``\r\n`` in its ``val`` and in its PCDATA."""
    make = old_doc if tag == "old" else new_doc
    root = make(f"{tag}\rB\r\nS")
    degrees(root)[0].append_child(Text(f"{tag} line\r\nnext\rlast"))
    return root


def degree_fields(repository):
    return sorted(
        (degree.get_val(), degree.inner_text())
        for document in repository.documents
        for degree in degrees(document)
    )


class TestCarriageReturns:
    def test_carriage_returns_survive_publish_sync_and_load(self, tmp_path):
        r"""Stored XML writes a ``\r`` as ``&#13;`` and is read as bytes: a
        ``\r`` in text or an attribute value is not turned into ``\n`` on
        its way through a migration."""
        versioned = VersionedRepository(tmp_path / "repo")
        stored = XMLRepository(OLD_DTD)
        stored.insert(carriage_return_doc("old"))
        publish(versioned, stored, schema_version=1)
        assert degree_fields(versioned.load()) == degree_fields(stored)
        stored_xml = versioned.document_xml()[0]
        assert "\r" not in stored_xml and "&#13;" in stored_xml
        new_xml = to_xml_document(carriage_return_doc("new"))
        version, report = versioned.sync(NEW_DTD, [new_xml], schema_version=2)
        assert report is not None and report.migrated == 1
        fields = degree_fields(versioned.load(version))
        assert [val for val, _ in fields] == ["new\rB\r\nS", "old\rB\r\nS"]
        for tag, (_, text) in zip(("new", "old"), fields):
            assert f"{tag} line\r\nnext\rlast" in text


def oracle_sync(repository, dtd, new_xml):
    """The serial reference for ``sync``: migrate the stored repository
    with the oracle, then insert the new documents one by one."""
    migrated, _report = migrate_repository(repository, dtd)
    for xml in new_xml:
        migrated.insert(load_xml_document(xml))
    return migrated


def stats_json(stats):
    return {
        "documents": stats.documents,
        "conforming_on_arrival": stats.conforming_on_arrival,
        "repaired": stats.repaired,
        "rejected": stats.rejected,
        "total_repair_operations": stats.total_repair_operations,
    }


class TestSyncParity:
    @pytest.mark.parametrize("target", [NEW_DTD, OLD_DTD],
                             ids=["migrating", "not-migrating"])
    def test_sync_matches_oracle(self, tmp_path, target):
        stored = old_repository(4)
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, stored)
        # One new document conforms to each DTD; the other needs repair.
        new_xml = [to_xml_document(old_doc("M.S.")),
                   to_xml_document(new_doc("Ph.D."))]
        version, _report = versioned.sync(target, new_xml)
        expected = oracle_sync(stored, target, new_xml)
        assert versioned.document_xml(version) == expected.export()
        assert manifest_stats(versioned, version) == stats_json(expected.stats)
        assert versioned.dtd_text() == target.render()


class TestCarriedDocuments:
    def test_not_migrating_links_the_previous_files(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3))
        versioned.sync(OLD_DTD, [to_xml_document(new_doc("Ph.D."))])
        carried = versioned.document_paths(1)
        published = versioned.document_paths(2)
        assert len(published) == len(carried) + 1
        for before, after in zip(carried, published):
            assert after.stat().st_ino == before.stat().st_ino
            assert after.read_bytes() == before.read_bytes()

    def test_not_migrating_reads_no_stored_document(self, tmp_path, monkeypatch):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3))

        def refuse(*_args, **_kwargs):
            raise AssertionError("a non-migrating sync read or migrated")

        monkeypatch.setattr(VersionedRepository, "document_xml", refuse)
        monkeypatch.setattr(
            "repro.mapping.versioned.migrate_documents", refuse
        )
        version, report = versioned.sync(OLD_DTD, [])
        assert (version, report) == (2, None)
        assert manifest_stats(versioned, 2)["conforming_on_arrival"] == 3

    def test_link_refused_falls_back_to_a_copy(self, tmp_path, monkeypatch):
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(2))

        def no_link(*_args, **_kwargs):
            raise OSError("hard links not supported")

        monkeypatch.setattr(os, "link", no_link)
        versioned.sync(OLD_DTD, [])
        for before, after in zip(versioned.document_paths(1),
                                 versioned.document_paths(2)):
            assert after.stat().st_ino != before.stat().st_ino
            assert after.read_bytes() == before.read_bytes()

    def test_stale_staging_links_leave_the_published_version_alone(
        self, tmp_path
    ):
        """A publish that died after linking v1's files into its staging
        directory leaves links behind; the next publish, migrating, must
        not write through them into v1."""
        versioned = VersionedRepository(tmp_path / "repo")
        publish(versioned, old_repository(3))
        before = [path.read_bytes() for path in versioned.document_paths(1)]
        staging = versioned.versions_dir / ".staging-v0002"
        staging.mkdir()
        for path in versioned.document_paths(1):
            os.link(path, staging / path.name)
        version, report = versioned.sync(NEW_DTD, [])
        assert version == 2 and report.migrated == 3
        assert [path.read_bytes() for path in versioned.document_paths(1)] \
            == before
        assert versioned.document_xml(2) != [b.decode() for b in before]

    def test_link_onto_an_existing_name_raises(self, tmp_path):
        source, target = tmp_path / "source", tmp_path / "target"
        source.write_bytes(b"new")
        target.write_bytes(b"old")
        with pytest.raises(FileExistsError):
            link_or_copy(source, target)
        assert target.read_bytes() == b"old"


class TestOneRepairStep:
    """Every caller repairs through ``repair``: with the conform step
    disabled, each one raises on the residue instead of storing or
    returning a document that does not conform."""

    @pytest.fixture(autouse=True)
    def no_op_conform(self, monkeypatch):
        monkeypatch.setattr(
            conform_module, "conform_document",
            lambda root, dtd, **_: ConformResult(root),
        )

    def test_insert(self):
        with pytest.raises(AssertionError, match="repair left violations"):
            XMLRepository(NEW_DTD).insert(old_doc("B.S."))

    def test_migrate_documents(self):
        with pytest.raises(AssertionError, match="repair left violations"):
            migrate_documents(old_repository(2).export(), NEW_DTD, max_workers=1)

    def test_sync(self, tmp_path):
        versioned = VersionedRepository(tmp_path / "repo")
        with pytest.raises(AssertionError, match="repair left violations"):
            versioned.sync(NEW_DTD, [to_xml_document(old_doc("B.S."))])
        assert not versioned.exists()

    def test_conform_to_version(self, tmp_path, kb, converted_corpus):
        state = TopicState("resume", kb, tmp_path / "topic")
        state.fold(
            PathAccumulator.from_trees([r.root for r in converted_corpus]), []
        )
        version = state.evolving.version
        stray = Element("RESUME")
        stray.append_child(Element("NOT_A_CONCEPT"))
        assert validate_document(stray, state.dtd_for_version(version))
        with pytest.raises(AssertionError, match="repair left violations"):
            state.conform_to_version(to_xml_document(stray), version)


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
