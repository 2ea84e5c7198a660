"""Tests for repository persistence."""

import pytest

from repro.dom.node import Element
from repro.mapping.persistence import (
    load_repository,
    load_xml_document,
    save_repository,
)
from repro.mapping.repository import XMLRepository
from repro.schema.dtd import DTD

DTD_TEXT = """
<!ELEMENT resume ((#PCDATA), contact, education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree)>
<!ELEMENT degree (#PCDATA)>
"""


def conforming_doc(degree="B.S."):
    root = Element("RESUME")
    root.append_child(Element("CONTACT"))
    edu = root.append_child(Element("EDUCATION"))
    d = edu.append_child(Element("DEGREE"))
    d.set_val(degree)
    return root


@pytest.fixture()
def repo():
    repository = XMLRepository(DTD.parse(DTD_TEXT))
    repository.insert(conforming_doc("B.S."))
    repository.insert(conforming_doc("M.S."))
    return repository


class TestLoadXmlDocument:
    def test_round_trip_tags_and_vals(self):
        from repro.dom.serialize import to_xml_document

        doc = conforming_doc("Ph.D.")
        loaded = load_xml_document(to_xml_document(doc))
        assert loaded.tag == "RESUME"
        degree = loaded.element_children()[1].element_children()[0]
        assert degree.tag == "DEGREE"
        assert degree.get_val() == "Ph.D."

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            load_xml_document("   ")


class TestSaveLoad:
    def test_directory_layout(self, repo, tmp_path):
        target = save_repository(repo, tmp_path / "store")
        assert (target / "schema.dtd").exists()
        assert (target / "manifest.json").exists()
        assert len(list(target.glob("doc*.xml"))) == 2

    def test_round_trip(self, repo, tmp_path):
        save_repository(repo, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        assert len(loaded) == 2
        assert loaded.dtd.root_name == "resume"
        assert loaded.values("RESUME/EDUCATION/DEGREE") == ["B.S.", "M.S."]

    def test_stats_restored(self, repo, tmp_path):
        save_repository(repo, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        assert loaded.stats.documents == 2
        assert loaded.stats.conforming_on_arrival == 2

    def test_corrupted_document_detected(self, repo, tmp_path):
        target = save_repository(repo, tmp_path / "store")
        victim = sorted(target.glob("doc*.xml"))[0]
        victim.write_text(
            '<?xml version="1.0"?>\n<RESUME><HACKED/></RESUME>'
        )
        with pytest.raises(ValueError):
            load_repository(target)

    def test_unknown_format_rejected(self, repo, tmp_path):
        target = save_repository(repo, tmp_path / "store")
        import json

        manifest = json.loads((target / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (target / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            load_repository(target)

    def test_loaded_repository_accepts_new_documents(self, repo, tmp_path):
        save_repository(repo, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        loaded.insert(conforming_doc("MBA"))
        assert len(loaded) == 3

    def test_end_to_end_with_converted_corpus(self, kb, converter, tmp_path):
        from repro.corpus.generator import ResumeCorpusGenerator
        from repro.schema.dtd import derive_dtd
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.majority import MajoritySchema
        from repro.schema.paths import extract_paths

        docs = ResumeCorpusGenerator(seed=21).generate(12)
        results = [converter.convert(d.html) for d in docs]
        documents = [extract_paths(r.root) for r in results]
        schema = MajoritySchema.from_frequent_paths(
            mine_frequent_paths(
                documents,
                sup_threshold=0.4,
                constraints=kb.constraints,
                candidate_labels=kb.concept_tags(),
            )
        )
        dtd = derive_dtd(schema, documents, optional_threshold=0.9)
        repository = XMLRepository(dtd)
        for result in results:
            repository.insert(result.root)
        save_repository(repository, tmp_path / "full")
        loaded = load_repository(tmp_path / "full")
        assert len(loaded) == len(repository)
        assert loaded.values("RESUME//INSTITUTION")


class TestMultiRootRejection:
    def test_multiple_roots_is_hard_error(self):
        with pytest.raises(ValueError, match="exactly one root"):
            load_xml_document("<RESUME></RESUME><RESUME></RESUME>")

    def test_error_names_the_tags(self):
        with pytest.raises(ValueError, match="resume, contact"):
            load_xml_document("<RESUME/><CONTACT/>")

    def test_single_root_with_declaration_ok(self):
        root = load_xml_document('<?xml version="1.0"?>\n<RESUME/>')
        assert root.tag == "RESUME"


class TestCaseRestoreContract:
    """Tags come back upper-cased: the pinned contract for converted
    documents, whose element names are upper-case concept names."""

    def test_serializer_output_round_trips_exactly(self):
        from repro.dom.serialize import to_xml_document

        doc = conforming_doc("B.S.")
        text = to_xml_document(doc)
        reloaded = load_xml_document(text)
        assert to_xml_document(reloaded) == text

    def test_mixed_case_input_is_uppercased(self):
        root = load_xml_document("<Resume><Contact/></Resume>")
        assert root.tag == "RESUME"
        assert root.element_children()[0].tag == "CONTACT"


class TestStatsFallback:
    def _reload_without(self, repo, tmp_path, dropped):
        import json

        target = save_repository(repo, tmp_path / "store")
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for key in dropped:
            manifest["stats"].pop(key, None)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        return load_repository(target)

    def test_documents_fallback_counts_rejected(self, tmp_path):
        """Rejected documents are never written to disk, so the fallback
        total must be stored + rejected, not just the stored count."""
        repository = XMLRepository(DTD.parse(DTD_TEXT))
        repository.insert(conforming_doc("B.S."))
        repository.insert(conforming_doc("M.S."))
        repository.stats.rejected = 3  # as if 3 blew the repair budget
        loaded = self._reload_without(
            repository, tmp_path, ["documents", "conforming_on_arrival"]
        )
        assert loaded.stats.documents == 5
        assert loaded.stats.rejected == 3
        assert loaded.stats.conforming_on_arrival == 2

    def test_conforming_fallback_excludes_repaired(self, tmp_path):
        repository = XMLRepository(DTD.parse(DTD_TEXT))
        repository.insert(conforming_doc("B.S."))
        repository.insert(conforming_doc("M.S."))
        repository.stats.repaired = 1
        repository.stats.conforming_on_arrival = 1
        loaded = self._reload_without(
            repository, tmp_path, ["documents", "conforming_on_arrival"]
        )
        assert loaded.stats.conforming_on_arrival == 1
        assert loaded.stats.repaired == 1
        # repair_rate stays consistent: accepted == stored documents.
        assert loaded.stats.repair_rate == repository.stats.repair_rate

    def test_full_stats_round_trip(self, tmp_path):
        repository = XMLRepository(DTD.parse(DTD_TEXT))
        repository.insert(conforming_doc("B.S."))
        repository.stats.repaired = 1
        repository.stats.rejected = 2
        repository.stats.total_repair_operations = 9
        repository.stats.documents = 4
        repository.stats.conforming_on_arrival = 0
        save_repository(repository, tmp_path / "store")
        loaded = load_repository(tmp_path / "store")
        assert loaded.stats.documents == 4
        assert loaded.stats.conforming_on_arrival == 0
        assert loaded.stats.repaired == 1
        assert loaded.stats.rejected == 2
        assert loaded.stats.total_repair_operations == 9


class TestSchemaVersionManifest:
    def test_schema_version_round_trips(self, repo, tmp_path):
        repo.schema_version = 4
        save_repository(repo, tmp_path / "store")
        assert load_repository(tmp_path / "store").schema_version == 4

    def test_absent_schema_version_loads_as_none(self, repo, tmp_path):
        save_repository(repo, tmp_path / "store")
        assert load_repository(tmp_path / "store").schema_version is None


class TestNonAsciiRoundTrip:
    def test_round_trip_under_ascii_locale(self, tmp_path):
        """Repository round-trips must not depend on the platform
        locale: run a save/load in a subprocess forced to an ASCII
        preferred encoding, with PCDATA carrying non-ASCII text."""
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            from repro.dom.node import Element
            from repro.mapping.persistence import (
                load_repository,
                save_repository,
            )
            from repro.mapping.repository import XMLRepository
            from repro.schema.dtd import DTD

            dtd = DTD.parse(
                "<!ELEMENT resume ((#PCDATA), contact)>"
                "<!ELEMENT contact (#PCDATA)>"
            )
            value = "Jos\\u00e9 \\u00c5str\\u00f6m \\u2014 \\u65e5\\u672c\\u8a9e"
            root = Element("RESUME")
            root.append_child(Element("CONTACT")).set_val(value)
            repository = XMLRepository(dtd)
            repository.insert(root)
            save_repository(repository, "store")
            loaded = load_repository("store")
            assert loaded.values("RESUME/CONTACT") == [value], "mismatch"
            print("OK")
            """
        )
        env = dict(os.environ)
        env.update({
            "LC_ALL": "C",
            "LANG": "C",
            "PYTHONUTF8": "0",
            "PYTHONIOENCODING": "utf-8",
            "PYTHONPATH": os.pathsep.join(sys.path),
        })
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
