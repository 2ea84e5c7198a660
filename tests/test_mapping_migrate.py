"""Tests for the serial repository-migration oracle (``tests/oracles/migrate.py``)."""

import pytest

from repro.dom.node import Element
from repro.mapping.repository import XMLRepository
from repro.mapping.validate import validate_document
from repro.schema.dtd import DTD
from tests.oracles.migrate import migrate_repository

OLD_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), contact, education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree)>
<!ELEMENT degree (#PCDATA)>
"""
)

# The new web also expects a skills section, and education entries
# gained an optional date.
NEW_DTD = DTD.parse(
    """
<!ELEMENT resume ((#PCDATA), contact, education+, skills)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree, date?)>
<!ELEMENT degree (#PCDATA)>
<!ELEMENT date (#PCDATA)>
<!ELEMENT skills (#PCDATA)>
"""
)


def old_doc(degree="B.S."):
    root = Element("RESUME")
    root.append_child(Element("CONTACT"))
    edu = root.append_child(Element("EDUCATION"))
    d = edu.append_child(Element("DEGREE"))
    d.set_val(degree)
    return root


@pytest.fixture()
def repo():
    repository = XMLRepository(OLD_DTD)
    repository.insert(old_doc("B.S."))
    repository.insert(old_doc("M.S."))
    return repository


class TestMigration:
    def test_all_documents_conform_after_migration(self, repo):
        migrated, report = migrate_repository(repo, NEW_DTD)
        assert len(migrated) == 2
        for document in migrated.documents:
            assert validate_document(document, NEW_DTD) == []

    def test_original_repository_untouched(self, repo):
        snapshot = [d for d in repo.documents]
        migrate_repository(repo, NEW_DTD)
        assert repo.documents == snapshot
        for document in repo.documents:
            assert validate_document(document, OLD_DTD) == []

    def test_report_counts(self, repo):
        _migrated, report = migrate_repository(repo, NEW_DTD)
        assert report.documents == 2
        assert report.migrated == 2  # both gained a skills section
        assert report.already_conforming == 0
        assert report.total_operations >= 2

    def test_identity_migration_is_free(self, repo):
        _migrated, report = migrate_repository(repo, OLD_DTD)
        assert report.migrated == 0
        assert report.already_conforming == 2
        assert report.total_operations == 0

    def test_edit_distances_measured(self, repo):
        _migrated, report = migrate_repository(repo, NEW_DTD)
        assert len(report.edit_distances) == 2
        assert all(d >= 1 for d in report.edit_distances)
        assert report.avg_edit_distance >= 1

    def test_distance_measurement_optional(self, repo):
        _migrated, report = migrate_repository(
            repo, NEW_DTD, measure_distance=False
        )
        assert report.edit_distances == []
        assert report.avg_edit_distance == 0.0

    def test_values_preserved_across_migration(self, repo):
        migrated, _report = migrate_repository(repo, NEW_DTD)
        assert migrated.values("RESUME/EDUCATION/DEGREE") == ["B.S.", "M.S."]

    def test_end_to_end_with_drifted_corpus(self, kb, converter):
        """Discover on an old mix, integrate; re-discover on a new mix;
        migrate the store; everything conforms to the new DTD."""
        from repro.corpus.generator import ResumeCorpusGenerator
        from repro.corpus.styles import STYLES
        from repro.schema.dtd import derive_dtd
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.majority import MajoritySchema
        from repro.schema.paths import extract_paths

        def discover(style_names, seed):
            weights = {
                s: (1.0 if s in style_names else 0.0) for s in STYLES
            }
            docs = ResumeCorpusGenerator(seed=seed, style_weights=weights).generate(15)
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
            return results, derive_dtd(schema, documents, optional_threshold=0.9)

        old_results, old_dtd = discover(("heading-list", "center-hr"), seed=1)
        repository = XMLRepository(old_dtd)
        for result in old_results:
            repository.insert(result.root)

        _new_results, new_dtd = discover(("table", "font-soup"), seed=2)
        migrated, report = migrate_repository(repository, new_dtd)
        assert len(migrated) == len(repository)
        assert report.documents == len(repository)
        for document in migrated.documents:
            assert validate_document(document, new_dtd) == []
