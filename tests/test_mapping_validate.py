"""Tests for DTD conformance validation."""

import pytest

from repro.dom.node import Element
from repro.mapping.validate import (
    ViolationKind,
    conforms,
    validate_document,
)
from repro.schema.dtd import DTD

DTD_TEXT = """
<!ELEMENT resume ((#PCDATA), contact, education+)>
<!ELEMENT contact (#PCDATA)>
<!ELEMENT education ((#PCDATA), degree, date?)>
<!ELEMENT degree (#PCDATA)>
<!ELEMENT date (#PCDATA)>
"""


@pytest.fixture()
def dtd():
    return DTD.parse(DTD_TEXT)


def doc(*edu_counts_with_degree):
    root = Element("RESUME")
    root.append_child(Element("CONTACT"))
    for has_degree in edu_counts_with_degree:
        edu = root.append_child(Element("EDUCATION"))
        if has_degree:
            edu.append_child(Element("DEGREE"))
    return root


def kinds(violations):
    return {v.kind for v in violations}


class TestConformance:
    def test_conforming_document(self, dtd):
        assert conforms(doc(True), dtd)
        assert conforms(doc(True, True, True), dtd)

    def test_optional_child_may_be_present(self, dtd):
        d = doc(True)
        d.element_children()[1].append_child(Element("DATE"))
        assert conforms(d, dtd)

    def test_wrong_root(self, dtd):
        violations = validate_document(Element("CV"), dtd)
        assert kinds(violations) == {ViolationKind.WRONG_ROOT}

    def test_missing_required_child(self, dtd):
        d = doc(False)  # education without degree
        violations = validate_document(d, dtd)
        assert ViolationKind.MISSING_CHILD in kinds(violations)

    def test_missing_repetitive_child(self, dtd):
        root = Element("RESUME")
        root.append_child(Element("CONTACT"))
        violations = validate_document(root, dtd)  # no education at all
        assert ViolationKind.MISSING_CHILD in kinds(violations)

    def test_unexpected_child(self, dtd):
        d = doc(True)
        d.append_child(Element("HOBBIES"))
        violations = validate_document(d, dtd)
        assert ViolationKind.UNEXPECTED_CHILD in kinds(violations)

    def test_too_many_occurrences(self, dtd):
        d = doc(True)
        d.insert_child(0, Element("CONTACT"))
        violations = validate_document(d, dtd)
        assert ViolationKind.TOO_MANY in kinds(violations)

    def test_wrong_order(self, dtd):
        root = Element("RESUME")
        root.append_child(Element("EDUCATION")).append_child(Element("DEGREE"))
        root.append_child(Element("CONTACT"))
        violations = validate_document(root, dtd)
        assert ViolationKind.WRONG_ORDER in kinds(violations)

    def test_interleaved_runs_rejected(self, dtd):
        root = Element("RESUME")
        root.append_child(Element("CONTACT"))
        root.append_child(Element("EDUCATION")).append_child(Element("DEGREE"))
        root.append_child(Element("CONTACT"))
        violations = validate_document(root, dtd)
        assert ViolationKind.WRONG_ORDER in kinds(violations) or (
            ViolationKind.TOO_MANY in kinds(violations)
        )

    def test_violation_paths_locate_problems(self, dtd):
        d = doc(False)
        violations = validate_document(d, dtd)
        assert any(v.path == ("resume", "education") for v in violations)

    def test_nested_validation_recurses(self, dtd):
        d = doc(True)
        d.element_children()[1].element_children()[0].append_child(
            Element("SURPRISE")
        )
        violations = validate_document(d, dtd)
        assert ViolationKind.UNEXPECTED_CHILD in kinds(violations)
