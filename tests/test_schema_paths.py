"""Tests for label-path extraction (Section 3.2)."""

from repro.dom.node import Element
from repro.schema.paths import POSITION_DENOMINATOR, extract_paths


def tree(spec):
    tag, kids = spec
    element = Element(tag)
    for kid in kids:
        element.append_child(tree(kid))
    return element


RESUME = tree(
    (
        "resume",
        [
            ("education", [
                ("degree", [("date", []), ("institution", [])]),
                ("degree", [("date", [])]),
            ]),
            ("contact", []),
        ],
    )
)


class TestPathSet:
    def test_prefix_closed(self):
        doc = extract_paths(RESUME)
        assert ("resume",) in doc.paths
        assert ("resume", "education") in doc.paths
        assert ("resume", "education", "degree") in doc.paths
        assert ("resume", "education", "degree", "date") in doc.paths

    def test_duplicate_node_paths_collapse(self):
        """Two degree nodes contribute ONE label path (set semantics)."""
        doc = extract_paths(RESUME)
        degree_paths = [p for p in doc.paths if p[-1] == "degree"]
        assert degree_paths == [("resume", "education", "degree")]

    def test_path_count(self):
        doc = extract_paths(RESUME)
        assert len(doc.paths) == 6

    def test_contains(self):
        doc = extract_paths(RESUME)
        assert doc.contains(("resume", "contact"))
        assert not doc.contains(("resume", "skills"))

    def test_single_node_tree(self):
        doc = extract_paths(Element("root"))
        assert doc.paths == {("root",)}
        assert doc.multiplicity[("root",)] == 1


class TestMultiplicity:
    def test_sibling_multiplicity_recorded(self):
        doc = extract_paths(RESUME)
        assert doc.multiplicity[("resume", "education", "degree")] == 2

    def test_single_occurrence(self):
        doc = extract_paths(RESUME)
        assert doc.multiplicity[("resume", "contact")] == 1

    def test_max_across_realizations(self):
        # Two education sections: one with 3 dates, one with 1.
        root = tree(
            (
                "r",
                [
                    ("e", [("d", []), ("d", []), ("d", [])]),
                    ("e", [("d", [])]),
                ],
            )
        )
        doc = extract_paths(root)
        assert doc.multiplicity[("r", "e", "d")] == 3


class TestPositions:
    def test_average_positions(self):
        doc = extract_paths(RESUME)
        assert doc.position_numerator[("resume", "education")] == 0
        assert doc.position_numerator[("resume", "contact")] == POSITION_DENOMINATOR

    def test_averaged_over_realizations(self):
        # date at positions 0 and 0 in the two degrees -> 0.0;
        # institution at position 1 in the first degree -> 1.0.
        doc = extract_paths(RESUME)
        numerators = doc.position_numerator
        assert numerators[("resume", "education", "degree", "date")] == 0
        assert (
            numerators[("resume", "education", "degree", "institution")]
            == POSITION_DENOMINATOR
        )

    def test_root_position_zero(self):
        doc = extract_paths(RESUME)
        assert doc.position_numerator[("resume",)] == 0
