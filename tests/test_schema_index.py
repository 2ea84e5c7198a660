"""Tests for the path index (Section 3.3)."""

import pytest

from repro.dom.node import Element
from repro.schema.accumulator import PathAccumulator
from repro.schema.index import PathIndex


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


def doc_a():
    return tree(("r", [("edu", [("d", []), ("d", [])]), ("exp", [])]))


def doc_b():
    return tree(("r", [("exp", []), ("edu", [("d", [])])]))


@pytest.fixture()
def index():
    return PathIndex.from_documents([doc_a(), doc_b()])


class TestConstruction:
    def test_document_count(self, index):
        assert index.document_count == 2

    def test_occurrences(self, index):
        assert len(index.elements(("r",))) == 2
        assert len(index.elements(("r", "edu", "d"))) == 3
        assert len(index.elements(("r", "nope"))) == 0

    def test_elements_are_live_pointers(self, index):
        elements = index.elements(("r", "edu"))
        assert len(elements) == 2
        assert all(e.tag == "edu" for e in elements)

    def test_incremental_add(self, index):
        index.add_document(2, tree(("r", [("edu", [])])))
        assert index.document_count == 3
        assert len(index.elements(("r", "edu"))) == 3


class TestStatistics:
    """The statistics of these trees come from :class:`PathAccumulator`;
    the index only has to agree with it on which paths exist."""

    @pytest.fixture()
    def acc(self):
        return PathAccumulator.from_trees([doc_a(), doc_b()])

    def test_document_frequency_and_support(self, acc):
        assert acc.doc_frequency[("r", "edu", "d")] == 2
        assert acc.support(("r", "edu", "d")) == 1.0
        assert acc.support(("r", "nope")) == 0.0

    def test_avg_position_matches_ordering_rule(self, acc):
        # doc A: edu at 0; doc B: edu at 1 -> mean 0.5
        assert acc.avg_position(("r", "edu")) == 0.5
        # exp: positions 1 and 0 -> 0.5
        assert acc.avg_position(("r", "exp")) == 0.5

    def test_avg_position_per_document_first(self, acc):
        # d in doc A at positions 0,1 (avg .5); doc B at 0 -> (0.5+0)/2
        assert acc.avg_position(("r", "edu", "d")) == 0.25

    def test_avg_position_absent_is_inf(self, acc):
        assert acc.avg_position(("r", "zzz")) == float("inf")

    def test_agreement_with_extract_paths(self, index, acc):
        """The index holds exactly the label paths the statistics count."""
        assert set(index.entries) == set(acc.doc_frequency)


class TestNavigation:
    def test_child_labels(self, index):
        assert index.child_labels(("r",)) == {"edu", "exp"}
        assert index.child_labels(("r", "edu")) == {"d"}
        assert index.child_labels(("r", "edu", "d")) == set()

    def test_values(self):
        root = tree(("r", [("x", [])]))
        root.element_children()[0].set_val("hello")
        index = PathIndex.from_documents([root])
        assert index.values(("r", "x")) == ["hello"]
