"""Tests for the consolidation rule (Section 2.3.2, Figure 1)."""

import pytest

from repro.concepts.concept import Concept
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.consolidation_rule import apply_consolidation_rule
from repro.convert.grouping_rule import GROUP_TAG
from repro.dom.node import Element
from repro.dom.treeops import iter_elements


@pytest.fixture()
def kb():
    kb = KnowledgeBase("test")
    for name in ("education", "date", "institution", "degree"):
        kb.add(Concept(name))
    return kb


def residual_markup_tags(root, kb):
    """Tags below ``root`` that are neither concepts nor ``GROUP``:
    after consolidation there must be none."""
    concept_tags = {concept.tag for concept in kb}
    return {
        node.tag
        for node in iter_elements(root)
        if node is not root and node.tag not in concept_tags and node.tag != GROUP_TAG
    }


def concept(tag, *children):
    e = Element(tag)
    for child in children:
        e.append_child(child)
    return e


class TestPaperFigure1:
    def build_figure1(self):
        """The upper tree of Figure 1."""
        h2 = Element("h2")
        h2.append_child(concept("EDUCATION"))
        ul = h2.append_child(Element("ul"))
        g1 = ul.append_child(Element(GROUP_TAG))
        g1.append_child(concept("DATE"))
        g1.append_child(concept("INSTITUTION"))
        g1.append_child(concept("DEGREE"))
        g2 = ul.append_child(Element(GROUP_TAG))
        g2.append_child(concept("DATE"))
        g2.append_child(concept("INSTITUTION"))
        g2.append_child(concept("DEGREE"))
        body = Element("body")
        body.append_child(h2)
        return body, h2

    def test_figure1_transformation(self, kb):
        """GROUPs collapse to DATE-led entries; ul pushes them up; h2 is
        replaced by EDUCATION -- the lower tree of Figure 1."""
        body, _h2 = self.build_figure1()
        apply_consolidation_rule(body, kb)
        assert [c.tag for c in body.element_children()] == ["EDUCATION"]
        education = body.element_children()[0]
        assert [c.tag for c in education.element_children()] == ["DATE", "DATE"]
        for date in education.element_children():
            assert [c.tag for c in date.element_children()] == [
                "INSTITUTION",
                "DEGREE",
            ]


class TestEliminationCases:
    def test_childless_markup_deleted(self, kb):
        body = Element("body")
        body.append_child(Element("hr"))
        body.append_child(concept("DATE"))
        apply_consolidation_rule(body, kb)
        assert [c.tag for c in body.element_children()] == ["DATE"]

    def test_childless_markup_val_preserved(self, kb):
        body = Element("body")
        stray = body.append_child(Element("font"))
        stray.set_val("precious text")
        apply_consolidation_rule(body, kb)
        assert body.get_val() == "precious text"

    def test_list_tag_pushes_children_up(self, kb):
        body = Element("body")
        ul = body.append_child(Element("ul"))
        ul.append_child(concept("DATE"))
        ul.append_child(concept("DEGREE"))
        apply_consolidation_rule(body, kb)
        assert [c.tag for c in body.element_children()] == ["DATE", "DEGREE"]

    def test_same_name_children_push_up(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        div.append_child(concept("DATE"))
        div.append_child(concept("DATE"))
        apply_consolidation_rule(body, kb)
        assert [c.tag for c in body.element_children()] == ["DATE", "DATE"]

    def test_mixed_children_nest_under_first_concept(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        div.append_child(concept("DATE"))
        div.append_child(concept("DEGREE"))
        apply_consolidation_rule(body, kb)
        date = body.element_children()[0]
        assert date.tag == "DATE"
        assert [c.tag for c in date.element_children()] == ["DEGREE"]

    def test_markup_val_moves_to_first_concept(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        div.set_val("context")
        div.append_child(concept("DATE"))
        div.append_child(concept("DEGREE"))
        apply_consolidation_rule(body, kb)
        assert body.element_children()[0].get_val() == "context"

    def test_no_concept_child_pushes_up(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        span = div.append_child(Element("span"))
        span.append_child(concept("DATE"))
        apply_consolidation_rule(body, kb)
        assert [c.tag for c in body.element_children()] == ["DATE"]

    def test_concept_nodes_never_touched(self, kb):
        body = Element("body")
        edu = body.append_child(concept("EDUCATION", concept("DATE")))
        count = apply_consolidation_rule(body, kb)
        assert edu.parent is body
        assert count == 0

    def test_root_itself_kept(self, kb):
        body = Element("body")
        body.append_child(concept("DATE"))
        apply_consolidation_rule(body, kb)
        assert body.tag == "body"


class TestResult:
    def test_no_residual_markup_after_rule(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        ul = div.append_child(Element("ul"))
        li = ul.append_child(Element("li"))
        li.append_child(concept("DATE"))
        font = body.append_child(Element("font"))
        font.append_child(concept("DEGREE"))
        apply_consolidation_rule(body, kb)
        assert residual_markup_tags(body, kb) == set()

    def test_elimination_count(self, kb):
        body = Element("body")
        div = body.append_child(Element("div"))
        div.append_child(concept("DATE"))
        eliminated = apply_consolidation_rule(body, kb)
        assert eliminated == 1
