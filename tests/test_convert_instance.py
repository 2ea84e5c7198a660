"""Tests for the concept instance rule (Section 2.3.1)."""

import pytest

from repro.concepts.bayes import MultinomialNaiveBayes
from repro.concepts.concept import Concept, ConceptInstance
from repro.concepts.knowledge import KnowledgeBase
from repro.convert.config import ConversionConfig
from repro.convert.instance_rule import apply_instance_rule
from repro.convert.tokenize_rule import TOKEN_TAG
from repro.dom.node import Element, Text


@pytest.fixture()
def kb():
    kb = KnowledgeBase("test")
    kb.add(Concept("institution", [ConceptInstance("University")]))
    kb.add(Concept("degree", [ConceptInstance("B.S.")]))
    kb.add(
        Concept("date", [ConceptInstance(r"\b(19|20)\d{2}\b", is_regex=True)])
    )
    return kb


def token(text):
    t = Element(TOKEN_TAG)
    t.append_child(Text(text))
    return t


def parent_with_tokens(*texts):
    parent = Element("li")
    for text in texts:
        parent.append_child(token(text))
    return parent


class TestCaseOne:
    def test_identified_token_becomes_concept_element(self, kb):
        parent = parent_with_tokens("Stanford University")
        stats = apply_instance_rule(parent, kb)
        child = parent.element_children()[0]
        assert child.tag == "INSTITUTION"
        assert child.get_val() == "Stanford University"
        assert stats.identified == 1

    def test_whole_token_text_becomes_val(self, kb):
        """Paper: the element keeps the *entire* token text as val."""
        parent = parent_with_tokens("B.S. (Computer Science)")
        apply_instance_rule(parent, kb)
        assert parent.element_children()[0].get_val() == "B.S. (Computer Science)"

    def test_paper_topic_sentence(self, kb):
        parent = parent_with_tokens(
            "University of California at Davis",
            "B.S.(Computer Science)",
            "June 1996",
        )
        apply_instance_rule(parent, kb)
        assert [c.tag for c in parent.element_children()] == [
            "INSTITUTION",
            "DEGREE",
            "DATE",
        ]

    def test_single_concept_token_is_relabelled_in_place(self, kb):
        """A one-concept token keeps its object identity: the rule
        relabels it where it stands instead of building a new element."""
        parent = parent_with_tokens("Stanford University", "lorem", "June 1996")
        institution, dropped, date = parent.children
        stats = apply_instance_rule(parent, kb)
        assert parent.children == [institution, date]
        assert parent.children[0] is institution and parent.children[1] is date
        assert (institution.tag, institution.attrs) == (
            "INSTITUTION", {"val": "Stanford University"}
        )
        assert institution.children == [] and institution.parent is parent
        assert dropped.parent is None
        assert stats.elements_created == 2


class TestCaseTwo:
    def test_unidentified_token_text_passed_to_parent(self, kb):
        parent = parent_with_tokens("completely unknown words")
        stats = apply_instance_rule(parent, kb)
        assert parent.children == []
        assert parent.get_val() == "completely unknown words"
        assert stats.unidentified == 1

    def test_mixed_tokens(self, kb):
        parent = parent_with_tokens("unknown stuff", "Cornell University")
        stats = apply_instance_rule(parent, kb)
        assert len(parent.element_children()) == 1
        assert parent.get_val() == "unknown stuff"
        assert stats.identified == 1
        assert stats.unidentified == 1

    def test_unidentified_ratio(self, kb):
        parent = parent_with_tokens("unknown", "also unknown", "University")
        stats = apply_instance_rule(parent, kb)
        assert stats.unidentified_ratio == pytest.approx(2 / 3)


class TestMultiInstanceSplit:
    def test_token_with_two_instances_split(self, kb):
        """Paper: <TOKEN>t1 t2 t3 t4 t5</TOKEN> with C1@t2, C2@t4 becomes
        <C1 val="t2 t3"/><C2 val="t4 t5"/> and t1 goes to the parent."""
        parent = parent_with_tokens("studied at University campus B.S. honors")
        stats = apply_instance_rule(parent, kb)
        children = parent.element_children()
        assert [c.tag for c in children] == ["INSTITUTION", "DEGREE"]
        assert children[0].get_val() == "University campus"
        assert children[1].get_val() == "B.S. honors"
        assert parent.get_val() == "studied at"
        assert stats.split_tokens == 1

    def test_split_token_is_replaced_by_new_elements(self, kb):
        parent = parent_with_tokens("studied at University campus B.S. honors")
        (split,) = parent.children
        apply_instance_rule(parent, kb)
        assert all(child is not split for child in parent.children)
        assert split.parent is None and split.tag == TOKEN_TAG

    def test_connector_merge_keeps_named_entity_whole(self, kb):
        kb.add(
            Concept(
                "location",
                [ConceptInstance("Davis"), ConceptInstance("California")],
            )
        )
        parent = parent_with_tokens("University of California at Davis")
        apply_instance_rule(parent, kb)
        children = parent.element_children()
        assert [c.tag for c in children] == ["INSTITUTION"]
        assert children[0].get_val() == "University of California at Davis"

    def test_sibling_constraint_vetoes_decomposition(self, kb):
        kb.constraints.add_sibling("INSTITUTION", "DATE", negated=True)
        parent = parent_with_tokens("University somewhere 1996 or so")
        apply_instance_rule(parent, kb)
        children = parent.element_children()
        # The forbidden DATE sibling is folded away; one element remains.
        assert len(children) == 1

    def test_elements_created_counted(self, kb):
        parent = parent_with_tokens("University blah 1996")
        stats = apply_instance_rule(parent, kb)
        assert stats.elements_created == 2
        assert stats.by_concept == {"INSTITUTION": 1, "DATE": 1}


class TestBayesChannel:
    def make_bayes(self):
        clf = MultinomialNaiveBayes()
        clf.fit(
            [
                ("Acme Widget Factory", "COMPANY"),
                ("Gizmo Works Ltd", "COMPANY"),
                ("Factory Works Acme", "COMPANY"),
            ]
        )
        return clf

    def test_bayes_mode_requires_classifier(self, kb):
        with pytest.raises(ValueError):
            apply_instance_rule(
                parent_with_tokens("x"), kb, ConversionConfig(tagger="bayes")
            )

    def test_hybrid_uses_bayes_for_unmatched(self, kb):
        config = ConversionConfig(tagger="hybrid")
        parent = parent_with_tokens("Widget Factory")
        apply_instance_rule(parent, kb, config, bayes=self.make_bayes())
        assert parent.element_children()[0].tag == "COMPANY"

    def test_hybrid_prefers_synonyms(self, kb):
        config = ConversionConfig(tagger="hybrid")
        parent = parent_with_tokens("Factory University")
        apply_instance_rule(parent, kb, config, bayes=self.make_bayes())
        assert parent.element_children()[0].tag == "INSTITUTION"

    def test_bayes_only_mode(self, kb):
        config = ConversionConfig(tagger="bayes")
        parent = parent_with_tokens("Acme Factory", "University")
        apply_instance_rule(parent, kb, config, bayes=self.make_bayes())
        tags = [c.tag for c in parent.element_children()]
        # "University" is unknown vocabulary to this classifier.
        assert tags == ["COMPANY"]
        assert parent.get_val() == "University"
