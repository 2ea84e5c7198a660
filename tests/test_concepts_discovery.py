"""Tests for automatic concept-instance discovery."""

import pytest

from repro.concepts.concept import Concept, ConceptInstance
from repro.concepts.discovery import (
    MAX_PER_CONCEPT,
    InstanceProposal,
    augment_knowledge_base,
    propose_instances,
)
from repro.concepts.knowledge import KnowledgeBase

EXAMPLES = [
    ("Princeton University", "INSTITUTION"),
    ("Princeton College of Arts", "INSTITUTION"),
    ("Princeton Academy", "INSTITUTION"),
    ("Acme Widget Works", "COMPANY"),
    ("Widget Works Ltd", "COMPANY"),
    ("Widget Works of America", "COMPANY"),
    ("June 1996", "DATE"),
    ("July 1996", "DATE"),
    ("August 1996", "DATE"),
]


class TestProposals:
    def test_pure_frequent_words_proposed(self):
        proposals = propose_instances(EXAMPLES, min_count=3)
        keywords = {(p.concept_tag, p.keyword) for p in proposals}
        assert ("INSTITUTION", "princeton") in keywords
        assert any(tag == "COMPANY" and "widget" in kw for tag, kw in keywords)

    def test_bigrams_subsume_words(self):
        proposals = propose_instances(EXAMPLES, min_count=3)
        company = {p.keyword for p in proposals if p.concept_tag == "COMPANY"}
        assert "widget works" in company
        assert "widget" not in company
        assert "works" not in company

    def test_impure_words_rejected(self):
        mixed = EXAMPLES + [("Princeton Works", "COMPANY")] * 2
        proposals = propose_instances(mixed, min_count=3)
        assert not any(
            p.keyword == "princeton" and p.concept_tag == "COMPANY"
            for p in proposals
        )

    def test_min_count_respected(self):
        proposals = propose_instances(EXAMPLES, min_count=4)
        assert not any(p.keyword == "princeton" for p in proposals)

    def test_stopwords_never_proposed(self):
        proposals = propose_instances(EXAMPLES, min_count=1)
        assert not any(p.keyword in ("of", "the") for p in proposals)

    def test_numbers_never_proposed(self):
        proposals = propose_instances(EXAMPLES, min_count=3)
        assert not any(p.keyword == "1996" for p in proposals)

    def test_known_instances_filtered(self):
        kb = KnowledgeBase("t")
        kb.add(Concept("institution", [ConceptInstance("princeton")]))
        proposals = propose_instances(EXAMPLES, kb=kb, min_count=3)
        assert not any(
            p.keyword == "princeton" and p.concept_tag == "INSTITUTION"
            for p in proposals
        )

    def test_max_per_concept(self):
        examples = [
            (f"uniword{i} uniword{i} filler", "X") for i in range(30) for _ in range(3)
        ]
        proposals = propose_instances(examples, min_count=3)
        assert len([p for p in proposals if p.concept_tag == "X"]) == MAX_PER_CONCEPT

    def test_deterministic(self):
        a = propose_instances(EXAMPLES, min_count=3)
        b = propose_instances(EXAMPLES, min_count=3)
        assert a == b


class TestAugmentation:
    def test_proposals_added_to_kb(self):
        kb = KnowledgeBase("t")
        kb.add(Concept("company"))
        added = augment_knowledge_base(
            kb, [InstanceProposal("COMPANY", "widget works", 3, 1.0)]
        )
        assert added == 1
        assert any(
            i.pattern == "widget works" for i in kb.get("company").instances
        )

    def test_unknown_concepts_skipped(self):
        kb = KnowledgeBase("t")
        added = augment_knowledge_base(
            kb, [InstanceProposal("GHOST", "boo", 3, 1.0)]
        )
        assert added == 0


class TestEndToEndDiscovery:
    def test_discovery_reduces_unidentified_ratio(self, kb):
        """The Section 5 workflow: mine instances from labeled docs,
        augment the KB, watch the unidentified-token ratio drop."""
        import copy

        from repro.convert.config import ConversionConfig
        from repro.convert.pipeline import DocumentConverter
        from repro.corpus.generator import ResumeCorpusGenerator
        from repro.dom.treeops import iter_elements

        generator = ResumeCorpusGenerator(seed=31)
        train = generator.generate(30)
        evaluate = generator.generate(10, start_id=100)

        examples = [
            (el.get_val(), el.tag)
            for doc in train
            for el in iter_elements(doc.ground_truth)
            if el.get_val() and el.tag != "RESUME"
        ]

        def unident(knowledge):
            converter = DocumentConverter(knowledge, ConversionConfig())
            results = [converter.convert(d.html) for d in evaluate]
            return sum(r.instance_stats.unidentified for r in results) / sum(
                r.instance_stats.total for r in results
            )

        base_kb = copy.deepcopy(kb)
        before = unident(base_kb)
        proposals = propose_instances(examples, kb=base_kb, min_count=4)
        assert proposals, "discovery should find something to propose"
        augment_knowledge_base(base_kb, proposals)
        after = unident(base_kb)
        assert after < before
