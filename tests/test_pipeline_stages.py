"""White-box invariants between the four restructuring rule stages.

The pipeline's correctness argument rests on what each rule guarantees
to the next; these tests pin those contracts down on a real document.
"""

import pytest

from repro.convert.config import ConversionConfig
from repro.convert.consolidation_rule import apply_consolidation_rule
from repro.convert.grouping_rule import GROUP_TAG, apply_grouping_rule
from repro.convert.instance_rule import apply_instance_rule
from repro.convert.tokenize_rule import TOKEN_TAG, apply_tokenization_rule
from repro.dom.node import Element, Text
from repro.dom.treeops import iter_elements, iter_preorder
from repro.htmlparse.parser import body_of, parse_html
from repro.htmlparse.tidy import tidy

HTML = """
<html><head><title>Pat Doe Resume</title></head><body>
<h1>Resume</h1>
<h2>Education</h2>
<ul>
<li>June 1996, Stanford University, B.S. (Computer Science), GPA 3.8/4.0</li>
<li>June 1999, Cornell University, M.S.</li>
</ul>
<h2>Skills</h2>
<p>C++, Java; Unix</p>
</body></html>
"""


@pytest.fixture()
def stages(kb):
    """Run the pipeline stage by stage, capturing the tree after each."""
    config = ConversionConfig()
    document = parse_html(HTML)
    tidy(document)
    work = body_of(document)

    snapshots = {}
    apply_tokenization_rule(work, config)
    snapshots["tokenized"] = _snapshot(work)
    stats = apply_instance_rule(work, kb, config)
    snapshots["tagged"] = _snapshot(work)
    apply_grouping_rule(work, config)
    snapshots["grouped"] = _snapshot(work)
    apply_consolidation_rule(work, kb)
    snapshots["consolidated"] = _snapshot(work)
    return work, snapshots, stats


def _snapshot(root):
    return {
        "tags": [el.tag for el in iter_elements(root)],
        "text_nodes": sum(
            1 for n in iter_preorder(root) if isinstance(n, Text) and n.text.strip()
        ),
    }


class TestStageContracts:
    def test_after_tokenization_text_only_inside_tokens(self, stages):
        _work, snapshots, _stats = stages
        # Text still exists but only under TOKEN elements.
        assert TOKEN_TAG in snapshots["tokenized"]["tags"]
        assert snapshots["tokenized"]["text_nodes"] > 0

    def test_after_instance_rule_no_tokens_remain(self, stages):
        _work, snapshots, _stats = stages
        assert TOKEN_TAG not in snapshots["tagged"]["tags"]

    def test_after_instance_rule_no_text_nodes_remain(self, stages):
        _work, snapshots, _stats = stages
        assert snapshots["tagged"]["text_nodes"] == 0

    def test_grouping_adds_only_group_nodes(self, stages):
        _work, snapshots, _stats = stages
        from collections import Counter

        before = Counter(snapshots["tagged"]["tags"])
        after = Counter(snapshots["grouped"]["tags"])
        diff = after - before
        assert set(diff) <= {GROUP_TAG}

    def test_grouping_never_removes_nodes(self, stages):
        _work, snapshots, _stats = stages
        from collections import Counter

        before = Counter(snapshots["tagged"]["tags"])
        after = Counter(snapshots["grouped"]["tags"])
        assert not (before - after)

    def test_after_consolidation_only_concepts_below_root(self, stages, kb):
        work, snapshots, _stats = stages
        below_root = [
            el.tag for el in iter_elements(work) if el is not work
        ]
        assert below_root
        assert set(below_root) <= kb.concept_tags()

    def test_consolidation_preserves_concept_multiset(self, stages, kb):
        """Consolidation may only delete non-concept nodes -- every
        concept element survives it."""
        _work, snapshots, _stats = stages
        from collections import Counter

        concepts_before = Counter(
            t for t in snapshots["grouped"]["tags"] if t in kb.concept_tags()
        )
        concepts_after = Counter(
            t for t in snapshots["consolidated"]["tags"] if t in kb.concept_tags()
        )
        assert concepts_before == concepts_after

    def test_no_information_lost_across_stages(self, stages):
        """Every informative word of the source survives in some val."""
        work, _snapshots, _stats = stages
        vals = " ".join(el.get_val() for el in iter_elements(work))
        for phrase in ("Stanford University", "GPA 3.8/4.0", "C++", "Unix"):
            assert phrase in vals

    def test_stats_consistent_with_tree(self, stages, kb):
        work, _snapshots, stats = stages
        tagged_elements = sum(
            1 for el in iter_elements(work) if el is not work
        )
        # Every identified element was created by the instance rule.
        assert stats.elements_created >= tagged_elements - stats.identified


class TestRepositoryIndexQueries:
    def test_query_path_matches_tree_walk(self, kb, converter):
        from repro.corpus.generator import ResumeCorpusGenerator
        from repro.mapping.repository import XMLRepository
        from repro.schema.dtd import derive_dtd
        from repro.schema.frequent import mine_frequent_paths
        from repro.schema.majority import MajoritySchema
        from repro.schema.paths import extract_paths

        docs = ResumeCorpusGenerator(seed=12).generate(10)
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
        repo = XMLRepository(dtd)
        for result in results:
            repo.insert(result.root)

        walked = repo.query("RESUME/EDUCATION")
        indexed = repo.query_path(("RESUME", "EDUCATION"))
        assert {id(e) for e in walked} == {id(e) for e in indexed}

    def test_index_invalidated_on_insert(self, kb):
        from repro.dom.node import Element
        from repro.mapping.repository import XMLRepository
        from repro.schema.dtd import DTD

        dtd = DTD.parse("<!ELEMENT resume (#PCDATA)>")
        repo = XMLRepository(dtd)
        repo.insert(Element("RESUME"))
        assert repo.path_index().document_count == 1
        repo.insert(Element("RESUME"))
        assert repo.path_index().document_count == 2
