"""Property-based tests on the schema-discovery layer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.node import Element
from repro.schema.accumulator import PathAccumulator
from repro.schema.dataguide import build_dataguide
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import extract_paths

labels = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def xml_trees(draw, max_depth=3, max_children=3):
    def build(depth):
        element = Element("ROOT" if depth == 0 else draw(labels))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                element.append_child(build(depth + 1))
        return element

    return build(0)


@st.composite
def corpora(draw, min_docs=1, max_docs=5):
    count = draw(st.integers(min_docs, max_docs))
    return [draw(xml_trees()) for _ in range(count)]


class TestSupportProperties:
    @given(corpora())
    @settings(max_examples=50)
    def test_support_in_unit_interval(self, corpus):
        documents = [extract_paths(t) for t in corpus]
        stats = PathAccumulator.from_documents(documents)
        for path in stats.doc_frequency:
            assert 0.0 < stats.support(path) <= 1.0

    @given(corpora())
    @settings(max_examples=50)
    def test_support_antimonotone_in_path_length(self, corpus):
        """A path's support never exceeds its prefix's support."""
        documents = [extract_paths(t) for t in corpus]
        stats = PathAccumulator.from_documents(documents)
        for path in stats.doc_frequency:
            if len(path) > 1:
                assert stats.support(path) <= stats.support(path[:-1])

    @given(corpora())
    @settings(max_examples=50)
    def test_support_ratio_in_unit_interval(self, corpus):
        documents = [extract_paths(t) for t in corpus]
        stats = PathAccumulator.from_documents(documents)
        for path in stats.doc_frequency:
            assert 0.0 <= stats.support_ratio(path) <= 1.0

    @given(corpora())
    @settings(max_examples=50)
    def test_root_support_is_one(self, corpus):
        documents = [extract_paths(t) for t in corpus]
        stats = PathAccumulator.from_documents(documents)
        assert stats.support(("ROOT",)) == 1.0


class TestMiningProperties:
    @given(corpora(), st.floats(0.1, 1.0))
    @settings(max_examples=50)
    def test_frequent_set_prefix_closed(self, corpus, threshold):
        documents = [extract_paths(t) for t in corpus]
        result = mine_frequent_paths(documents, sup_threshold=threshold)
        for path in result.paths:
            for cut in range(1, len(path)):
                assert path[:cut] in result.paths

    @given(corpora(), st.floats(0.1, 0.9))
    @settings(max_examples=50)
    def test_threshold_monotonicity(self, corpus, threshold):
        """Raising supThreshold never adds paths."""
        documents = [extract_paths(t) for t in corpus]
        loose = mine_frequent_paths(documents, sup_threshold=threshold)
        strict = mine_frequent_paths(documents, sup_threshold=threshold + 0.1)
        assert strict.paths <= loose.paths

    @given(corpora())
    @settings(max_examples=50)
    def test_majority_bounded_by_dataguide(self, corpus):
        documents = [extract_paths(t) for t in corpus]
        guide = build_dataguide(documents)
        result = mine_frequent_paths(documents, sup_threshold=0.5)
        if result.paths:
            majority = MajoritySchema.from_frequent_paths(result)
            assert majority.paths() <= guide.paths()

    @given(corpora())
    @settings(max_examples=50)
    def test_every_frequent_path_occurs_somewhere(self, corpus):
        documents = [extract_paths(t) for t in corpus]
        result = mine_frequent_paths(documents, sup_threshold=0.3)
        for path in result.paths:
            assert any(doc.contains(path) for doc in documents)


class TestAccuracyMetricProperties:
    @given(xml_trees())
    @settings(max_examples=50)
    def test_zero_errors_against_self(self, tree):
        from repro.evaluation.accuracy import count_logical_errors

        assert count_logical_errors(tree, tree).errors == 0

    @given(xml_trees(), xml_trees())
    @settings(max_examples=50)
    def test_errors_symmetric_in_magnitude_class(self, a, b):
        """Errors are zero iff the group-edge multisets agree."""
        from repro.evaluation.accuracy import _group_edges, count_logical_errors

        errors = count_logical_errors(a, b).errors
        if _group_edges(a) == _group_edges(b):
            assert errors == 0
        else:
            assert errors > 0

    @given(xml_trees(), xml_trees())
    @settings(max_examples=50)
    def test_errors_nonnegative_and_bounded(self, a, b):
        from repro.evaluation.accuracy import _group_edges, count_logical_errors

        result = count_logical_errors(a, b)
        assert result.errors >= 0
        total_edges = sum(_group_edges(a).values()) + sum(_group_edges(b).values())
        assert result.errors <= total_edges


class TestDtdProperties:
    @given(corpora(min_docs=2))
    @settings(max_examples=40)
    def test_derived_dtd_renders_and_parses(self, corpus):
        from repro.schema.dtd import DTD, derive_dtd

        documents = [extract_paths(t) for t in corpus]
        result = mine_frequent_paths(documents, sup_threshold=0.5)
        if not result.paths:
            return
        schema = MajoritySchema.from_frequent_paths(result)
        dtd = derive_dtd(schema, documents)
        parsed = DTD.parse(dtd.render())
        assert set(parsed.elements) == set(dtd.elements)

    @given(corpora(min_docs=2))
    @settings(max_examples=40)
    def test_conform_then_validate_holds(self, corpus):
        """Repairing any corpus document against its own derived DTD
        always yields a conforming document."""
        from repro.dom.treeops import clone
        from repro.mapping.conform import conform_document
        from repro.mapping.validate import validate_document
        from repro.schema.dtd import derive_dtd

        documents = [extract_paths(t) for t in corpus]
        result = mine_frequent_paths(documents, sup_threshold=0.5)
        if not result.paths:
            return
        schema = MajoritySchema.from_frequent_paths(result)
        dtd = derive_dtd(schema, documents)
        for tree in corpus:
            candidate = clone(tree)
            conform_document(candidate, dtd)
            assert validate_document(candidate, dtd) == []
