"""Property-based tests for :class:`PathAccumulator` (hypothesis).

The engine's correctness rests on ``merge`` being a commutative monoid
over path statistics: any chunking of a corpus, merged in any grouping,
must equal the single-pass accumulation.  Counters are exact integers;
position sums are floats, so re-associated additions are compared with
``pytest.approx``.
"""

from __future__ import annotations

import pickle
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.node import Element
from repro.schema.accumulator import PathAccumulator
from repro.schema.frequent import mine_frequent_paths
from repro.schema.paths import extract_paths
from tests.oracles import schema_stats as oracle

tag_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def element_trees(draw, max_depth=3, max_children=3):
    """Random small element trees (same shape as test_properties.py)."""

    def build(depth):
        element = Element(draw(tag_names))
        if depth < max_depth:
            for _ in range(draw(st.integers(0, max_children))):
                element.append_child(build(depth + 1))
        return element

    return build(0)


document_paths = st.builds(extract_paths, element_trees())
corpora = st.lists(document_paths, min_size=0, max_size=8)


# Multi-character labels: one-character strings are shared singletons in
# CPython, so only these show whether unpickling re-interns labels.
label_names = st.sampled_from(["RESUME", "CONTACT", "EDUCATION", "DEGREE", "DATE"])
label_paths = st.lists(label_names, min_size=1, max_size=4).map(tuple)


@st.composite
def hand_built_accumulators(draw):
    """Accumulators whose three dicts need not share keys or key order --
    shapes ``add``/``update`` never build, but the wire form must keep."""
    paths = draw(st.lists(label_paths, unique=True, max_size=8))

    def keys():
        order = draw(st.permutations(paths))
        return [path for path in order if draw(st.booleans())]

    counts = st.integers(min_value=0, max_value=50)
    return PathAccumulator(
        document_count=draw(counts),
        doc_frequency=Counter({path: draw(counts) for path in keys()}),
        position_sum={
            path: draw(st.floats(allow_nan=False, allow_infinity=False))
            for path in keys()
        },
        multiplicity_docs={
            path: Counter(draw(st.dictionaries(counts, counts, max_size=3)))
            for path in keys()
        },
    )


def assert_equivalent(a: PathAccumulator, b: PathAccumulator) -> None:
    """Exact on counters, approx on re-associated float position sums."""
    assert a.document_count == b.document_count
    assert a.doc_frequency == b.doc_frequency
    assert a.multiplicity_docs == b.multiplicity_docs
    assert set(a.position_sum) == set(b.position_sum)
    for path, value in a.position_sum.items():
        assert b.position_sum[path] == pytest.approx(value)


class TestMonoidLaws:
    @given(corpora)
    def test_identity(self, docs):
        acc = PathAccumulator.from_documents(docs)
        empty = PathAccumulator()
        assert acc.merge(empty) == acc
        assert empty.merge(acc) == acc

    @given(corpora, corpora)
    def test_commutative(self, left, right):
        a = PathAccumulator.from_documents(left)
        b = PathAccumulator.from_documents(right)
        # IEEE addition commutes exactly, so equality is exact here.
        assert a.merge(b) == b.merge(a)

    @given(corpora, corpora, corpora)
    @settings(max_examples=50)
    def test_associative(self, one, two, three):
        a = PathAccumulator.from_documents(one)
        b = PathAccumulator.from_documents(two)
        c = PathAccumulator.from_documents(three)
        assert_equivalent(a.merge(b).merge(c), a.merge(b.merge(c)))

    @given(corpora, corpora)
    def test_merge_is_pure(self, left, right):
        a = PathAccumulator.from_documents(left)
        b = PathAccumulator.from_documents(right)
        a_before, b_before = a.copy(), b.copy()
        a.merge(b)
        assert a == a_before
        assert b == b_before


class TestPartitionEquivalence:
    @given(corpora, st.integers(min_value=1, max_value=4))
    def test_chunked_merge_equals_single_pass(self, docs, chunk_size):
        """Any document partition, merged in order, equals one pass."""
        whole = PathAccumulator.from_documents(docs)
        merged = PathAccumulator()
        for start in range(0, len(docs), chunk_size):
            merged.update(
                PathAccumulator.from_documents(docs[start : start + chunk_size])
            )
        assert_equivalent(merged, whole)

    @given(corpora, st.integers(min_value=1, max_value=4))
    @settings(max_examples=40)
    def test_mining_agrees_across_representations(self, docs, chunk_size):
        """Frequent paths from merged chunks == from the document list."""
        merged = PathAccumulator()
        for start in range(0, len(docs), chunk_size):
            merged.update(
                PathAccumulator.from_documents(docs[start : start + chunk_size])
            )
        from_list = mine_frequent_paths(docs, sup_threshold=0.5)
        from_acc = mine_frequent_paths(merged, sup_threshold=0.5)
        assert from_acc.paths == from_list.paths
        assert from_acc.nodes_explored == from_list.nodes_explored
        assert from_acc.nodes_counted == from_list.nodes_counted


def assert_same_key_order(a: PathAccumulator, b: PathAccumulator) -> None:
    for name in ("doc_frequency", "position_sum", "multiplicity_docs"):
        assert list(getattr(a, name)) == list(getattr(b, name))


class TestUpdate:
    @given(corpora, corpora)
    def test_document_by_document_update_equals_single_pass(self, left, right):
        """Merging one-document accumulators repeats ``add`` exactly:
        the same float additions in the same order, the same key order,
        and ``Counter`` histograms."""
        merged = PathAccumulator.from_documents(left)
        for doc in right:
            merged.update(PathAccumulator.from_documents([doc]))
        whole = PathAccumulator.from_documents(left + right)
        assert merged == whole
        assert_same_key_order(merged, whole)
        assert type(merged.doc_frequency) is Counter
        for histogram in merged.multiplicity_docs.values():
            assert type(histogram) is Counter

    @given(corpora, corpora)
    def test_update_keeps_single_pass_key_order(self, left, right):
        merged = PathAccumulator.from_documents(left)
        merged.update(PathAccumulator.from_documents(right))
        whole = PathAccumulator.from_documents(left + right)
        assert_equivalent(merged, whole)
        assert_same_key_order(merged, whole)

    def test_update_copies_new_histograms(self):
        other = PathAccumulator.from_documents(
            [extract_paths(Element("RESUME"))]
        )
        merged = PathAccumulator()
        merged.update(other)
        merged.update(other)
        assert other.multiplicity_docs[("RESUME",)] == Counter({1: 1})
        assert merged.multiplicity_docs[("RESUME",)] == Counter({1: 2})


class TestStatisticsAgreement:
    @given(corpora)
    @settings(max_examples=50)
    def test_support_and_positions_match_document_lists(self, docs):
        """Accumulator queries equal the list-based oracles exactly."""
        acc = PathAccumulator.from_documents(docs)
        paths = {path for doc in docs for path in doc.paths}
        for path in paths:
            assert acc.support(path) == oracle.support(docs, path)
            assert acc.presence_fraction(path) == oracle.presence_fraction(
                docs, path
            )
            for threshold in (2, 3):
                assert acc.multiplicity_fraction(
                    path, rep_threshold=threshold
                ) == oracle.multiplicity_fraction(
                    docs, path, rep_threshold=threshold
                )
            parent, label = path[:-1], path[-1]
            if parent:
                expected = oracle.average_child_positions(docs, parent, [label])
                assert acc.avg_position(path) == expected[label]


def assert_wire_round_trip(acc: PathAccumulator) -> None:
    clone = pickle.loads(pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == acc
    fields = ("doc_frequency", "position_sum", "multiplicity_docs")
    for name in fields:
        assert list(getattr(clone, name)) == list(getattr(acc, name))
    assert type(clone.doc_frequency) is Counter
    for histogram in clone.multiplicity_docs.values():
        assert type(histogram) is Counter
    for name in fields:
        for path in getattr(clone, name):
            for label in path:
                assert label is sys.intern(label)


class TestWireForm:
    @given(corpora)
    def test_round_trip_of_accumulated_corpora(self, docs):
        assert_wire_round_trip(PathAccumulator.from_documents(docs))

    @given(hand_built_accumulators())
    def test_round_trip_of_hand_built_accumulators(self, acc):
        assert_wire_round_trip(acc)

    @pytest.mark.parametrize(
        "acc",
        [
            pytest.param(
                PathAccumulator(
                    document_count=2,
                    doc_frequency=Counter({("RESUME",): 2, ("RESUME", "DATE"): 1}),
                    position_sum={("RESUME",): 0.0},
                    multiplicity_docs={
                        ("RESUME",): Counter({1: 2}),
                        ("RESUME", "DATE"): Counter({1: 1}),
                    },
                ),
                id="path-missing-from-position-sum",
            ),
            pytest.param(
                PathAccumulator(
                    document_count=1,
                    doc_frequency=Counter({("RESUME",): 1, ("RESUME", "DATE"): 1}),
                    position_sum={("RESUME", "DATE"): 1.0, ("RESUME",): 0.0},
                    multiplicity_docs={
                        ("RESUME", "DATE"): Counter({2: 1}),
                        ("RESUME",): Counter({1: 1}),
                    },
                ),
                id="dicts-in-different-orders",
            ),
        ],
    )
    def test_round_trip_of_differing_key_lists(self, acc):
        assert_wire_round_trip(acc)

    @given(corpora)
    def test_shared_key_list_decodes_like_separate_lists(self, docs):
        """Accumulators built by ``add`` write one key list in all three
        slots; the older form with three equal lists still decodes to
        the same accumulator."""
        acc = PathAccumulator.from_documents(docs)
        shared = acc.__getstate__()
        assert shared[3] is shared[5] is shared[7]
        separate = list(shared)
        separate[5], separate[7] = list(shared[3]), list(shared[3])
        decoded = []
        for state in (shared, tuple(separate)):
            clone = PathAccumulator()
            clone.__setstate__(state)
            decoded.append(clone)
        assert decoded[0] == decoded[1] == acc
        assert_same_key_order(decoded[0], decoded[1])
        assert_same_key_order(decoded[0], acc)

    def test_shared_key_list_is_pickled_once(self):
        root = Element("RESUME")
        education = Element("EDUCATION")
        for tag in ("DEGREE", "DATE"):
            education.append_child(Element(tag))
        root.append_child(education)
        acc = PathAccumulator.from_documents([extract_paths(root)])
        state = acc.__getstate__()
        separate = (*state[:5], list(state[3]), state[6], list(state[3]), state[8])
        assert len(pickle.dumps(state)) < len(pickle.dumps(separate))

    @pytest.mark.parametrize(
        "state",
        [
            {"document_count": 1, "doc_frequency": Counter()},
            (99, 0, [], [], [], [], [], [], []),
            (),
            None,
        ],
        ids=["dict-state", "unknown-version", "empty-tuple", "none"],
    )
    def test_unsupported_state_raises(self, state):
        with pytest.raises(ValueError, match="unsupported PathAccumulator"):
            PathAccumulator().__setstate__(state)
