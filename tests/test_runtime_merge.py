"""Property-based tests for :class:`PathAccumulator` (hypothesis).

The engine's correctness rests on ``merge`` being a commutative monoid
over path statistics: any chunking of a corpus, merged in any grouping,
must equal the single-pass accumulation.  Every statistic is exact --
counters are integers and position sums are integer (or ``Fraction``)
numerators -- so every law is checked with ``==``, and so is the DTD
derived from permuted and re-partitioned corpora.
"""

from __future__ import annotations

import pickle
import sys
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dom.node import Element
from repro.schema.accumulator import PathAccumulator
from repro.schema.dtd import derive_dtd
from repro.schema.frequent import mine_frequent_paths
from repro.schema.majority import MajoritySchema
from repro.schema.paths import POSITION_DENOMINATOR, extract_paths
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
def hand_built_accumulators(draw, *, exact=False):
    """Accumulators whose three dicts need not share keys or key order --
    shapes ``add``/``update`` never build, but the wire form must keep.
    ``exact`` leaves out float position sums, whose additions do not
    re-associate exactly."""
    paths = draw(st.lists(label_paths, unique=True, max_size=8))

    def keys():
        order = draw(st.permutations(paths))
        return [path for path in order if draw(st.booleans())]

    # Mostly small counts; sometimes one no unsigned array column holds.
    counts = st.integers(min_value=0, max_value=50) | st.integers(
        min_value=-(2**70), max_value=2**70
    )
    positions = st.integers(min_value=0, max_value=2**40) | st.fractions()
    if not exact:
        positions |= st.floats(allow_nan=False, allow_infinity=False)
    return PathAccumulator(
        document_count=draw(counts),
        doc_frequency=Counter({path: draw(counts) for path in keys()}),
        position_sum={path: draw(positions) for path in keys()},
        multiplicity_docs={
            path: Counter(draw(st.dictionaries(counts, counts, max_size=3)))
            for path in keys()
        },
    )


def assert_equivalent(a: PathAccumulator, b: PathAccumulator) -> None:
    """Exact on every statistic, position sums included: re-associated
    additions of integer and ``Fraction`` numerators lose nothing."""
    assert a.document_count == b.document_count
    assert a.doc_frequency == b.doc_frequency
    assert a.multiplicity_docs == b.multiplicity_docs
    assert a.position_sum == b.position_sum


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
        the same additions in the same order, the same key order, and
        ``Counter`` histograms."""
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


exact_accumulators = st.builds(
    PathAccumulator.from_documents, corpora
) | hand_built_accumulators(exact=True)


def assert_same_reads(lazy, eager, paths) -> None:
    """Every per-path statistic the DTD rules read, exactly."""
    for path in paths:
        assert lazy.avg_position(path) == eager.avg_position(path)
        assert lazy.presence_fraction(path) == eager.presence_fraction(path)
        for threshold in (2, 3):
            assert lazy.multiplicity_fraction(
                path, rep_threshold=threshold
            ) == eager.multiplicity_fraction(path, rep_threshold=threshold)


class TestValuesDecodedOnFirstFullRead:
    """A decoded state keeps ``position_sum`` and ``multiplicity_docs`` as
    wire columns, updates adding into an overlay, until a full read.
    The oracle is :func:`tests.oracles.schema_stats._decode_v2`, which
    decodes every column at once."""

    @given(
        exact_accumulators,
        st.lists(st.tuples(exact_accumulators, st.booleans()), max_size=4),
    )
    @settings(max_examples=80)
    def test_decoded_then_updated_equals_the_eager_decode(self, base, updates):
        protocol = pickle.HIGHEST_PROTOCOL

        def decoded(acc):
            return pickle.loads(pickle.dumps(acc, protocol=protocol))

        lazy = decoded(base)
        eager = oracle.decoded_v2(base.__getstate__())
        # A materialized state that merges decoded states (the engine's
        # merge of chunk results), and the same merges of eager decodes.
        merged = PathAccumulator()
        merged.update(decoded(base))
        merged_eager = PathAccumulator()
        merged_eager.update(oracle.decoded_v2(base.__getstate__()))
        for other, pickled in updates:
            lazy.update(decoded(other) if pickled else other)
            merged.update(decoded(other) if pickled else other)
            eager.update(other)
            merged_eager.update(
                oracle.decoded_v2(other.__getstate__()) if pickled else other
            )
        paths = [
            *eager.doc_frequency,
            *eager.position_sum,
            *eager.multiplicity_docs,
            ("NEVER", "SEEN"),
        ]
        assert_same_reads(lazy, eager, paths)
        assert "position_sum" not in vars(lazy)
        assert "multiplicity_docs" not in vars(lazy)
        assert lazy == eager
        assert "position_sum" in vars(lazy)
        assert_same_key_order(lazy, eager)
        assert_same_reads(lazy, eager, paths)
        assert pickle.dumps(lazy, protocol=protocol) == pickle.dumps(
            eager, protocol=protocol
        )
        assert merged == merged_eager
        assert_same_key_order(merged, merged_eager)
        assert pickle.dumps(merged, protocol=protocol) == pickle.dumps(
            merged_eager, protocol=protocol
        )

    @pytest.mark.parametrize(
        "read",
        [
            lambda acc: acc.position_sum,
            lambda acc: acc.multiplicity_docs,
            lambda acc: acc.copy(),
            lambda acc: acc.__getstate__(),
            lambda acc: acc == PathAccumulator(),
        ],
        ids=["position_sum", "multiplicity_docs", "copy", "getstate", "eq"],
    )
    def test_full_reads_materialize(self, read):
        acc = PathAccumulator.from_trees([seventeenths_document()])
        clone = pickle.loads(pickle.dumps(acc))
        clone.update(acc)
        assert "position_sum" not in vars(clone)
        read(clone)
        assert "position_sum" in vars(clone)
        assert "multiplicity_docs" in vars(clone)
        twice = PathAccumulator.from_trees([seventeenths_document()] * 2)
        assert clone == twice
        assert_same_key_order(clone, twice)

    def test_merging_a_decoded_state_keeps_nothing_of_it(self):
        """A materialized state merging a decoded one reads its columns
        for that merge alone: the decoded state keeps its columns, and no
        histogram is shared between the two."""
        acc = PathAccumulator.from_trees([seventeenths_document()])
        clone = pickle.loads(pickle.dumps(acc))
        clone.update(acc)
        merged = PathAccumulator()
        merged.update(clone)
        assert "position_sum" not in vars(clone)
        twice = PathAccumulator.from_trees([seventeenths_document()] * 2)
        assert merged == twice
        merged.update(acc)
        assert clone == twice
        for path, histogram in clone.multiplicity_docs.items():
            assert histogram is not merged.multiplicity_docs[path]

    def test_update_of_itself_doubles(self):
        acc = PathAccumulator.from_trees([seventeenths_document()])
        clone = pickle.loads(pickle.dumps(acc))
        clone.update(clone)
        assert clone == PathAccumulator.from_trees([seventeenths_document()] * 2)

    def test_other_attributes_still_raise(self):
        clone = pickle.loads(pickle.dumps(PathAccumulator()))
        with pytest.raises(AttributeError, match="no_such_statistic"):
            clone.no_such_statistic
        assert "position_sum" not in vars(clone)


def scanned_root_labels(acc: PathAccumulator) -> list[str]:
    """The root labels by a scan of every path: the reference."""
    return sorted({path[0] for path in acc.doc_frequency if len(path) == 1})


class TestRootLabels:
    """A decoded state reads its root labels off the path table (rows
    whose parent is row 0) plus the paths ``update`` added since; every
    state answers what a scan of all its paths would."""

    @given(
        exact_accumulators,
        st.lists(st.tuples(exact_accumulators, st.booleans()), max_size=3),
    )
    @settings(max_examples=80)
    def test_equals_the_scan_on_built_decoded_and_updated_states(
        self, base, updates
    ):
        def decoded(acc):
            return pickle.loads(pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL))

        lazy = decoded(base)
        assert base.root_labels() == scanned_root_labels(base)
        assert lazy.root_labels() == scanned_root_labels(base)
        for other, pickled in updates:
            lazy.update(decoded(other) if pickled else other)
            base.update(other)
            assert lazy.root_labels() == scanned_root_labels(lazy)
            assert base.root_labels() == scanned_root_labels(base)
            assert lazy.root_labels() == base.root_labels()
        lazy.position_sum  # a full read decodes the value columns
        assert lazy.root_labels() == scanned_root_labels(lazy)
        assert lazy.copy().root_labels() == scanned_root_labels(lazy)


def seventeenths_document() -> Element:
    """``r`` with 17 ``p`` children, each with an ``x`` child; ``x`` is at
    position 1 in the last ``p`` and 0 in the others.  So ``(r, p, x)``
    is realized 17 times with average position 1/17, a count that does
    not divide POSITION_DENOMINATOR."""
    root = Element("r")
    for index in range(17):
        parent = Element("p")
        if index == 16:
            parent.append_child(Element("y"))
        parent.append_child(Element("x"))
        root.append_child(parent)
    return root


SEVENTEENTHS = ("r", "p", "x")


class TestWholeSums:
    def test_fraction_numerator_for_a_non_divisor_count(self):
        doc = extract_paths(seventeenths_document())
        assert doc.position_numerator[SEVENTEENTHS] == Fraction(
            POSITION_DENOMINATOR, 17
        )
        # 0 + 1 + ... + 16 = 8 * 17: the sum cancels, so an int.
        assert type(doc.position_numerator[("r", "p")]) is int

    def test_whole_sum_is_kept_as_int(self):
        """Seventeen 1/17 averages sum to a whole numerator; ``add`` and
        ``update`` keep it as an ``int``, so the wire column stays an
        array."""
        doc = extract_paths(seventeenths_document())
        added = PathAccumulator.from_documents([doc] * 17)
        merged = PathAccumulator.from_documents([doc] * 8)
        merged.update(PathAccumulator.from_documents([doc] * 9))
        for acc in (added, merged):
            assert acc.position_sum[SEVENTEENTHS] == POSITION_DENOMINATOR
            assert type(acc.position_sum[SEVENTEENTHS]) is int
            assert isinstance(acc.__getstate__()[8], array)
        partial = PathAccumulator.from_documents([doc] * 16)
        assert type(partial.position_sum[SEVENTEENTHS]) is Fraction
        assert isinstance(partial.__getstate__()[8], list)
        assert_wire_round_trip(partial)


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
            pytest.param(
                PathAccumulator(
                    document_count=1,
                    doc_frequency=Counter({("RESUME", "DATE"): 1, ("RESUME",): 1}),
                    position_sum={("RESUME", "DATE"): 1, ("RESUME",): 0},
                    multiplicity_docs={
                        ("RESUME", "DATE"): Counter({1: 1}),
                        ("RESUME",): Counter({1: 1}),
                    },
                ),
                id="child-before-parent",
            ),
            pytest.param(
                PathAccumulator(
                    document_count=3,
                    doc_frequency=Counter({("RESUME", "EDUCATION", "DATE"): 3}),
                    position_sum={("RESUME", "EDUCATION", "DATE"): Fraction(1, 17)},
                    multiplicity_docs={("RESUME", "EDUCATION", "DATE"): Counter()},
                ),
                id="missing-parents-fraction-empty-histogram",
            ),
            pytest.param(
                PathAccumulator(
                    document_count=2**70,
                    doc_frequency=Counter({("RESUME",): 2**70, (): -1}),
                    position_sum={("RESUME",): 2**64},
                    multiplicity_docs={("RESUME",): Counter({2**64: 1, 1: -1})},
                ),
                id="values-no-array-holds",
            ),
        ],
    )
    def test_round_trip_of_differing_key_lists(self, acc):
        assert_wire_round_trip(acc)

    @given(corpora)
    def test_shared_key_list_decodes_like_separate_lists(self, docs):
        """Accumulators built by ``add`` write no key column: the path
        table is every dict's key order.  Explicit key columns naming
        the same rows decode to the same accumulator."""
        acc = PathAccumulator.from_documents(docs)
        shared = acc.__getstate__()
        assert shared[5] is shared[7] is shared[9] is None
        separate = list(shared)
        rows = list(range(1, len(acc.doc_frequency) + 1))
        separate[5], separate[7], separate[9] = rows, list(rows), list(rows)
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
        rows = list(range(1, len(acc.doc_frequency) + 1))
        separate = (*state[:5], rows, state[6], rows[:], state[8], rows[:], *state[10:])
        assert len(pickle.dumps(state)) < len(pickle.dumps(separate))

    def test_columns_are_narrow_arrays(self):
        """An accumulated corpus encodes every integer column as an
        array of the narrowest unsigned typecode; only the few
        multi-entry histograms are Python tuples."""
        root = Element("RESUME")
        for tag in ("DATE", "DATE", "NAME"):
            root.append_child(Element(tag))
        acc = PathAccumulator.from_documents([extract_paths(root)] * 300)
        state = acc.__getstate__()
        columns = (*state[3:5], state[6], state[8], *state[10:13])
        assert [column.typecode for column in columns] == [
            "B", "B", "H", "I", "B", "H", "B"
        ]
        assert state[2] == ["RESUME", "DATE", "NAME"]
        assert state[13] == []

    @pytest.mark.parametrize(
        "top, typecode",
        [
            (255, "B"), (256, "H"), (2**16 - 1, "H"), (2**16, "I"),
            (2**32, "Q"), (2**64 - 1, "Q"), (2**64, None), (-1, None),
        ],
    )
    def test_column_typecode_bounds(self, top, typecode):
        """Each column takes the narrowest typecode that holds its
        largest value; no unsigned typecode holds it -> a plain list."""
        acc = PathAccumulator(
            document_count=1,
            doc_frequency=Counter({("RESUME",): top}),
            position_sum={("RESUME",): 0},
            multiplicity_docs={("RESUME",): Counter({1: 1})},
        )
        counts = acc.__getstate__()[6]
        if typecode is None:
            assert counts == [top]
        else:
            assert counts.typecode == typecode
        assert_wire_round_trip(acc)

    def test_version_1_state_decodes(self):
        """A version-1 state (packed index tuples, float position sums)
        decodes with each float sum as its numerator."""
        state = (
            1, 2, ["RESUME", "DATE"],
            [(0,), (0, 1)], [2, 1],
            [(0,), (0, 1)], [0.0, 1.5],
            [(0,), (0, 1)], [((1, 2),), ((1, 1), (2, 1))],
        )
        clone = PathAccumulator()
        clone.__setstate__(state)
        assert clone == PathAccumulator(
            document_count=2,
            doc_frequency=Counter({("RESUME",): 2, ("RESUME", "DATE"): 1}),
            position_sum={
                ("RESUME",): 0,
                ("RESUME", "DATE"): 3 * POSITION_DENOMINATOR // 2,
            },
            multiplicity_docs={
                ("RESUME",): Counter({1: 2}),
                ("RESUME", "DATE"): Counter({1: 1, 2: 1}),
            },
        )
        assert type(clone.position_sum[("RESUME", "DATE")]) is int

    def test_version_1_sum_from_a_non_divisor_count_is_rounded(self):
        """A version-1 float sum is rounded to the nearest integer
        numerator.  An average over a realization count that does not
        divide POSITION_DENOMINATOR has no integer numerator, so the
        decoded state only approximates its corpus: it is not ``==`` to
        the corpus accumulated afresh."""
        exact = PathAccumulator.from_documents(
            [extract_paths(seventeenths_document())]
        )
        labels = ["r", "p", "y", "x"]
        paths = [tuple(map(labels.index, path)) for path in exact.doc_frequency]
        state = (
            1, 1, labels,
            paths, list(exact.doc_frequency.values()),
            paths, [
                float(Fraction(value, POSITION_DENOMINATOR))
                for value in exact.position_sum.values()
            ],
            paths, [
                tuple(histogram.items())
                for histogram in exact.multiplicity_docs.values()
            ],
        )
        clone = PathAccumulator()
        clone.__setstate__(state)
        assert clone.position_sum[SEVENTEENTHS] == round(POSITION_DENOMINATOR / 17)
        assert exact.position_sum[SEVENTEENTHS] == Fraction(POSITION_DENOMINATOR, 17)
        assert clone != exact
        assert clone.doc_frequency == exact.doc_frequency
        assert clone.multiplicity_docs == exact.multiplicity_docs
        assert {
            path: value
            for path, value in clone.position_sum.items()
            if path != SEVENTEENTHS
        } == {
            path: value
            for path, value in exact.position_sum.items()
            if path != SEVENTEENTHS
        }

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


def rooted_document(children: list[Element]) -> Element:
    root = Element("r")
    for child in children:
        root.append_child(child)
    return root


# One-root documents, the shape schema discovery expects.
rooted_documents = st.builds(
    extract_paths,
    st.lists(element_trees(max_depth=2), max_size=5).map(rooted_document),
)


def dtd_text(acc: PathAccumulator) -> str:
    frequent = mine_frequent_paths(acc, sup_threshold=0.3)
    schema = MajoritySchema.from_frequent_paths(frequent)
    return derive_dtd(schema, acc, optional_threshold=0.6).render()


class TestOrderFree:
    """The statistics, and the DTD derived from them, depend only on the
    corpus: not on document order, nor on how it is cut into chunks,
    nor on the order the chunks are merged in."""

    @given(st.lists(rooted_documents, min_size=1, max_size=10), st.data())
    @settings(max_examples=60)
    def test_permutations_and_partitions_agree(self, docs, data):
        whole = PathAccumulator.from_documents(docs)
        permuted = data.draw(st.permutations(docs))
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(docs)), max_size=4))
        )
        parts = [
            PathAccumulator.from_documents(permuted[start:stop])
            for start, stop in zip([0, *cuts], [*cuts, len(docs)])
        ]
        merged = PathAccumulator()
        for part in data.draw(st.permutations(parts)):
            merged.update(part)
        assert merged == whole
        assert PathAccumulator.from_documents(permuted) == whole
        assert dtd_text(merged) == dtd_text(whole)

    def test_true_tie_orders_alphabetically_in_any_document_order(self):
        """``x`` and ``z`` have equal average positions under ``r``.
        Summed as floats, the two document orders came out unequal in the
        last bit, so reversing the corpus swapped them in the DTD."""
        docs = [
            extract_paths(rooted_document([Element(tag) for tag in spec]))
            for spec in ("yzxyxyz", "xxyyzyx", "yy", "zzxzyx")
        ]
        forward = PathAccumulator.from_documents(docs)
        backward = PathAccumulator.from_documents(docs[::-1])
        assert forward.avg_position(("r", "x")) == forward.avg_position(("r", "z"))
        assert forward == backward
        text = dtd_text(forward)
        assert text == dtd_text(backward)
        assert "<!ELEMENT r ((#PCDATA), y, x, z)>" in text
