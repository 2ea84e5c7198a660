"""Tests for frequent-path mining, including the paper's Figure 2/3 example."""

import pytest

from repro.concepts.constraints import ConstraintSet
from repro.dom.node import Element
from repro.schema.accumulator import PathAccumulator
from repro.schema.frequent import mine_frequent_paths
from repro.schema.paths import extract_paths


def tree(spec):
    tag, kids = spec
    element = Element(tag)
    for kid in kids:
        element.append_child(tree(kid))
    return element


@pytest.fixture(scope="module")
def figure2_docs():
    """The three trees of Figure 2."""
    a = tree(("resume", [
        ("objective", []),
        ("contact", []),
        ("education", [
            ("degree", [("date", []), ("institution", [])]),
            ("degree", [("date", [])]),
        ]),
    ]))
    b = tree(("resume", [
        ("contact", []),
        ("education", [
            ("degree", [("date", []), ("institution", [])]),
            ("degree", [("institution", []), ("date", [])]),
        ]),
    ]))
    c = tree(("resume", [
        ("education", [
            ("institution", [("degree", []), ("date", [])]),
            ("institution", [("degree", []), ("date", [])]),
        ]),
    ]))
    return [extract_paths(t) for t in (a, b, c)]


class TestStatistics:
    def test_support_counts_documents(self, figure2_docs):
        stats = PathAccumulator.from_documents(figure2_docs)
        assert stats.support(("resume",)) == 1.0
        assert stats.support(("resume", "education")) == 1.0
        assert stats.support(("resume", "contact")) == pytest.approx(2 / 3)
        assert stats.support(("resume", "objective")) == pytest.approx(1 / 3)
        assert stats.support(("resume", "education", "degree")) == pytest.approx(2 / 3)

    def test_absent_path_zero(self, figure2_docs):
        stats = PathAccumulator.from_documents(figure2_docs)
        assert stats.support(("resume", "skills")) == 0.0

    def test_support_ratio(self, figure2_docs):
        stats = PathAccumulator.from_documents(figure2_docs)
        assert stats.support_ratio(("resume",)) == 1.0
        # education -> degree: (2/3) / 1.0
        assert stats.support_ratio(("resume", "education", "degree")) == pytest.approx(2 / 3)
        # degree -> date: (2/3) / (2/3) = 1
        assert stats.support_ratio(
            ("resume", "education", "degree", "date")
        ) == pytest.approx(1.0)

    def test_support_bounds_property(self, figure2_docs):
        """support(p)=1 iff in all docs; support>0 iff in some doc."""
        stats = PathAccumulator.from_documents(figure2_docs)
        for path, count in stats.doc_frequency.items():
            assert 0 < stats.support(path) <= 1.0
            if stats.support(path) == 1.0:
                assert all(doc.contains(path) for doc in figure2_docs)

    def test_empty_corpus(self):
        stats = PathAccumulator.from_documents([])
        assert stats.support(("x",)) == 0.0


class TestMining:
    def test_majority_at_two_thirds(self, figure2_docs):
        result = mine_frequent_paths(figure2_docs, sup_threshold=0.6)
        assert result.paths == {
            ("resume",),
            ("resume", "contact"),
            ("resume", "education"),
            ("resume", "education", "degree"),
            ("resume", "education", "degree", "date"),
            ("resume", "education", "degree", "institution"),
        }

    def test_lower_threshold_includes_more(self, figure2_docs):
        low = mine_frequent_paths(figure2_docs, sup_threshold=0.3)
        high = mine_frequent_paths(figure2_docs, sup_threshold=0.6)
        assert high.paths < low.paths
        assert ("resume", "objective") in low.paths

    def test_threshold_one_is_lower_bound(self, figure2_docs):
        result = mine_frequent_paths(figure2_docs, sup_threshold=1.0)
        assert result.paths == {("resume",), ("resume", "education")}

    def test_ratio_threshold_prunes(self, figure2_docs):
        # degree under education has ratio 2/3; a higher bar removes it
        # and everything below it.
        result = mine_frequent_paths(
            figure2_docs, sup_threshold=0.5, ratio_threshold=0.9
        )
        assert ("resume", "education") in result.paths
        assert ("resume", "education", "degree") not in result.paths
        assert ("resume", "education", "degree", "date") not in result.paths

    def test_result_prefix_closed(self, figure2_docs):
        result = mine_frequent_paths(figure2_docs, sup_threshold=0.3)
        for path in result.paths:
            for cut in range(1, len(path)):
                assert path[:cut] in result.paths

    def test_constraints_prune_candidates(self, figure2_docs):
        constraints = ConstraintSet(max_depth=1)
        result = mine_frequent_paths(
            figure2_docs, sup_threshold=0.3, constraints=constraints
        )
        assert max(len(p) for p in result.paths) == 2  # root + one level

    def test_nodes_explored_accounting(self, figure2_docs):
        unconstrained = mine_frequent_paths(figure2_docs, sup_threshold=0.3)
        constrained = mine_frequent_paths(
            figure2_docs,
            sup_threshold=0.3,
            constraints=ConstraintSet(max_depth=2),
        )
        assert constrained.nodes_explored < unconstrained.nodes_explored
        assert unconstrained.nodes_counted <= unconstrained.nodes_explored

    def test_extend_zero_support_requires_bound(self, figure2_docs):
        with pytest.raises(ValueError):
            mine_frequent_paths(
                figure2_docs, sup_threshold=0.5, extend_zero_support=True
            )

    def test_extend_zero_support_enumerates_constraint_space(self, figure2_docs):
        result = mine_frequent_paths(
            figure2_docs,
            sup_threshold=0.5,
            extend_zero_support=True,
            constraints=ConstraintSet(max_depth=1),
            candidate_labels={"resume", "education", "contact", "skills"},
        )
        # root + 4 labels at level 2 (no constraint other than length)
        assert result.nodes_explored == 1 + 4

    def test_constraints_checked_incrementally(self, figure2_docs, monkeypatch):
        """The miner asks ``ConstraintSet.extensions`` once per prefix and
        never the whole-path predicate."""

        def whole_path_check(self, labels):
            raise AssertionError("the miner called allows_path")

        monkeypatch.setattr(ConstraintSet, "allows_path", whole_path_check)
        result = mine_frequent_paths(
            figure2_docs,
            sup_threshold=0.5,
            constraints=ConstraintSet(no_repeat_on_path=True, max_depth=3),
            extend_zero_support=True,
        )
        assert result.nodes_explored > result.nodes_counted > 0

    def test_leaves(self, figure2_docs):
        result = mine_frequent_paths(figure2_docs, sup_threshold=0.6)
        leaves = set(result.leaves())
        assert ("resume", "contact") in leaves
        assert ("resume", "education") not in leaves

    def test_max_depth_property(self, figure2_docs):
        result = mine_frequent_paths(figure2_docs, sup_threshold=0.6)
        assert result.max_depth() == 4
