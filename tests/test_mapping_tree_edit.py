"""Tests for the Zhang--Shasha tree edit distance."""

import pytest

from repro.dom.node import Element, Text
from repro.mapping.tree_edit import tree_edit_distance


def tree(spec):
    tag, kids = spec
    e = Element(tag)
    for k in kids:
        e.append_child(tree(k))
    return e


class TestKnownDistances:
    def test_identical_trees(self):
        a = tree(("r", [("a", []), ("b", [("c", [])])]))
        b = tree(("r", [("a", []), ("b", [("c", [])])]))
        assert tree_edit_distance(a, b) == 0

    def test_single_relabel(self):
        a = tree(("r", [("a", [])]))
        b = tree(("r", [("x", [])]))
        assert tree_edit_distance(a, b) == 1

    def test_single_insert(self):
        a = tree(("r", [("a", [])]))
        b = tree(("r", [("a", []), ("b", [])]))
        assert tree_edit_distance(a, b) == 1

    def test_single_delete(self):
        a = tree(("r", [("a", []), ("b", [])]))
        b = tree(("r", [("a", [])]))
        assert tree_edit_distance(a, b) == 1

    def test_leaf_vs_chain(self):
        a = tree(("r", []))
        b = tree(("r", [("a", [("b", [])])]))
        assert tree_edit_distance(a, b) == 2

    def test_classic_zhang_shasha_example(self):
        # The f(d(a c(b)) e) vs f(c(d(a b)) e) example: distance 2.
        a = tree(("f", [("d", [("a", []), ("c", [("b", [])])]), ("e", [])]))
        b = tree(("f", [("c", [("d", [("a", []), ("b", [])])]), ("e", [])]))
        assert tree_edit_distance(a, b) == 2

    def test_completely_different(self):
        a = tree(("a", [("b", [])]))
        b = tree(("x", [("y", [("z", [])])]))
        assert tree_edit_distance(a, b) == 3  # 2 relabels + 1 insert

    def test_order_sensitivity(self):
        """Ordered trees: swapping children costs edits."""
        a = tree(("r", [("a", []), ("b", [])]))
        b = tree(("r", [("b", []), ("a", [])]))
        assert tree_edit_distance(a, b) == 2


class TestMetricProperties:
    CASES = [
        tree(("r", [("a", []), ("b", [])])),
        tree(("r", [("a", [("x", [])])])),
        tree(("q", [("a", []), ("b", []), ("c", [])])),
    ]

    def test_symmetry(self):
        for a in self.CASES:
            for b in self.CASES:
                assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    def test_identity(self):
        for a in self.CASES:
            assert tree_edit_distance(a, a) == 0

    def test_triangle_inequality(self):
        cases = self.CASES
        for a in cases:
            for b in cases:
                for c in cases:
                    ab = tree_edit_distance(a, b)
                    bc = tree_edit_distance(b, c)
                    ac = tree_edit_distance(a, c)
                    assert ac <= ab + bc


class TestOptions:
    def test_text_nodes_excluded_by_default(self):
        a = tree(("r", []))
        b = tree(("r", []))
        b.append_child(Text("words"))
        assert tree_edit_distance(a, b) == 0

    def test_text_root_is_single_node(self):
        # A bare Text root annotates as one "#text" node, so comparing it
        # with a single element is one relabel.
        assert tree_edit_distance(Text("x"), Element("r")) == 1


class TestScale:
    def test_moderate_trees_complete(self):
        import random

        rng = random.Random(5)

        def random_tree(n):
            nodes = [Element("n0")]
            for i in range(1, n):
                parent = rng.choice(nodes)
                child = Element(f"n{rng.randint(0, 5)}")
                parent.append_child(child)
                nodes.append(child)
            return nodes[0]

        a, b = random_tree(60), random_tree(60)
        d = tree_edit_distance(a, b)
        assert 0 <= d <= 120
