"""Tests for tree traversals and structural operations."""

from repro.dom.node import Element, Text
from repro.dom.treeops import (
    clone,
    count_elements,
    deep_equal,
    iter_elements,
    iter_postorder,
    iter_preorder,
    tree_size,
)


def sample():
    #      root
    #     /    \
    #    a      b
    #   / \      \
    #  c  "t"     d
    root = Element("root")
    a = root.append_child(Element("a"))
    c = a.append_child(Element("c"))
    t = a.append_child(Text("t"))
    b = root.append_child(Element("b"))
    d = b.append_child(Element("d"))
    return root, a, b, c, d, t


class TestTraversal:
    def test_preorder_order(self):
        root, a, b, c, d, t = sample()
        assert list(iter_preorder(root)) == [root, a, c, t, b, d]

    def test_postorder_children_before_parent(self):
        root, a, b, c, d, t = sample()
        order = list(iter_postorder(root))
        assert order.index(c) < order.index(a)
        assert order.index(d) < order.index(b)
        assert order[-1] is root

    def test_postorder_full_sequence(self):
        root, a, b, c, d, t = sample()
        assert list(iter_postorder(root)) == [c, t, a, d, b, root]

    def test_iter_elements_skips_text(self):
        root, *_ = sample()
        assert all(isinstance(n, Element) for n in iter_elements(root))
        assert len(list(iter_elements(root))) == 5

    def test_postorder_survives_deep_tree(self):
        # 10000-deep chain: must not hit the recursion limit.
        root = Element("n0")
        node = root
        for i in range(1, 10_000):
            node = node.append_child(Element(f"n{i}"))
        assert sum(1 for _ in iter_postorder(root)) == 10_000


class TestMeasures:
    def test_tree_size_counts_all_nodes(self):
        root, *_ = sample()
        assert tree_size(root) == 6

    def test_count_elements_with_and_without_tag(self):
        root, *_ = sample()
        assert count_elements(root) == 5
        assert count_elements(root, "a") == 1
        assert count_elements(root, "zzz") == 0


class TestCloneAndEquality:
    def test_clone_is_deep_and_detached(self):
        root, a, *_ = sample()
        copy = clone(a)
        assert copy.parent is None
        assert deep_equal(copy, a)
        assert copy is not a
        assert copy.children[0] is not a.children[0]

    def test_clone_copies_attrs(self):
        e = Element("e", {"val": "x"})
        assert clone(e).attrs == {"val": "x"}
        c = clone(e)
        c.attrs["val"] = "y"
        assert e.attrs["val"] == "x"

    def test_deep_equal_detects_tag_difference(self):
        assert not deep_equal(Element("a"), Element("b"))

    def test_deep_equal_detects_attr_difference(self):
        assert not deep_equal(Element("a", {"val": "1"}), Element("a"))

    def test_deep_equal_detects_child_count(self):
        a = Element("a", children=[Element("x")])
        b = Element("a")
        assert not deep_equal(a, b)

    def test_text_vs_element_not_equal(self):
        assert not deep_equal(Text("a"), Element("a"))
