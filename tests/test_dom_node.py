"""Tests for the ordered-tree node model."""

import pytest

from repro.dom.node import Element, Text


def make_tree():
    root = Element("root")
    a = root.append_child(Element("a"))
    b = root.append_child(Element("b"))
    c = root.append_child(Element("c"))
    return root, a, b, c


class TestTreeStructure:
    def test_append_child_sets_parent(self):
        root, a, *_ = make_tree()
        assert a.parent is root

    def test_children_in_insertion_order(self):
        root, a, b, c = make_tree()
        assert root.children == [a, b, c]

    def test_insert_child_at_index(self):
        root, a, b, c = make_tree()
        x = Element("x")
        root.insert_child(1, x)
        assert root.children == [a, x, b, c]

    def test_append_detaches_from_previous_parent(self):
        root, a, b, c = make_tree()
        other = Element("other")
        other.append_child(a)
        assert a.parent is other
        assert a not in root.children
        assert root.children == [b, c]

    def test_remove_child(self):
        root, a, b, c = make_tree()
        root.remove_child(b)
        assert b.parent is None
        assert root.children == [a, c]

    def test_remove_non_child_raises(self):
        root, *_ = make_tree()
        with pytest.raises(ValueError):
            root.remove_child(Element("stranger"))

    def test_detach_is_idempotent(self):
        root, a, *_ = make_tree()
        a.detach()
        a.detach()
        assert a.parent is None

    def test_root_and_depth(self):
        root, a, *_ = make_tree()
        leaf = a.append_child(Element("leaf"))
        assert leaf.root() is root
        assert leaf.depth() == 2
        assert root.depth() == 0

    def test_index_in_parent(self):
        root, a, b, c = make_tree()
        assert a.index_in_parent() == 0
        assert c.index_in_parent() == 2

    def test_index_in_parent_detached_raises(self):
        with pytest.raises(ValueError):
            Element("lonely").index_in_parent()

    def test_siblings(self):
        root, a, b, c = make_tree()
        siblings = a.parent.children
        assert siblings[a.index_in_parent() + 1] is b
        assert siblings[b.index_in_parent() - 1] is a
        assert c.index_in_parent() == len(siblings) - 1
        assert a.index_in_parent() == 0

    def test_ancestors(self):
        root, a, *_ = make_tree()
        leaf = a.append_child(Element("leaf"))
        assert list(leaf.ancestors()) == [a, root]


class TestReplaceWith:
    def test_replace_with_single(self):
        root, a, b, c = make_tree()
        x = Element("x")
        b.replace_with(x)
        assert root.children == [a, x, c]
        assert b.parent is None

    def test_replace_with_multiple_preserves_order(self):
        root, a, b, c = make_tree()
        x, y = Element("x"), Element("y")
        b.replace_with(x, y)
        assert [n.tag for n in root.children] == ["a", "x", "y", "c"]

    def test_replace_with_nothing_deletes(self):
        root, a, b, c = make_tree()
        b.replace_with()
        assert root.children == [a, c]

    def test_replace_detached_raises(self):
        with pytest.raises(ValueError):
            Element("x").replace_with(Element("y"))


class TestValAttribute:
    def test_get_val_default_empty(self):
        assert Element("e").get_val() == ""

    def test_set_and_get(self):
        e = Element("e")
        e.set_val("hello")
        assert e.get_val() == "hello"
        assert e.attrs["val"] == "hello"

    def test_set_empty_removes_attribute(self):
        e = Element("e")
        e.set_val("x")
        e.set_val("")
        assert "val" not in e.attrs

    def test_append_val_concatenates_with_space(self):
        e = Element("e")
        e.append_val("one")
        e.append_val("two")
        assert e.get_val() == "one two"

    def test_append_val_ignores_whitespace(self):
        e = Element("e")
        e.append_val("   ")
        assert e.get_val() == ""


class TestTextAndContent:
    def test_text_node_holds_text(self):
        t = Text("hello")
        assert t.text == "hello"

    def test_inner_text_joins_descendants(self):
        root = Element("root")
        a = root.append_child(Element("a"))
        a.append_child(Text("one"))
        root.append_child(Text("two"))
        assert root.inner_text() == "one two"

    def test_inner_text_skips_blank_nodes(self):
        root = Element("root")
        root.append_child(Text("  \n "))
        root.append_child(Text("word"))
        assert root.inner_text() == "word"

    def test_element_and_text_children(self):
        root = Element("root")
        e = root.append_child(Element("e"))
        t = root.append_child(Text("t"))
        assert root.element_children() == [e]
        assert root.text_children() == [t]
