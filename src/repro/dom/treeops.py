"""Traversals and structural operations on ordered trees."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.dom.node import Element, Node, Text


def iter_preorder(root: Node) -> Iterator[Node]:
    """Yield nodes in document (preorder, left-to-right) order."""
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Element):
            stack.extend(reversed(node.children))


def iter_postorder(root: Node) -> Iterator[Node]:
    """Yield nodes bottom-up; children always precede their parent."""
    # An explicit stack keeps very deep (malformed) documents from
    # exhausting the recursion limit.
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded or not isinstance(node, Element) or not node.children:
            yield node
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def collect_postorder(root: Node) -> list[Node]:
    """Materialized postorder, same order as ``list(iter_postorder())``.

    Two-sweep form: a right-to-left preorder (one plain stack push/pop
    per node) reversed at the end -- no ``(node, expanded)`` marker
    tuples and no generator frame, which makes it the cheap way to
    snapshot a tree before a mutating pass.
    """
    out: list[Node] = []
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, Element) and node.children:
            # Plain-order push means the rightmost child pops first:
            # ``out`` fills with the *reversed* postorder.
            stack.extend(node.children)
    out.reverse()
    return out


def iter_elements(root: Node) -> Iterator[Element]:
    """Yield only the element nodes, in preorder."""
    for node in iter_preorder(root):
        if isinstance(node, Element):
            yield node


def tree_size(root: Node) -> int:
    """Total number of nodes in the tree."""
    return sum(1 for _ in iter_preorder(root))


def clone(node: Node) -> Node:
    """Deep-copy a subtree (the copy is detached)."""
    return clone_counted(node)[0]


def clone_counted(node: Node) -> tuple[Node, int]:
    """:func:`clone` plus the number of nodes copied (``tree_size``).

    An explicit stack copies trees of any depth without recursion.
    """
    if isinstance(node, Text):
        return Text(node.text), 1
    assert isinstance(node, Element)
    copy = Element(node.tag, node.attrs)
    count = 1
    stack: list[tuple[Element, Element]] = [(node, copy)]
    while stack:
        source, target = stack.pop()
        copies = target.children
        for child in source.children:
            if isinstance(child, Element):
                twin: Node = Element(child.tag, child.attrs)
                if child.children:
                    stack.append((child, twin))
            else:
                assert isinstance(child, Text)
                twin = Text(child.text)
            twin.parent = target
            copies.append(twin)
        count += len(source.children)
    return copy, count


def deep_equal(a: Node, b: Node) -> bool:
    """Structural equality of two subtrees: tags, attributes, text and
    shape.  An explicit stack of node pairs compares trees of any depth
    without recursion.
    """
    stack: list[tuple[Node, Node]] = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Text) or isinstance(b, Text):
            same = isinstance(a, Text) and isinstance(b, Text) and a.text == b.text
            if not same:
                return False
            continue
        assert isinstance(a, Element) and isinstance(b, Element)
        if a.tag != b.tag:
            return False
        if a.attrs != b.attrs:
            return False
        if len(a.children) != len(b.children):
            return False
        stack.extend(zip(a.children, b.children))
    return True


def count_elements(root: Node, tag: Optional[str] = None) -> int:
    """Number of elements in the tree, optionally restricted to ``tag``."""
    if tag is None:
        return sum(1 for _ in iter_elements(root))
    return sum(1 for el in iter_elements(root) if el.tag == tag)
