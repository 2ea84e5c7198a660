"""Ordered-tree nodes.

Two concrete node kinds exist, mirroring the fragment of DOM the paper
relies on (Section 2.3, "we consider an input HTML document as XML
document ... represented as an ordered tree"):

* :class:`Element` -- a tagged node with attributes and ordered children.
* :class:`Text` -- a leaf carrying character data.

Every element has a ``val`` attribute slot (possibly empty); the
conversion rules accumulate text that could not be classified into the
``val`` attribute of the nearest concept ancestor, so ``val`` gets
first-class helpers (:meth:`Element.get_val`, :meth:`Element.append_val`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional


class Node:
    """Base class for tree nodes.

    Maintains the parent pointer; child bookkeeping lives on
    :class:`Element`.  Nodes are identity-hashable: two structurally equal
    nodes are still distinct tree positions (the schema-discovery code
    depends on that).
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional[Element] = None

    # -- tree position ------------------------------------------------

    def root(self) -> "Node":
        """Return the root of the tree containing this node."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def depth(self) -> int:
        """Number of edges from the root to this node (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def index_in_parent(self) -> int:
        """Position of this node among its parent's children.

        Raises :class:`ValueError` for a detached node.
        """
        if self.parent is None:
            raise ValueError("node has no parent")
        for i, child in enumerate(self.parent.children):
            if child is self:
                return i
        raise AssertionError("corrupt tree: node not among parent's children")

    def ancestors(self) -> Iterator["Element"]:
        """Yield ancestors from the parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- mutation ------------------------------------------------------

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when already detached)."""
        if self.parent is not None:
            self.parent.remove_child(self)
        return self

    def replace_with(self, *nodes: "Node") -> None:
        """Replace this node in its parent by ``nodes`` (in order)."""
        if self.parent is None:
            raise ValueError("cannot replace a detached node")
        parent = self.parent
        idx = self.index_in_parent()
        parent.remove_child(self)
        for offset, node in enumerate(nodes):
            parent.insert_child(idx + offset, node)


class Text(Node):
    """A text leaf."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        super().__init__()
        self.text = text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        preview = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return f"Text({preview!r})"


class Element(Node):
    """A tagged node with attributes and an ordered child list.

    ``tag`` is stored as given; HTML parsing lower-cases tags, concept
    tagging upper-cases them, so comparisons in rule code are done through
    the helpers in :mod:`repro.htmlparse.taginfo` rather than raw equality
    against mixed-case literals.
    """

    __slots__ = ("tag", "attrs", "children")

    def __init__(
        self,
        tag: str,
        attrs: Optional[dict[str, str]] = None,
        children: Optional[Iterable[Node]] = None,
    ) -> None:
        super().__init__()
        self.tag = tag
        self.attrs: dict[str, str] = dict(attrs) if attrs else {}
        self.children: list[Node] = []
        if children:
            for child in children:
                self.append_child(child)

    # -- children ------------------------------------------------------

    def append_child(self, node: Node) -> Node:
        """Append ``node`` as the last child (detaching it first)."""
        node.detach()
        node.parent = self
        self.children.append(node)
        return node

    def adopt_new(self, node: Node) -> Node:
        """Append a node the caller guarantees is parentless.

        Skips :meth:`append_child`'s detach bookkeeping; tree builders
        use it for freshly constructed nodes, where the detach scan over
        the old parent's child list is pure overhead.
        """
        node.parent = self
        self.children.append(node)
        return node

    def adopt_all(self, nodes: Iterable[Node]) -> None:
        """Bulk :meth:`adopt_new`: append nodes the caller guarantees
        are parentless, without per-node detach scans."""
        children = self.children
        for node in nodes:
            node.parent = self
            children.append(node)

    def take_children(self) -> list[Node]:
        """Detach and return all children in one pass.

        The per-child alternative (``detach()`` in a loop) rescans the
        shrinking child list once per child; this is the O(n) form the
        tidy fast path splices with.
        """
        children = self.children
        self.children = []
        for child in children:
            child.parent = None
        return children

    def insert_child(self, index: int, node: Node) -> Node:
        """Insert ``node`` at ``index`` (detaching it first)."""
        node.detach()
        node.parent = self
        self.children.insert(index, node)
        return node

    def remove_child(self, node: Node) -> Node:
        """Remove a direct child; raises :class:`ValueError` otherwise."""
        for i, child in enumerate(self.children):
            if child is node:
                del self.children[i]
                node.parent = None
                return node
        raise ValueError(f"{node!r} is not a child of {self!r}")

    def element_children(self) -> list["Element"]:
        """The children that are elements, in order."""
        return [c for c in self.children if isinstance(c, Element)]

    def text_children(self) -> list[Text]:
        """The children that are text nodes, in order."""
        return [c for c in self.children if isinstance(c, Text)]

    # -- text and the ``val`` attribute ---------------------------------

    def get_val(self) -> str:
        """The node's ``val`` attribute ('' when absent)."""
        return self.attrs.get("val", "")

    def set_val(self, value: str) -> None:
        """Set the ``val`` attribute (deleting it when empty)."""
        if value:
            self.attrs["val"] = value
        else:
            self.attrs.pop("val", None)

    def append_val(self, value: str) -> None:
        """Append text to ``val``, separating accumulated pieces by a space.

        The concept-instance rule pushes unidentified token text to the
        parent through this method (Section 2.3.1, case 2).
        """
        value = value.strip()
        if not value:
            return
        existing = self.get_val()
        self.set_val(f"{existing} {value}".strip() if existing else value)

    def inner_text(self) -> str:
        """All descendant text, in document order, space-joined."""
        pieces: list[str] = []
        stack: list[Node] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, Text):
                if node.text.strip():
                    pieces.append(node.text.strip())
            else:
                assert isinstance(node, Element)
                stack.extend(reversed(node.children))
        return " ".join(pieces)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        val = self.attrs.get("val")
        suffix = f" val={val!r}" if val else ""
        return f"Element(<{self.tag}>{suffix}, {len(self.children)} children)"
