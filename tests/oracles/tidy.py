"""The legacy six-traversal HTML cleanser: tidy's oracle.

This is the original one-pass-per-fix-up form of
``repro.htmlparse.tidy``, moved here verbatim when the single-snapshot
cleanser became the only production path.  Each of the six fix-ups
walks the whole tree again (``list(iter_postorder(root))``), and ``pre``
detection scans every text node's ancestors.  The module's rule table
and whitespace regex are private copies, so the oracle does not lean on
the module it checks.
"""

from __future__ import annotations

import re

from repro.dom.node import Element, Node, Text
from repro.dom.treeops import iter_postorder
from repro.htmlparse.taginfo import (
    LIST_CONTAINER_TAGS,
    is_block,
    is_heading,
    is_inline,
)

_WS_RE = re.compile(r"\s+")
_LI_TAGS = frozenset({"li"})
_DL_ITEMS = frozenset({"dt", "dd"})
_TR_TAGS = frozenset({"tr"})
_TABLE_CELLS = frozenset({"td", "th"})
_TABLE_SECTION_TAGS = frozenset({"table", "thead", "tbody", "tfoot"})


def _is_li(el: Element) -> bool:
    return el.tag in _LI_TAGS


def _is_dl_item(el: Element) -> bool:
    return el.tag in _DL_ITEMS


def _is_tr(el: Element) -> bool:
    return el.tag == "tr"


def _is_table_cell(el: Element) -> bool:
    return el.tag in _TABLE_CELLS


def tidy_legacy(root: Element) -> Element:
    """The original six-traversal cleanser, kept as the oracle."""
    _repair_heading_nesting(root)
    _repair_inline_block_nesting(root)
    _wrap_orphans(root)
    _drop_empty_inlines(root)
    _collapse_redundant_inlines(root)
    _normalize_whitespace(root)
    return root


# 1. heading nesting


def _repair_heading_nesting(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or not is_heading(node.tag):
            continue
        if node.parent is None:
            continue
        misplaced = [
            child
            for child in node.element_children()
            if is_block(child.tag) or is_heading(child.tag)
        ]
        parent = node.parent
        insert_at = node.index_in_parent() + 1
        for child in misplaced:
            child.detach()
            parent.insert_child(insert_at, child)
            insert_at += 1


def _repair_inline_block_nesting(root: Element) -> None:
    """Move block-level children out of inline elements.

    An unclosed ``<font>`` or ``<b>`` swallows the block elements that
    follow it; HTML Tidy hoists them back out, restoring the sibling
    structure the grouping rule depends on.
    """
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or not is_inline(node.tag):
            continue
        if node.parent is None:
            continue
        misplaced = [
            child
            for child in node.element_children()
            if is_block(child.tag) or is_heading(child.tag)
        ]
        parent = node.parent
        insert_at = node.index_in_parent() + 1
        for child in misplaced:
            child.detach()
            parent.insert_child(insert_at, child)
            insert_at += 1


# 2. orphan wrapping


def _wrap_orphans(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element):
            continue
        _wrap_runs(node, _is_li, "ul", forbidden_parents=LIST_CONTAINER_TAGS)
        _wrap_runs(node, _is_dl_item, "dl", forbidden_parents=LIST_CONTAINER_TAGS)
        _wrap_runs(node, _is_tr, "table", forbidden_parents=_TABLE_SECTION_TAGS)
        _wrap_runs(node, _is_table_cell, "tr", forbidden_parents=_TR_TAGS)


def _wrap_runs(parent, predicate, wrapper_tag: str, *, forbidden_parents: frozenset[str]) -> None:
    """Wrap maximal runs of matching children under a new wrapper element."""
    if parent.tag in forbidden_parents:
        return
    index = 0
    while index < len(parent.children):
        child = parent.children[index]
        if isinstance(child, Element) and predicate(child):
            run = [child]
            scan = index + 1
            while scan < len(parent.children):
                nxt = parent.children[scan]
                if isinstance(nxt, Element) and predicate(nxt):
                    run.append(nxt)
                    scan += 1
                elif isinstance(nxt, Text) and not nxt.text.strip():
                    scan += 1
                else:
                    break
            wrapper = Element(wrapper_tag)
            parent.insert_child(index, wrapper)
            for item in run:
                wrapper.append_child(item)
        index += 1


# 4. empty inline removal


def _drop_empty_inlines(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if (
            isinstance(node, Element)
            and node.parent is not None
            and is_inline(node.tag)
            and not node.children
            and not node.get_val()
        ):
            node.detach()


# 5. redundant inline collapse


def _collapse_redundant_inlines(root: Element) -> None:
    for node in list(iter_postorder(root)):
        if not isinstance(node, Element) or node.parent is None:
            continue
        if not is_inline(node.tag):
            continue
        parent = node.parent
        if isinstance(parent, Element) and parent.tag == node.tag and len(parent.children) == 1:
            # parent is the same inline tag wrapping only this node:
            # splice this node's children into the parent.
            for child in list(node.children):
                parent.append_child(child)
            node.detach()


# 6. whitespace


def _normalize_whitespace(root: Element) -> None:
    for node in iter_postorder(root):
        if isinstance(node, Text) and not _inside_pre(node):
            node.text = _WS_RE.sub(" ", node.text).strip()
    # Remove text nodes that became empty.
    for node in list(iter_postorder(root)):
        if isinstance(node, Text) and not node.text and node.parent is not None:
            node.detach()


def _inside_pre(node: Node) -> bool:
    return any(ancestor.tag == "pre" for ancestor in node.ancestors())
