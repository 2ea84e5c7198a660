"""An HTML cleanser in the spirit of HTML Tidy.

Section 2.4 observes that although the restructuring heuristics tolerate
ill-formed HTML, "applying HTML cleansing tools (such as HTML Tidy) can
improve the accuracy of resulting XML documents."  This module provides
the cleansing pass for that ablation (experiment E6): it operates on an
already-parsed tree and repairs the malformations our noise injector (and
the era's hand-written HTML) produce.

Fix-ups applied, in order:

1. *Heading/inline nesting repair* -- block-level children of a heading
   or of an inline element (the fallout of a dropped ``</h2>`` or an
   unclosed ``<font>``) are moved out to become following siblings.
2. *Orphan list items* -- runs of ``li`` outside a list container are
   wrapped in a ``ul``; orphan ``dt``/``dd`` runs are wrapped in a ``dl``.
3. *Orphan table parts* -- runs of ``tr`` outside a table are wrapped in a
   ``table``; ``td``/``th`` outside a row are wrapped in a ``tr``.
4. *Empty inline removal* -- inline elements with no content are deleted.
5. *Redundant inline collapse* -- ``<b><b>x</b></b>`` becomes ``<b>x</b>``.
6. *Whitespace normalization* -- runs of whitespace in text nodes collapse
   to a single space (outside ``pre``).

The implementation snapshots the tree **once** and drives every pass
off that snapshot as plain list loops, with single-rebuild child-list
surgery instead of per-node ``index_in_parent()``/``detach()`` rescans.
Its oracle is the original one-pass-per-fix-up cleanser (six full
postorder traversals, each materialized with ``list(iter_postorder(root))``,
plus a per-text-node ``ancestors()`` scan for ``pre`` detection), kept
verbatim in ``tests/oracles/tidy.py``; "the legacy" passes below mean
that oracle.  The two are proven tree-identical by the hypothesis
property suite (tests/test_tidy_properties.py), the pinned fixtures in
tests/golden/tidy_edge/, and the engine-level byte-identical tidy
differential under tests/.

Why one snapshot suffices -- and why the passes cannot fuse further:

* Passes 1-5 never create or destroy a heading, inline, or text node
  (pass 3's wrappers are ``ul``/``dl``/``table``/``tr``; pass 4 deletes
  only childless inlines; pass 5's splice moves children out before the
  delete), so each pass's legacy re-traversal visits exactly the nodes
  the original snapshot already holds.
* Every pass's per-node action reads/writes only the node and its
  current parent, and hoisting/splicing only ever *shrinks* ancestor
  sets (wrap adds only never-revisited wrapper ancestors), so the
  original postorder remains children-first for the tree each later
  pass observes -- processing the stale snapshot order is equivalent.
* The passes themselves must stay sequential: a heading's hoist must
  not see blocks an inline descendant hoists into it later (pass 1 vs
  2), wrapping must wait for every hoist to finish assembling sibling
  runs (3 after 1-2), and ``<b><b ...>`` shows pass 5 reading parent
  emptiness that only the *completed* pass 4 establishes.
"""

from __future__ import annotations

import re

from repro.dom.node import Element, Node, Text
from repro.dom.treeops import collect_postorder
from repro.htmlparse.taginfo import (
    BLOCK_TAGS,
    HEADING_TAGS,
    INLINE_TAGS,
    LIST_CONTAINER_TAGS,
)

_WS_RE = re.compile(r"\s+")
# Matches exactly the strings `_WS_RE.sub(" ", s).strip()` would change:
# leading/trailing whitespace, a doubled run, or any whitespace that is
# not a plain space.  No match means normalization is the identity, so
# normalization skips the sub+strip allocation for already-clean text.
_WS_DIRTY_RE = re.compile(r"^\s|\s$|\s\s|[^\S ]")

# Orphan-wrapping rule table.
_LI_TAGS = frozenset({"li"})
_DL_ITEMS = frozenset({"dt", "dd"})
_TR_TAGS = frozenset({"tr"})
_TABLE_CELLS = frozenset({"td", "th"})
_TABLE_SECTION_TAGS = frozenset({"table", "thead", "tbody", "tfoot"})


def tidy(root: Element) -> Element:
    """Cleanse a parsed HTML tree in place and return it."""
    # One materialized postorder serves every pass (see the module
    # docstring for why the stale snapshot order stays valid).
    headings: list[Element] = []
    inlines: list[Element] = []
    elements: list[Element] = []
    texts: list[Text] = []
    saw_pre = False
    for node in collect_postorder(root):
        if isinstance(node, Text):
            texts.append(node)
            continue
        elements.append(node)
        tag = node.tag
        if tag in INLINE_TAGS:
            inlines.append(node)
        elif tag in HEADING_TAGS:
            headings.append(node)
        elif tag == "pre":
            saw_pre = True

    # ``pre`` membership, resolved once up front instead of one
    # ancestors() walk per text node.  Passes 1-5 never add or remove a
    # ``pre`` ancestor (hoisting removes heading/inline ancestors,
    # wrapping adds ul/dl/table/tr ones, the collapse removes a same-tag
    # inline), so the original-tree answer still holds at pass 6.
    pre_text_ids = _pre_text_ids(elements) if saw_pre else frozenset()

    # Passes 1+2: hoist block children out of headings, then inlines.
    for node in headings:
        _hoist_block_children(node)
    for node in inlines:
        _hoist_block_children(node)

    # Pass 3: orphan wrapping.  Wrap actions touch only the visited
    # node's own child list, so they are independent across nodes.
    for node in elements:
        _wrap_orphans_at(node)

    # Pass 4: drop childless, val-less inlines (snapshot order is
    # children-first, so an inline emptied by a dropped child is seen
    # after that child).
    for node in inlines:
        if node.parent is not None and not node.children and not node.attrs.get("val"):
            node.detach()

    # Pass 5: collapse <b><b>x</b></b>; the splice is a single child
    # list hand-off instead of per-child append_child/detach rescans.
    for node in inlines:
        parent = node.parent
        if parent is None:
            continue
        if parent.tag == node.tag and len(parent.children) == 1:
            moved = node.take_children()
            node.detach()
            parent.adopt_all(moved)

    # Pass 6: normalize whitespace and drop emptied text nodes in one
    # loop (the legacy form walks the tree twice for this); batch the
    # removals so each affected parent's child list is rebuilt once.
    dropped: list[Text] = []
    for text in texts:
        value = text.text
        if id(text) not in pre_text_ids:
            if _WS_DIRTY_RE.search(value) is not None:
                value = _WS_RE.sub(" ", value).strip()
                text.text = value
        if not value and text.parent is not None:
            dropped.append(text)
    if dropped:
        dead = {id(text) for text in dropped}
        seen_parents: set[int] = set()
        for text in dropped:
            parent = text.parent
            if parent is None or id(parent) in seen_parents:
                continue
            seen_parents.add(id(parent))
            parent.children = [
                child for child in parent.children if id(child) not in dead
            ]
        for text in dropped:
            text.parent = None
    return root


def _pre_text_ids(elements: list[Element]) -> frozenset[int]:
    """ids of every text node with a ``pre`` ancestor (original tree)."""
    ids: set[int] = set()
    for element in elements:
        if element.tag != "pre":
            continue
        stack = list(element.children)
        while stack:
            node = stack.pop()
            if isinstance(node, Text):
                ids.add(id(node))
            else:
                stack.extend(node.children)
    return frozenset(ids)


def _hoist_block_children(node: Element) -> None:
    """Move block-level children after ``node`` in its parent.

    Same effect as the legacy hoist, with one partition of the child
    list and one slice-insert into the parent instead of per-child
    ``detach()``/``insert_child()`` scans (headings are block-level, so
    the legacy ``is_block or is_heading`` test is one set probe).
    """
    parent = node.parent
    if parent is None:
        return
    misplaced: list[Node] = []
    kept: list[Node] = []
    for child in node.children:
        if isinstance(child, Element) and child.tag in BLOCK_TAGS:
            misplaced.append(child)
        else:
            kept.append(child)
    if not misplaced:
        return
    node.children = kept
    insert_at = node.index_in_parent() + 1
    parent.children[insert_at:insert_at] = misplaced
    for child in misplaced:
        child.parent = parent


def _wrap_orphans_at(node: Element) -> None:
    """Apply the four orphan-wrapping rules at one node.

    One scan of the child list decides which rules can match at all;
    most nodes have no orphan children and pay only that scan.
    """
    needs = 0
    for child in node.children:
        if isinstance(child, Element):
            tag = child.tag
            if tag == "li":
                needs |= 1
            elif tag == "tr":
                needs |= 4
            elif tag in _DL_ITEMS:
                needs |= 2
            elif tag in _TABLE_CELLS:
                needs |= 8
    if not needs:
        return
    # Rule order matches the legacy _wrap_orphans; each rule sees the child list
    # the previous one left (a fresh ``tr`` wrapper from rule 4 is not
    # re-examined by rule 3, exactly like the legacy snapshot).
    tag = node.tag
    if needs & 1 and tag not in LIST_CONTAINER_TAGS:
        _wrap_runs_fast(node, _LI_TAGS, "ul")
    if needs & 2 and tag not in LIST_CONTAINER_TAGS:
        _wrap_runs_fast(node, _DL_ITEMS, "dl")
    if needs & 4 and tag not in _TABLE_SECTION_TAGS:
        _wrap_runs_fast(node, _TR_TAGS, "table")
    if needs & 8 and tag not in _TR_TAGS:
        _wrap_runs_fast(node, _TABLE_CELLS, "tr")


def _wrap_runs_fast(parent: Element, tags: frozenset[str], wrapper_tag: str) -> None:
    """One-rebuild form of the legacy ``_wrap_runs``.

    The legacy loop inserts the wrapper then ``append_child``s each run
    item -- every append rescans the parent's shrinking child list.
    Here the new child list is built in a single pass: a run's items
    move under the wrapper, and the whitespace text nodes interleaved
    with the run land immediately after it, which is exactly where the
    legacy splice leaves them.
    """
    children = parent.children
    out: list[Node] = []
    i = 0
    n = len(children)
    while i < n:
        child = children[i]
        if isinstance(child, Element) and child.tag in tags:
            run = [child]
            gap: list[Node] = []
            i += 1
            while i < n:
                nxt = children[i]
                if isinstance(nxt, Element) and nxt.tag in tags:
                    run.append(nxt)
                    i += 1
                elif isinstance(nxt, Text) and not nxt.text.strip():
                    gap.append(nxt)
                    i += 1
                else:
                    break
            wrapper = Element(wrapper_tag)
            wrapper.parent = parent
            wrapper.children = run
            for item in run:
                item.parent = wrapper
            out.append(wrapper)
            out.extend(gap)
        else:
            out.append(child)
            i += 1
    parent.children = out
