"""The consolidation rule (Section 2.3.2, structure rule 2).

The final, bottom-up rule.  It eliminates every remaining non-concept
node (residual HTML markup and temporary ``GROUP`` nodes), exploiting the
observation that "often the first object in such a group of semantically
related objects describes the concept of this group":

* a childless non-concept node is deleted;
* a non-concept node whose tag is a *list tag*, or whose children all
  carry the same element name, is replaced by its children (the sibling
  relationship is preserved by "pushing up" the children);
* otherwise the node is replaced by its first concept child, and the
  remaining children become that child's children (Figure 1).

Accumulated ``val`` text on an eliminated node is never dropped: it moves
to the node's replacement (first concept child) or to its parent.

The rule is one bottom-up pass over the parents: each parent's child
list is rebuilt once, after the lists below it are final, with every
non-concept child replaced by what the three cases above leave in its
place.  Children are eliminated left to right and parents after their
descendants, so every element receives its ``val`` appends in the
postorder the node-at-a-time rule made them in.
"""

from __future__ import annotations

from repro.concepts.knowledge import KnowledgeBase
from repro.dom.node import Element, Node
from repro.htmlparse.taginfo import DEFAULT_LIST_TAGS


def is_concept_node(node: Node, concept_tags: frozenset[str] | set[str]) -> bool:
    """True when ``node`` is an element already related to a concept."""
    return isinstance(node, Element) and node.tag in concept_tags


def apply_consolidation_rule(root: Element, kb: KnowledgeBase) -> int:
    """Consolidate the tree under ``root`` (the root itself is kept).

    Returns the number of nodes eliminated.  After this rule, every
    element strictly below ``root`` carries a concept name.
    """
    concept_tags = {concept.tag for concept in kb}
    # Every parent comes before its children here, so the reversed walk
    # rebuilds a list only once the lists below it are final.
    parents: list[Element] = []
    stack = [root]
    while stack:
        parent = stack.pop()
        parents.append(parent)
        stack.extend(
            child
            for child in parent.children
            if isinstance(child, Element) and child.children
        )
    eliminated = 0
    for parent in reversed(parents):
        eliminated += _consolidate_children(parent, concept_tags)
    return eliminated


def _consolidate_children(parent: Element, concept_tags: set[str]) -> int:
    """Eliminate ``parent``'s non-concept element children, left to
    right, rebuilding its child list once.  Returns how many went."""
    children = parent.children
    rebuilt: list[Node] | None = None
    eliminated = 0
    for index, node in enumerate(children):
        if not isinstance(node, Element) or node.tag in concept_tags:
            if rebuilt is not None:
                rebuilt.append(node)
            continue
        if rebuilt is None:
            rebuilt = children[:index]
        replacement = _eliminate(node, parent, concept_tags)
        for kept in replacement:
            kept.parent = parent
        rebuilt.extend(replacement)
        eliminated += 1
    if rebuilt is not None:
        parent.children = rebuilt
    return eliminated


def _children_push_up(node: Element) -> bool:
    """Whether ``node``'s children stay siblings when ``node`` goes away."""
    if node.tag.lower() in DEFAULT_LIST_TAGS:
        return True
    # At least two children, all of them elements with one tag.
    children = node.children
    if len(children) < 2 or not isinstance(children[0], Element):
        return False
    first_tag = children[0].tag
    return all(
        isinstance(child, Element) and child.tag == first_tag for child in children
    )


def _eliminate(node: Element, parent: Element, concept_tags: set[str]) -> list[Node]:
    """Detach ``node`` and return what takes its place in ``parent``."""
    node.parent = None
    children = node.children
    if not children:
        # Childless markup carries no structure; its text (if any) must
        # survive on the parent.
        parent.append_val(node.get_val())
        return []

    push_up = _children_push_up(node)
    node.children = []
    if push_up:
        parent.append_val(node.get_val())
        return children

    first_concept = next(
        (child for child in children if is_concept_node(child, concept_tags)),
        None,
    )
    if first_concept is None:
        # No concept child to take over: preserve the siblings.
        parent.append_val(node.get_val())
        return children

    # The first concept child replaces the node; its former siblings
    # become its children (Figure 1).
    assert isinstance(first_concept, Element)
    first_concept.append_val(node.get_val())
    adopted = first_concept.children
    for sibling in children:
        if sibling is not first_concept:
            sibling.parent = first_concept
            adopted.append(sibling)
    return [first_concept]
