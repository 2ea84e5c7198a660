"""The grouping rule (Section 2.3.2, structure rule 1).

"Given sibling nodes N1,...,Nk in the document tree that all have the
same markup tag.  Then all sibling nodes S1,...,Sn that occur between Ni
and Ni+1 are grouped under a new node with the (temporary) label GROUP,
and this node becomes a child of node Ni.  All sibling nodes right to Nk
are grouped in the same way."

Weights on group tags order the work at each level ("grouping right
siblings of nodes marked with h1 has a higher priority than grouping
right siblings of nodes marked with p at the same level"); because each
group sinks below its leader, lower-priority tags are handled when the
rule reaches the next level down -- the rule operates top-down.

Each element's child list is rebuilt once: the leaders and the siblings
left of the first leader stay, and each run of members moves into its
new ``GROUP`` by assignment, not through ``append_child`` (whose detach
rescans the old list once per member).
"""

from __future__ import annotations

from repro.convert.config import ConversionConfig
from repro.dom.node import Element, Node

GROUP_TAG = "GROUP"
# Equal-tag sibling leaders needed before the rule groups on that tag:
# repeated markup only.
MIN_GROUP_LEADERS = 2


def apply_grouping_rule(root: Element, config: ConversionConfig | None = None) -> int:
    """Apply the grouping rule top-down under ``root``.

    Returns the number of ``GROUP`` nodes created.  Newly created groups
    are themselves visited (their contents may contain lower-priority
    group tags), so repeated markup at every level of abstraction sinks
    into a logical nesting.
    """
    config = config or ConversionConfig()
    created = 0
    queue: list[Element] = [root]
    # Breadth-first: the loop reads the queue by position while the
    # body appends to it, so each element is visited once, in FIFO order.
    for element in queue:
        # A group needs a leader and at least one member after it.
        if len(element.children) > 1:
            created += _group_children(element, config)
        queue.extend(
            [child for child in element.children if isinstance(child, Element)]
        )
    return created


def _leader_tag(children: list[Node], config: ConversionConfig) -> str | None:
    """The highest-weight group tag occurring >= 2 times among children.

    A single occurrence gives no evidence of sectioning, so it never
    drives grouping -- this keeps e.g. a lone ``<p>`` from swallowing the
    rest of the document.
    """
    weights = config.group_tag_weights
    counts: dict[str, int] = {}
    for child in children:
        if isinstance(child, Element) and child.tag in weights:
            counts[child.tag] = counts.get(child.tag, 0) + 1
    candidates = [
        tag for tag, count in counts.items() if count >= MIN_GROUP_LEADERS
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda tag: weights[tag])


def _group_children(element: Element, config: ConversionConfig) -> int:
    """Sink the siblings after each leader (up to the next leader) into a
    ``GROUP`` under that leader, rebuilding ``element``'s list once."""
    children = element.children
    tag = _leader_tag(children, config)
    if tag is None:
        return 0
    created = 0
    kept: list[Node] = []
    leader: Element | None = None
    members: list[Node] = []
    for child in children:
        if isinstance(child, Element) and child.tag == tag:
            if members:
                _sink(leader, members)  # type: ignore[arg-type]
                created += 1
                members = []
            leader = child
            kept.append(child)
        elif leader is None:
            # Siblings left of the first leader stay where they are.
            kept.append(child)
        else:
            members.append(child)
    if members:
        _sink(leader, members)  # type: ignore[arg-type]
        created += 1
    element.children = kept
    return created


def _sink(leader: Element, members: list[Node]) -> None:
    """Make a new ``GROUP`` holding ``members`` the last child of
    ``leader``; the members leave their old list with the rebuild."""
    group = Element(GROUP_TAG)
    group.children = members
    for member in members:
        member.parent = group
    group.parent = leader
    leader.children.append(group)
