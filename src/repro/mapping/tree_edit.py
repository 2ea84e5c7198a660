"""Ordered tree edit distance (Zhang & Shasha, 1989), from scratch.

The document mapping component measures how far a document is from the
majority schema's shape with the classic ordered-tree edit distance:
minimum number of node insertions, deletions, and relabelings turning
one tree into the other.  The algorithm follows the original dynamic
program over postorder numbering, leftmost-leaf descendants ``l()``, and
keyroots, with O(n1 * n2 * min(depth, leaves)^2) time.
"""

from __future__ import annotations

from repro.dom.node import Element, Node, Text


def _cost(a: str | None, b: str | None) -> float:
    """Unit costs: insert 1, delete 1, relabel 1 (0 when labels match).
    ``None`` is the empty side of an insertion or deletion."""
    if a is None or b is None:
        return 1.0
    return 0.0 if a == b else 1.0


def _node_label(node: Node) -> str:
    if isinstance(node, Text):
        return "#text"
    assert isinstance(node, Element)
    return node.tag


class _AnnotatedTree:
    """Postorder numbering, l() table, and keyroots of a tree."""

    def __init__(self, root: Node) -> None:
        self.labels: list[str] = []
        self.lmld: list[int] = []  # leftmost leaf descendant, postorder ids
        self._postorder(root)
        self.keyroots = self._keyroots()

    def _postorder(self, root: Node) -> None:
        # Returns postorder ids via an explicit stack to survive deep trees.
        def children_of(node: Node) -> list[Node]:
            if isinstance(node, Element):
                return list(node.element_children())
            return []

        # Each frame: (node, child_iter, first_leaf_id or None)
        stack: list[list] = [[root, iter(children_of(root)), None]]
        while stack:
            frame = stack[-1]
            node, child_iter, first_leaf = frame
            child = next(child_iter, None)
            if child is not None:
                stack.append([child, iter(children_of(child)), None])
                continue
            stack.pop()
            index = len(self.labels)
            self.labels.append(_node_label(node))
            own_lmld = first_leaf if first_leaf is not None else index
            self.lmld.append(own_lmld)
            if stack:
                parent = stack[-1]
                if parent[2] is None:
                    parent[2] = own_lmld

    def _keyroots(self) -> list[int]:
        # A keyroot is the highest node of each distinct l() value.
        highest: dict[int, int] = {}
        for index, leaf in enumerate(self.lmld):
            highest[leaf] = index  # postorder: later index = higher node
        return sorted(highest.values())

    def __len__(self) -> int:
        return len(self.labels)


def tree_edit_distance(tree_a: Node, tree_b: Node) -> float:
    """Minimum-cost edit script turning ``tree_a`` into ``tree_b``.

    Only elements participate: text leaves below them are not nodes of
    the compared trees, as schema comparisons want.
    """
    a = _AnnotatedTree(tree_a)
    b = _AnnotatedTree(tree_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("cannot compute distance for an empty tree")

    treedist = [[0.0] * len(b) for _ in range(len(a))]

    for i in a.keyroots:
        for j in b.keyroots:
            _compute_treedist(a, b, i, j, treedist)
    return treedist[len(a) - 1][len(b) - 1]


def _compute_treedist(
    a: _AnnotatedTree,
    b: _AnnotatedTree,
    i: int,
    j: int,
    treedist: list[list[float]],
) -> None:
    li, lj = a.lmld[i], b.lmld[j]
    m = i - li + 2
    n = j - lj + 2
    forest = [[0.0] * n for _ in range(m)]

    for x in range(1, m):
        forest[x][0] = forest[x - 1][0] + _cost(a.labels[li + x - 1], None)
    for y in range(1, n):
        forest[0][y] = forest[0][y - 1] + _cost(None, b.labels[lj + y - 1])

    for x in range(1, m):
        node_a = li + x - 1
        for y in range(1, n):
            node_b = lj + y - 1
            if a.lmld[node_a] == li and b.lmld[node_b] == lj:
                # Both prefixes are whole trees rooted at node_a/node_b.
                forest[x][y] = min(
                    forest[x - 1][y] + _cost(a.labels[node_a], None),
                    forest[x][y - 1] + _cost(None, b.labels[node_b]),
                    forest[x - 1][y - 1] + _cost(a.labels[node_a], b.labels[node_b]),
                )
                treedist[node_a][node_b] = forest[x][y]
            else:
                xa = a.lmld[node_a] - li
                yb = b.lmld[node_b] - lj
                forest[x][y] = min(
                    forest[x - 1][y] + _cost(a.labels[node_a], None),
                    forest[x][y - 1] + _cost(None, b.labels[node_b]),
                    forest[xa][yb] + treedist[node_a][node_b],
                )
