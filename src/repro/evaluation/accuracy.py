"""Data-extraction accuracy (Section 4.1 / Figure 4).

The paper counts "the number of wrong parent-child and sibling
relationships in the extracted tree", where moving "a node and its
siblings together to make up for one parent-child relationship that has
been incorrectly identified ... is counted as one logical error".

The mechanical version of that metric used here mirrors the "group
move" accounting:

1. Both trees are reduced to multisets of *group edges*: one entry
   ``(parent_label, child_label)`` per parent **node instance** having at
   least one ``child_label`` child (a run of same-labelled siblings under
   one parent is one group).
2. Group edges present in the extraction but not the truth are *surplus*;
   the reverse are *deficits*.
3. A surplus ``(P, c)`` paired with a deficit ``(Q, c)`` is a group that
   must move from under a ``P`` node to under a ``Q`` node.  All child
   labels moving between the same ``(P, Q)`` node pair move *together* --
   "a node and its siblings together" -- and cost **one** logical error
   (per node-instance pair).
4. A leftover surplus whose destination already received a move from the
   same source (and holds that label in the truth) rides along for free;
   any other leftover surplus (spurious group) or deficit (missing group)
   costs one error each.

The percentage denominator is the number of concept nodes in the
extracted document ("Num. of Errors / Num. of keyword nodes" in
Figure 4's axis label).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.dom.node import Element
from repro.schema.paths import LabelPath


def _label_path_counts(root: Element) -> Counter[LabelPath]:
    counts: Counter[LabelPath] = Counter()
    stack: list[tuple[Element, LabelPath]] = [(root, (root.tag,))]
    while stack:
        element, path = stack.pop()
        counts[path] += 1
        for child in element.element_children():
            stack.append((child, path + (child.tag,)))
    return counts


def _group_edges(root: Element) -> Counter[tuple[str, str]]:
    """Multiset of (parent label, child label) group edges.

    One entry per parent *node instance* per distinct child label: a run
    of five DATE children under one EDUCATION node is a single group.
    """
    edges: Counter[tuple[str, str]] = Counter()
    stack: list[Element] = [root]
    while stack:
        element = stack.pop()
        child_labels = {child.tag for child in element.element_children()}
        for label in child_labels:
            edges[(element.tag, label)] += 1
        stack.extend(element.element_children())
    return edges


def _count_group_moves(
    extracted: Counter[tuple[str, str]], truth: Counter[tuple[str, str]]
) -> int:
    """The logical errors, counted per the module docstring."""
    surplus: Counter[tuple[str, str]] = Counter()
    deficit: Counter[tuple[str, str]] = Counter()
    for edge in set(extracted) | set(truth):
        have = extracted.get(edge, 0)
        want = truth.get(edge, 0)
        if have > want:
            surplus[edge] = have - want
        elif have < want:
            deficit[edge] = want - have

    # Pair surplus with deficit per child label: each pairing is a move
    # of that group from source parent to destination parent.
    moves: Counter[tuple[str, str]] = Counter()  # (src parent, dst parent)
    moved_by_pair: dict[tuple[str, str], Counter[str]] = {}
    child_labels = {c for _p, c in surplus} & {c for _p, c in deficit}
    for child in sorted(child_labels):
        sources = sorted(
            (p for (p, c) in surplus if c == child),
        )
        destinations = sorted(
            (p for (p, c) in deficit if c == child),
        )
        for src in sources:
            if not destinations:
                break
            available = surplus[(src, child)]
            while available and destinations:
                dst = destinations[0]
                take = min(available, deficit[(dst, child)])
                moved_by_pair.setdefault((src, dst), Counter())[child] += take
                surplus[(src, child)] -= take
                deficit[(dst, child)] -= take
                available -= take
                if deficit[(dst, child)] == 0:
                    destinations.pop(0)
    surplus = +surplus
    deficit = +deficit
    for pair, by_child in moved_by_pair.items():
        moves[pair] = max(by_child.values())

    errors = sum(moves.values())
    # Leftover surplus: absorbed when its source already sends a move to
    # a destination that holds this label in the truth.
    for (src, child), count in surplus.items():
        absorbed = any(
            pair[0] == src and truth.get((pair[1], child), 0) > 0
            for pair in moves
        )
        if not absorbed:
            errors += count
    errors += sum(deficit.values())
    return errors


@dataclass
class DocumentErrors:
    """Error accounting for one document."""

    doc_id: int
    errors: int
    extracted_nodes: int

    @property
    def error_percentage(self) -> float:
        """Errors over extracted concept ("keyword") nodes, in percent."""
        if self.extracted_nodes == 0:
            return 100.0 if self.errors else 0.0
        return 100.0 * self.errors / self.extracted_nodes


def count_logical_errors(
    extracted: Element, truth: Element, *, doc_id: int = 0
) -> DocumentErrors:
    """Logical errors of one extracted tree against its ground truth."""
    extracted_edges = _group_edges(extracted)
    truth_edges = _group_edges(truth)
    return DocumentErrors(
        doc_id=doc_id,
        errors=_count_group_moves(extracted_edges, truth_edges),
        extracted_nodes=sum(_label_path_counts(extracted).values()),
    )


# Figure 4's histogram bands (% error per document).
FIGURE4_BANDS: tuple[tuple[float, float], ...] = (
    (0.0, 4.0),
    (4.0, 8.0),
    (8.0, 12.0),
    (12.0, 16.0),
    (16.0, 20.0),
    (20.0, 24.0),
)


@dataclass
class AccuracyReport:
    """Corpus-level accuracy summary (the numbers Section 4.1 quotes)."""

    documents: list[DocumentErrors] = field(default_factory=list)

    @property
    def document_count(self) -> int:
        return len(self.documents)

    @property
    def avg_errors_per_document(self) -> float:
        """Paper: 3.9."""
        if not self.documents:
            return 0.0
        return sum(d.errors for d in self.documents) / len(self.documents)

    @property
    def avg_concept_nodes_per_document(self) -> float:
        """Paper: 53.7."""
        if not self.documents:
            return 0.0
        return sum(d.extracted_nodes for d in self.documents) / len(self.documents)

    @property
    def avg_error_percentage(self) -> float:
        """Paper: 9.2%."""
        if not self.documents:
            return 0.0
        return sum(d.error_percentage for d in self.documents) / len(self.documents)

    @property
    def accuracy(self) -> float:
        """Paper: 90.8%."""
        return 100.0 - self.avg_error_percentage

    def histogram(
        self, bands: tuple[tuple[float, float], ...] = FIGURE4_BANDS
    ) -> list[tuple[str, int]]:
        """Documents per error-percentage band (Figure 4's bars).

        The last band is closed on the right; documents beyond it land
        in an overflow band so none silently disappears.
        """
        rows: list[tuple[str, int]] = []
        for low, high in bands:
            count = sum(
                1
                for d in self.documents
                if low <= d.error_percentage < high
                or (high == bands[-1][1] and d.error_percentage == high)
            )
            rows.append((f"{low:g}-{high:g}", count))
        overflow = sum(
            1 for d in self.documents if d.error_percentage > bands[-1][1]
        )
        if overflow:
            rows.append((f">{bands[-1][1]:g}", overflow))
        return rows


def evaluate_accuracy(
    pairs: list[tuple[Element, Element]],
) -> AccuracyReport:
    """Score a corpus of ``(extracted, ground_truth)`` tree pairs."""
    report = AccuracyReport()
    for doc_id, (extracted, truth) in enumerate(pairs):
        report.documents.append(
            count_logical_errors(extracted, truth, doc_id=doc_id)
        )
    return report
