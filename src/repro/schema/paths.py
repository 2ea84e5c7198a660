"""Label-path extraction from XML trees (Section 3.2).

Two simplifications relative to [26] are adopted by the paper: paths are
sequences of node *labels* (not node identifiers), and an ordered tree is
reduced to a *set* of root-emanating paths -- "in order for the proposed
schema discovery method not to be too biased towards multiple occurrences
of the same path in only a very few documents".

Alongside the path set, two cheap statistics are recorded per label path
(both fall out of the same traversal, "recording the multiplicity of
child nodes does not cause any computational overhead"):

* the *multiplicity* ``<p, num>`` -- the largest number of same-label
  siblings realizing the path's last step (drives the repetition rule);
* the *average child position* of the path's last element among its
  parent's element children (drives the ordering rule).

Average positions are exact.  A path's average is its position sum over
its *realization count*, the number of elements realizing the path
anywhere in the document (over all parents, not per parent).  It is
held as an integer numerator over :data:`POSITION_DENOMINATOR` =
lcm(1..16), which every count up to 16 divides; for a larger count that
does not divide it (17, 19, 23, 25, ...) the numerator is a
:class:`~fractions.Fraction` unless the position sum cancels.  So two
averages compare, and their sums over a corpus add up, without
rounding: the ordering rule's ties are true ties.  Converted resumes
realize a path at most 8 times, so they build no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern
from typing import TYPE_CHECKING

from repro.dom.node import Element

if TYPE_CHECKING:  # pragma: no cover
    # Imported where used: ``fractions`` pulls in ``decimal``, start-up
    # time every engine worker and service process would pay for a type
    # that only the ordering rule and a realization count not dividing
    # POSITION_DENOMINATOR build.
    from fractions import Fraction

# A root-emanating label path; index 0 is the root's label.
LabelPath = tuple[str, ...]

# lcm(1..16): the common denominator of per-document average positions.
POSITION_DENOMINATOR = 720720


@dataclass
class DocumentPaths:
    """The path-set representation of one XML document."""

    paths: set[LabelPath] = field(default_factory=set)
    # label path -> max number of same-label siblings realizing its tail
    multiplicity: dict[LabelPath, int] = field(default_factory=dict)
    # label path -> average 0-based position among parent element
    # children, times POSITION_DENOMINATOR (an int, or a Fraction when the
    # path's realization count does not divide the scaled position sum)
    position_numerator: dict[LabelPath, int | Fraction] = field(
        default_factory=dict
    )

    def contains(self, path: LabelPath) -> bool:
        """Whether the document realizes ``path``.

        Path sets are prefix-closed, so membership of a prefix is plain
        set membership.
        """
        return path in self.paths


def extract_paths(root: Element) -> DocumentPaths:
    """Reduce an XML tree to its :class:`DocumentPaths`.

    Runs in one preorder traversal; every node contributes the label path
    from the root to itself, so the resulting set is prefix-closed.

    Labels are interned so every ``LabelPath`` tuple in a process shares
    one string object per distinct label: tag strings are minted per
    :class:`Element`, and without interning a corpus carries millions of
    equal-but-distinct ``"RESUME"``/``"GROUP"`` copies.  Sharing shrinks
    pickled :class:`~repro.runtime.engine.ChunkPayload` accumulators
    (pickle memoizes by object identity) and speeds accumulator merges
    (tuple equality short-circuits on identical elements).
    """
    doc = DocumentPaths()
    root_path: LabelPath = (intern(root.tag),)
    doc.paths.add(root_path)
    doc.multiplicity[root_path] = 1
    doc.position_numerator[root_path] = 0

    # Running (sum_of_positions, count) per path for averaging --
    # constant space per distinct path instead of a list of realized
    # positions.
    position_acc: dict[LabelPath, list[int]] = {}

    stack: list[tuple[Element, LabelPath]] = [(root, root_path)]
    while stack:
        element, path = stack.pop()
        children = element.element_children()
        # Sibling multiplicity per label under this concrete node.
        label_counts: dict[str, int] = {}
        for child in children:
            label_counts[child.tag] = label_counts.get(child.tag, 0) + 1
        for position, child in enumerate(children):
            child_path = path + (intern(child.tag),)
            doc.paths.add(child_path)
            seen = doc.multiplicity.get(child_path, 0)
            doc.multiplicity[child_path] = max(seen, label_counts[child.tag])
            acc = position_acc.get(child_path)
            if acc is None:
                position_acc[child_path] = [position, 1]
            else:
                acc[0] += position
                acc[1] += 1
            stack.append((child, child_path))

    numerators = doc.position_numerator
    for child_path, (position_sum, count) in position_acc.items():
        scaled = position_sum * POSITION_DENOMINATOR
        numerator, remainder = divmod(scaled, count)
        if remainder:
            from fractions import Fraction

            numerator = Fraction(scaled, count)
        numerators[child_path] = numerator
    return doc
