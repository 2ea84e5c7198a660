"""Concept constraints (Section 2.2) and their evaluation.

Three constraint forms are supported, each negatable:

* ``parent(c1, c2)`` -- ``c1`` is a (not necessarily direct) ancestor of
  ``c2`` wherever both occur on a path.
* ``sibling(c1, c2)`` -- ``c1`` and ``c2`` occur at the same level of
  abstraction (used by the instance rule to pick token decompositions).
* ``depth(c) OP d`` with ``OP`` in ``{=, <, >}`` -- ``c`` may only occur
  at depths satisfying the comparison (root's children have depth 1).

A :class:`ConstraintSet` additionally carries two corpus-wide switches the
paper's evaluation uses (Section 4.2): ``no_repeat_on_path`` (a concept
name cannot appear twice on a label path) and ``max_depth``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class ParentConstraint:
    """``[not] parent(parent, child)``."""

    parent: str
    child: str
    negated: bool = False

    def satisfied_by_path(self, labels: Sequence[str]) -> bool:
        """Check the constraint against one root-emanating label path."""
        if self.child not in labels or self.parent not in labels:
            return True
        is_ancestor = labels.index(self.parent) < labels.index(self.child)
        return not is_ancestor if self.negated else is_ancestor


@dataclass(frozen=True)
class SiblingConstraint:
    """``[not] sibling(left, right)`` -- same level of abstraction."""

    left: str
    right: str
    negated: bool = False

    def allows_pair(self, a: str, b: str) -> bool:
        """Whether labels ``a`` and ``b`` may be siblings."""
        mentioned = {self.left, self.right} == {a, b} or (
            self.left == self.right == a == b
        )
        if not mentioned:
            return True
        return not self.negated


@dataclass(frozen=True)
class DepthConstraint:
    """``[not] depth(concept) OP bound`` with OP in ``{'=', '<', '>'}``."""

    concept: str
    op: str
    bound: int
    negated: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("=", "<", ">"):
            raise ValueError(f"invalid depth operator: {self.op!r}")

    def allows_depth(self, depth: int) -> bool:
        """Whether the concept may occur at ``depth``."""
        if self.op == "=":
            holds = depth == self.bound
        elif self.op == "<":
            holds = depth < self.bound
        else:
            holds = depth > self.bound
        return not holds if self.negated else holds


class ConstraintSet:
    """A collection of concept constraints with path-checking helpers.

    Constraints "do not have to be complete" (Section 2.2) -- anything not
    mentioned is permitted.
    """

    def __init__(
        self,
        parents: Iterable[ParentConstraint] = (),
        siblings: Iterable[SiblingConstraint] = (),
        depths: Iterable[DepthConstraint] = (),
        *,
        no_repeat_on_path: bool = False,
        max_depth: int | None = None,
    ) -> None:
        self.parents = list(parents)
        self.siblings = list(siblings)
        self.depths = list(depths)
        self.no_repeat_on_path = no_repeat_on_path
        self.max_depth = max_depth
        self._depths_by_concept: dict[str, list[DepthConstraint]] = {}
        for constraint in self.depths:
            self._depths_by_concept.setdefault(constraint.concept, []).append(
                constraint
            )
        # depth -> the concepts their depth constraints forbid there; filled
        # by extensions on first use, emptied by add_depth.
        self._forbidden_at: dict[int, frozenset[str]] = {}

    # -- construction ----------------------------------------------------

    def add_parent(self, parent: str, child: str, *, negated: bool = False) -> None:
        """Add a ``parent`` constraint."""
        self.parents.append(ParentConstraint(parent, child, negated))

    def add_sibling(self, left: str, right: str, *, negated: bool = False) -> None:
        """Add a ``sibling`` constraint."""
        self.siblings.append(SiblingConstraint(left, right, negated))

    def add_depth(
        self, concept: str, op: str, bound: int, *, negated: bool = False
    ) -> None:
        """Add a ``depth`` constraint."""
        constraint = DepthConstraint(concept, op, bound, negated)
        self.depths.append(constraint)
        self._depths_by_concept.setdefault(concept, []).append(constraint)
        self._forbidden_at.clear()

    def is_empty(self) -> bool:
        """True when no constraint of any kind is present."""
        return not (
            self.parents
            or self.siblings
            or self.depths
            or self.no_repeat_on_path
            or self.max_depth is not None
        )

    # -- checks ------------------------------------------------------------

    def allows_depth(self, concept: str, depth: int) -> bool:
        """Whether ``concept`` may occur at ``depth`` (root children = 1)."""
        if self.max_depth is not None and depth > self.max_depth:
            return False
        return all(
            c.allows_depth(depth) for c in self._depths_by_concept.get(concept, ())
        )

    def allows_sibling_pair(self, a: str, b: str) -> bool:
        """Whether labels ``a`` and ``b`` may be siblings."""
        return all(c.allows_pair(a, b) for c in self.siblings)

    def allows_path(self, labels: Sequence[str]) -> bool:
        """Whether a root-emanating label path (root excluded from depth
        counting: ``labels[0]`` is at depth 1) satisfies every constraint.

        This is the pruning predicate for frequent-path discovery: a path
        that violates any constraint cannot be part of the majority schema
        and none of its extensions need to be explored (Section 4.2).
        """
        if self.no_repeat_on_path and len(set(labels)) != len(labels):
            return False
        if self.max_depth is not None and len(labels) > self.max_depth:
            return False
        for depth, label in enumerate(labels, start=1):
            if not self.allows_depth(label, depth):
                return False
        return all(c.satisfied_by_path(labels) for c in self.parents)

    def extensions(self, path: Sequence[str], labels: Iterable[str]) -> list[str]:
        """The ``labels``, in their order, whose one-label extension of
        ``path`` is allowed: ``[l for l in labels if allows_path((*path, l))]``.

        ``path`` itself must be allowed, so only what the appended label
        can break is checked: the depth cap, repetition, the label's own
        depth constraints at ``len(path) + 1`` and, for a label not yet
        on the path, the parent constraints.  A label already on the
        path leaves every parent verdict as it was, since
        ``satisfied_by_path`` reads first occurrences only.  The depth
        constraints' verdicts at a depth are worked out once, as the set
        of concepts they forbid there; the cap, repetition and parent
        constraints are public and mutable, so they are read on every
        call.  This is the miner's per-prefix check; ``allows_path``
        stays the reference predicate.
        """
        depth = len(path) + 1
        if self.max_depth is not None and depth > self.max_depth:
            return []
        forbidden = self._forbidden_at.get(depth)
        if forbidden is None:
            forbidden = self._forbidden_at[depth] = frozenset(
                concept
                for concept, constraints in self._depths_by_concept.items()
                if not all(c.allows_depth(depth) for c in constraints)
            )
        skip = forbidden.union(path) if self.no_repeat_on_path else forbidden
        on_path = set(path)
        return [
            label
            for label in labels
            if label not in skip
            and (
                label in on_path
                or all(c.satisfied_by_path((*path, label)) for c in self.parents)
            )
        ]
