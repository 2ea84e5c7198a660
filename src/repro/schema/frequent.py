"""Frequent-path mining (Section 3.2).

For a label path ``p`` over the corpus ``D``::

    support(p)      = freq(p, S) / |D|
    supportRatio(p) = support(p) / support(p'),  p = p' . e

where ``freq(p, S)`` counts the documents whose path set contains ``p``
(path sets are per-document sets, so a document contributes at most once
-- this gives the paper's stated property that ``support(p) = 1`` iff the
path occurs in every document).  ``supportRatio`` counters the natural
decay of support with path length; the root path has ratio 1.

A path is *frequent* when ``support >= supThreshold`` and
``supportRatio >= ratioThreshold``.  Mining proceeds level-wise over the
prefix tree; ``supThreshold`` is anti-monotone ("once a path (prefix)
does not satisfy supThreshold, all its superpaths need not be
considered"), and concept constraints prune candidate paths before any
counting (Section 4.2).  The number of candidate nodes explored is
reported for the search-space experiment.

The statistics are a :class:`~repro.schema.accumulator.PathAccumulator`,
the one corpus-statistics type of Section 3; a list of per-document path
sets is accumulated once on entry, and the mined
:class:`FrequentPathSet` keeps the accumulator for later support queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.concepts.constraints import ConstraintSet
from repro.schema.accumulator import PathAccumulator
from repro.schema.paths import DocumentPaths, LabelPath


@dataclass
class FrequentPathSet:
    """Result of frequent-path mining.

    ``paths`` is prefix-closed by construction.  ``nodes_explored`` counts
    candidate label paths generated (including the root), the quantity
    the Section 4.2 experiment reports; ``nodes_counted`` additionally
    excludes candidates that turned out to have zero support ("without
    extending nodes with zero support").
    """

    paths: set[LabelPath]
    statistics: PathAccumulator
    sup_threshold: float
    ratio_threshold: float
    nodes_explored: int = 0
    nodes_counted: int = 0

    def support(self, path: LabelPath) -> float:
        """Corpus support of ``path``."""
        return self.statistics.support(path)

    def max_depth(self) -> int:
        """Length of the longest frequent path."""
        return max((len(p) for p in self.paths), default=0)

    def leaves(self) -> list[LabelPath]:
        """Frequent paths that are not a prefix of a longer frequent path."""
        return [
            path
            for path in self.paths
            if not any(other[: len(path)] == path and len(other) > len(path)
                       for other in self.paths)
        ]


def mine_frequent_paths(
    documents: list[DocumentPaths] | PathAccumulator,
    *,
    sup_threshold: float = 0.5,
    ratio_threshold: float = 0.0,
    constraints: ConstraintSet | None = None,
    candidate_labels: set[str] | None = None,
    extend_zero_support: bool = False,
) -> FrequentPathSet:
    """Mine the frequent label paths of a corpus.

    ``documents`` is a :class:`~repro.schema.accumulator.PathAccumulator`,
    or a list of per-document path sets that is accumulated once here.
    ``candidate_labels`` is the alphabet used to extend prefixes; it
    defaults to the labels observed in the corpus.  Constraint checking
    receives the path *without* its root label (the root concept is not a
    constrained depth level).  With ``extend_zero_support=True`` the miner
    mimics pure constraint-based enumeration: every constraint-admissible
    candidate is generated and counted even when its parent has support
    below the threshold -- this reproduces the search-space accounting of
    Section 4.2 and requires a depth bound (``constraints.max_depth``) to
    terminate.
    """
    statistics = (
        documents
        if isinstance(documents, PathAccumulator)
        else PathAccumulator.from_documents(documents)
    )
    labels = (
        sorted(candidate_labels)
        if candidate_labels is not None
        else sorted(statistics.observed_labels())
    )
    constraints = constraints or ConstraintSet()
    if extend_zero_support and constraints.max_depth is None:
        raise ValueError(
            "extend_zero_support enumeration needs a depth bound "
            "(constraints.max_depth)"
        )

    # Roots: every label observed at the root of some document.
    root_labels = statistics.root_labels()
    if not root_labels:
        root_labels = labels[:1]

    frequent: set[LabelPath] = set()
    explored = 0
    counted = 0
    frontier: list[LabelPath] = []

    for root_label in root_labels:
        path = (root_label,)
        explored += 1
        support = statistics.support(path)
        if support > 0:
            counted += 1
        if support >= sup_threshold and support > 0:
            frequent.add(path)
        if (support >= sup_threshold and support > 0) or extend_zero_support:
            frontier.append(path)

    # Every frontier path passed the constraint check, so each prefix
    # needs only the incremental check of its one-label extensions.
    while frontier:
        next_frontier: list[LabelPath] = []
        for prefix in frontier:
            for label in constraints.extensions(prefix[1:], labels):
                candidate = prefix + (label,)
                explored += 1
                support = statistics.support(candidate)
                if support > 0:
                    counted += 1
                if (
                    prefix in frequent
                    and support >= sup_threshold
                    and support > 0
                    and statistics.support_ratio(candidate) >= ratio_threshold
                ):
                    # Requiring the prefix to be frequent keeps the result
                    # prefix-closed even when a parent passed the support
                    # threshold but failed the ratio threshold.
                    frequent.add(candidate)
                # A zero-support path occurs in no document, so neither it
                # nor any superpath can ever be frequent (antimonotone) --
                # it is only extended in enumeration mode.  This also
                # keeps supThreshold = 0 from diverging.
                if (support >= sup_threshold and support > 0) or extend_zero_support:
                    next_frontier.append(candidate)
        frontier = next_frontier

    return FrequentPathSet(
        paths=frequent,
        statistics=statistics,
        sup_threshold=sup_threshold,
        ratio_threshold=ratio_threshold,
        nodes_explored=explored,
        nodes_counted=counted,
    )
