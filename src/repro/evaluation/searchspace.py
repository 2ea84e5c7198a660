"""Concept-constraint search-space accounting (Section 4.2).

The paper's arithmetic, reproduced exactly:

* Exhaustive enumeration of label paths "up to length 4" over 24 concept
  names explores ``24^5 - 1 = 7,962,623`` nodes.
* With the constraints (11 title names only at depth 1, 13 content names
  only below, no repetition along a path, nothing deeper than depth 4
  counting the root as depth 1) the space shrinks to
  ``1 + 11 + 11*13 + 11*13*12 = 1,871`` nodes (0.023%).
* "Without extending nodes with zero support, the actual number of nodes
  explored is 73" -- data dependent; we report the analogous number for
  the synthetic corpus.

Note on depth conventions: the paper counts the root as depth 1, so
"depth greater than 4" allows three constrained levels below the root;
:func:`paper_constraints` therefore sets ``max_depth = 3`` in our
root-exclusive convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.concepts.concept import ConceptRole
from repro.concepts.constraints import ConstraintSet
from repro.concepts.knowledge import KnowledgeBase
from repro.schema.frequent import mine_frequent_paths
from repro.schema.paths import DocumentPaths


def paper_exhaustive_count(num_concepts: int = 24, path_length: int = 4) -> int:
    """The paper's exhaustive search-space formula: ``n^(L+1) - 1``."""
    return num_concepts ** (path_length + 1) - 1


def paper_constraints(kb: KnowledgeBase) -> ConstraintSet:
    """The Section 4.2 constraint classes, built from the KB's roles."""
    constraints = ConstraintSet(no_repeat_on_path=True, max_depth=3)
    for concept in kb:
        if concept.role is ConceptRole.TITLE:
            constraints.add_depth(concept.tag, "=", 1)
        else:
            constraints.add_depth(concept.tag, ">", 1)
    return constraints


def count_constrained_paths(
    kb: KnowledgeBase, constraints: ConstraintSet | None = None
) -> int:
    """Number of constraint-admissible label paths (the root included).

    Depth-first enumeration over concept tags; each admissible path is
    one node of the search-space tree, admitted by the same incremental
    check the miner runs.  With the paper's constraints and the
    24-concept resume KB this is exactly 1,871.
    """
    constraints = constraints if constraints is not None else paper_constraints(kb)
    tags = sorted(kb.concept_tags())
    count = 1  # the root node

    def extend(path: tuple[str, ...]) -> None:
        nonlocal count
        for tag in constraints.extensions(path, tags):
            count += 1
            extend(path + (tag,))

    extend(())
    return count


@dataclass
class SearchSpaceReport:
    """The three Section 4.2 numbers, plus context."""

    exhaustive_nodes: int
    constrained_nodes: int
    explored_nodes: int
    positive_support_nodes: int
    frequent_paths: int

    @property
    def constrained_fraction(self) -> float:
        """Paper: 0.023%."""
        return 100.0 * self.constrained_nodes / self.exhaustive_nodes

    @property
    def explored_fraction(self) -> float:
        """Paper: 0.0009%."""
        return 100.0 * self.positive_support_nodes / self.exhaustive_nodes


def run_search_space_experiment(
    kb: KnowledgeBase,
    documents: list[DocumentPaths],
) -> SearchSpaceReport:
    """Reproduce the Section 4.2 accounting on a converted corpus.

    ``explored_nodes`` counts candidates generated when only prefixes
    meeting the support threshold (0.4) are extended (the miner's real work);
    ``positive_support_nodes`` counts those that actually occur in the
    data -- the analog of the paper's 73.
    """
    constraints = paper_constraints(kb)
    result = mine_frequent_paths(
        documents,
        sup_threshold=0.4,
        constraints=constraints,
        candidate_labels=kb.concept_tags(),
    )
    return SearchSpaceReport(
        exhaustive_nodes=paper_exhaustive_count(len(kb)),
        constrained_nodes=count_constrained_paths(kb, constraints),
        explored_nodes=result.nodes_explored,
        positive_support_nodes=result.nodes_counted,
        frequent_paths=len(result.paths),
    )
