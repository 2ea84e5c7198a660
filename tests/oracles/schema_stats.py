"""List-of-documents oracles for the Section 3 statistics.

Schema discovery reads one statistics type,
:class:`~repro.schema.accumulator.PathAccumulator`.  The functions here
are the list-based implementations it replaced, kept unchanged: each
answers a statistic by walking the per-document path sets directly, so
the accumulator's single-pass, mergeable bookkeeping can be checked
against them with ``==``.

* :func:`support` -- document frequency over ``|D|`` (Section 3.2);
* :func:`multiplicity_fraction` -- ``mult(e)``, the repetition rule's
  fraction (Section 3.3);
* :func:`presence_fraction` -- the optional-element fraction;
* :func:`average_child_positions` -- the ordering rule's averages, as
  exact rationals like the accumulator's.
"""

from __future__ import annotations

from fractions import Fraction

from repro.schema.paths import POSITION_DENOMINATOR, DocumentPaths, LabelPath


def support(documents: list[DocumentPaths], path: LabelPath) -> float:
    """``freq(p, S) / |D|`` in ``[0, 1]``."""
    if not documents:
        return 0.0
    return sum(1 for doc in documents if doc.contains(path)) / len(documents)


def rep(document: DocumentPaths, path: LabelPath, rep_threshold: int) -> int:
    """``rep(T_D, p)``: 1 when the document realizes ``path`` with at
    least ``rep_threshold`` same-label siblings, else 0."""
    return 1 if document.multiplicity.get(path, 0) >= rep_threshold else 0


def multiplicity_fraction(
    documents: list[DocumentPaths],
    path: LabelPath,
    *,
    rep_threshold: int = 3,
) -> float:
    """``mult(e)``: the fraction of path-containing documents in which
    the path's tail is repetitive."""
    containing = [doc for doc in documents if doc.contains(path)]
    if not containing:
        return 0.0
    repetitive = sum(rep(doc, path, rep_threshold) for doc in containing)
    return repetitive / len(containing)


def presence_fraction(documents: list[DocumentPaths], path: LabelPath) -> float:
    """Fraction of documents containing the parent that contain ``path``."""
    if len(path) <= 1:
        containing_parent = documents
    else:
        parent = path[:-1]
        containing_parent = [doc for doc in documents if doc.contains(parent)]
    if not containing_parent:
        return 0.0
    containing = sum(1 for doc in containing_parent if doc.contains(path))
    return containing / len(containing_parent)


def average_child_positions(
    documents: list[DocumentPaths], parent_path: LabelPath, child_labels: list[str]
) -> dict[str, Fraction | float]:
    """Average (over documents containing the child path) of the average
    child position of each ``child_label`` under ``parent_path``, as an
    exact rational.

    Children never observed in any document default to position ``inf``
    so they sort last.
    """
    sums: dict[str, Fraction] = {label: Fraction(0) for label in child_labels}
    counts: dict[str, int] = {label: 0 for label in child_labels}
    for doc in documents:
        numerators = doc.position_numerator
        for label in child_labels:
            numerator = numerators.get(parent_path + (label,))
            if numerator is not None:
                sums[label] += Fraction(numerator, POSITION_DENOMINATOR)
                counts[label] += 1
    return {
        label: (sums[label] / counts[label]) if counts[label] else float("inf")
        for label in child_labels
    }
