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
  exact rationals like the accumulator's;
* :func:`_decode_v2` -- the version-2 wire decoder that decodes every
  column at once: the reference for the accumulator's own, which leaves
  ``position_sum`` and ``multiplicity_docs`` as columns until their
  first full read.  :func:`decoded_v2` wraps it into an accumulator.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from itertools import repeat
from sys import intern

from repro.schema.accumulator import PathAccumulator, _counter
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


def _decode_v2(state: tuple) -> tuple:
    (
        _,
        document_count,
        labels,
        parents,
        tails,
        frequency_keys,
        counts,
        position_keys,
        numerators,
        multiplicity_keys,
        single_values,
        single_counts,
        multi_at,
        multi_items,
    ) = state
    singles = [(intern(label),) for label in labels]
    rows: list[LabelPath] = [()]
    append = rows.append
    for parent, tail in zip(parents, tails):
        append(rows[parent] + singles[tail])
    table = rows[1:]

    def keys(column) -> list[LabelPath]:
        return table if column is None else list(map(rows.__getitem__, column))

    # One empty Counter per single-entry histogram, then each filled by a
    # C-level map over the value and count columns (deque(..., maxlen=0)
    # is the itertools "consume" recipe); the other histograms go back
    # to their places.
    histograms = list(map(Counter.__new__, repeat(Counter, len(single_values))))
    deque(map(dict.__setitem__, histograms, single_values, single_counts), 0)
    for index, items in zip(multi_at, multi_items):
        histograms.insert(index, _counter(items))
    return (
        document_count,
        _counter(zip(keys(frequency_keys), counts)),
        dict(zip(keys(position_keys), numerators)),
        dict(zip(keys(multiplicity_keys), histograms)),
    )


def decoded_v2(state: tuple) -> PathAccumulator:
    """An accumulator whose every statistic :func:`_decode_v2` decoded."""
    accumulator = PathAccumulator()
    (
        accumulator.document_count,
        accumulator.doc_frequency,
        accumulator.position_sum,
        accumulator.multiplicity_docs,
    ) = _decode_v2(state)
    return accumulator
