"""Incremental, mergeable label-path statistics.

:class:`PathAccumulator` captures everything Section 3 needs from a
corpus -- document frequencies (frequent-path mining), sibling
multiplicities (repetition rule), and average child positions (ordering
rule) -- as *sufficient statistics* that can be accumulated one document
at a time and merged across corpus partitions::

    merge(a, b) == merge(b, a)                      (commutative)
    merge(merge(a, b), c) == merge(a, merge(b, c))  (associative)
    merge(a, PathAccumulator()) == a                (identity)

Every statistic is exact, so these laws hold with ``==``: counts and
histograms are integers, and position sums add the per-document
numerators of :func:`~repro.schema.paths.extract_paths` (integers over
:data:`~repro.schema.paths.POSITION_DENOMINATOR`, a
:class:`~fractions.Fraction` only for a realization count above 16 that
does not divide the scaled position sum).  A sum that comes out whole is
kept as an ``int``.  The statistics, and so the derived DTD, depend only
on the corpus: not on document order, chunking, worker count or fold
split.

This is what lets :class:`repro.runtime.CorpusEngine` discover a schema
over a corpus without ever materializing every converted tree: workers
accumulate per-chunk statistics, the parent merges them, and mining /
DTD derivation run over the merged accumulator.

Multiplicities are kept as a per-path histogram (multiplicity value ->
number of documents) rather than a pre-thresholded count, so
``repThreshold`` stays a query-time parameter exactly as in the
list-of-documents code path.

The pickled form (``__getstate__``) is what engine chunk results and
checkpoint frames carry, and a cold fold decodes a whole snapshot, so
it is built to be small and to decode without per-path intermediates.
Wire version 2 is a tuple of columns::

    labels              every distinct label, once
    parents, tails      the path table, parent first: row r > 0 is
                        rows[parents[r-1]] + (labels[tails[r-1]],) and
                        row 0 is the empty path (one tuple per path)
    *_keys              each dict's keys as table rows, in dict order;
                        None when they are rows 1.. in order (as add and
                        update leave all three dicts)
    counts, numerators  doc_frequency and position_sum values
    single_values,      the histograms with exactly one entry (all but
    single_counts       a few), one value/count pair each
    multi_at,           every other histogram: its index among the
    multi_items         histograms, and its (value, count) pairs

Integer columns are arrays of the narrowest unsigned typecode; a column
holding anything else (a non-whole ``Fraction`` sum, or a hand-built
accumulator's float or negative count) stays a list, whose integers
pickle about as small.  A key whose parent is not an earlier key --
only hand-built accumulators have one -- adds its prefixes as rows of
their own.  Dict insertion order, missing keys,
``Counter`` histograms and interned labels round-trip.  Version 1 (one
packed label-index tuple per path, float position sums) still decodes,
with its sums rounded (see ``_decode_v1``).
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import itemgetter, lt
from sys import intern
from typing import TYPE_CHECKING

from repro.dom.node import Element
from repro.schema.paths import (
    POSITION_DENOMINATOR,
    DocumentPaths,
    LabelPath,
    extract_paths,
)

if TYPE_CHECKING:  # pragma: no cover
    from fractions import Fraction  # imported where used, as in paths.py

# Version tag of the compact pickled form (see __getstate__).
_WIRE_VERSION = 2

# A path's parent and its last label.
_prefix = itemgetter(slice(None, -1))
_tail = itemgetter(-1)

# Unsigned array typecodes from narrow to wide, with their exclusive bounds.
_TYPECODES = [(code, 1 << 8 * array(code).itemsize) for code in "BHIQ"]


def _counter(pairs) -> Counter:
    """A ``Counter`` filled through ``dict.update`` directly: for small
    histograms Counter's own constructor costs more than the copy it
    makes."""
    counter = Counter.__new__(Counter)
    dict.update(counter, pairs)
    return counter


def _column(values: list) -> array | list:
    """``values`` as an array of the narrowest unsigned typecode that holds
    them all; the list itself when one is not such an integer."""
    try:
        top = max(values, default=0)
        for code, bound in _TYPECODES:
            if top < bound:
                return array(code, values)
    except (TypeError, OverflowError):
        pass
    return values


def _whole(total):
    """A position sum that is not an ``int``, as the ``int`` it equals when
    it is a whole ``Fraction`` (so its wire column stays an array)."""
    if getattr(total, "denominator", 0) == 1:
        return total.numerator
    return total


def _parent_first(paths: list[LabelPath]) -> list[LabelPath]:
    """``paths`` with every missing prefix added, each prefix before the
    first path that extends it (only hand-built accumulators need it)."""
    ordered: dict[LabelPath, None] = {(): None}
    for path in paths:
        for end in range(1, len(path) + 1):
            ordered.setdefault(path[:end])
    return list(ordered)[1:]


@dataclass
class PathAccumulator:
    """Mergeable corpus-level statistics over root-emanating label paths.

    ``doc_frequency[p]``        -- documents whose path set contains ``p``
    ``position_sum[p]``         -- sum over those documents of the per-document
                                   average child position of ``p``'s tail,
                                   times ``POSITION_DENOMINATOR``
    ``multiplicity_docs[p][k]`` -- documents realizing ``p`` with a maximum
                                   same-label sibling multiplicity of ``k``
    """

    document_count: int = 0
    doc_frequency: Counter[LabelPath] = field(default_factory=Counter)
    position_sum: dict[LabelPath, int | Fraction] = field(default_factory=dict)
    multiplicity_docs: dict[LabelPath, Counter[int]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_documents(cls, documents: list[DocumentPaths]) -> "PathAccumulator":
        """Single-pass accumulation of a corpus of path sets."""
        accumulator = cls()
        for doc in documents:
            accumulator.add(doc)
        return accumulator

    @classmethod
    def from_trees(cls, roots: list[Element]) -> "PathAccumulator":
        """Accumulate converted XML trees directly."""
        accumulator = cls()
        for root in roots:
            accumulator.add_tree(root)
        return accumulator

    def add(self, doc: DocumentPaths) -> None:
        """Fold one document's path set into the statistics.

        Paths are taken in the order ``extract_paths`` meets them (the
        insertion order of ``position_numerator``), not in set order: set
        order follows string hashing, and the key order reaches the
        checkpoint bytes.  A path missing from ``position_numerator`` (a
        hand-built document) comes after those, sorted."""
        self.document_count += 1
        paths = doc.paths
        numerators = doc.position_numerator
        ordered = [path for path in numerators if path in paths]
        if len(ordered) < len(paths):
            ordered.extend(sorted(paths.difference(numerators)))
        frequency = self.doc_frequency
        positions = self.position_sum
        for path in ordered:
            frequency[path] = frequency.get(path, 0) + 1
            total = positions.get(path, 0) + numerators.get(path, 0)
            positions[path] = total if type(total) is int else _whole(total)
            histogram = self.multiplicity_docs.get(path)
            if histogram is None:
                histogram = self.multiplicity_docs[path] = Counter()
            histogram[doc.multiplicity.get(path, 1)] += 1

    def add_tree(self, root: Element) -> None:
        """Extract one tree's paths and fold them in."""
        self.add(extract_paths(root))

    # -- merging -------------------------------------------------------------

    def update(self, other: "PathAccumulator") -> None:
        """In-place merge of another accumulator (the engine's hot path).

        Plain get-and-add loops: ``Counter.update`` costs more per call
        than these small histograms cost to add.  New keys are appended
        in ``other``'s order."""
        self.document_count += other.document_count
        frequency = self.doc_frequency
        for path, count in other.doc_frequency.items():
            frequency[path] = frequency.get(path, 0) + count
        positions = self.position_sum
        for path, value in other.position_sum.items():
            total = positions.get(path, 0) + value
            positions[path] = total if type(total) is int else _whole(total)
        multiplicities = self.multiplicity_docs
        for path, histogram in other.multiplicity_docs.items():
            held = multiplicities.get(path)
            if held is None:
                multiplicities[path] = _counter(histogram)
            else:
                for value, count in histogram.items():
                    held[value] = held.get(value, 0) + count

    def merge(self, other: "PathAccumulator") -> "PathAccumulator":
        """Pure merge: a new accumulator, neither operand mutated."""
        merged = self.copy()
        merged.update(other)
        return merged

    def copy(self) -> "PathAccumulator":
        """An independent deep-enough copy (histograms are duplicated)."""
        return PathAccumulator(
            document_count=self.document_count,
            doc_frequency=Counter(self.doc_frequency),
            position_sum=dict(self.position_sum),
            multiplicity_docs={
                path: Counter(histogram)
                for path, histogram in self.multiplicity_docs.items()
            },
        )

    # -- wire form (version 2; the module docstring has the layout) ----------

    def __getstate__(self) -> tuple:
        key_lists = [
            list(self.doc_frequency),
            list(self.position_sum),
            list(self.multiplicity_docs),
        ]
        table = key_lists[0]
        if not key_lists[0] == key_lists[1] == key_lists[2]:
            table = list(dict.fromkeys(chain.from_iterable(key_lists)))
        # The keys are the path table as they stand when each key's parent
        # is an earlier key (always, after add and update); otherwise
        # _parent_first adds the missing prefixes.
        rows = {(): 0}
        rows.update(zip(table, count(1)))
        parents = list(map(rows.get, map(_prefix, table)))
        if (
            rows[()] != 0
            or None in parents
            or not all(map(lt, parents, count(1)))
        ):
            table = _parent_first(table)
            rows = {(): 0}
            rows.update(zip(table, count(1)))
            parents = list(map(rows.__getitem__, map(_prefix, table)))
        tail_labels = list(map(_tail, table))
        label_ids = {
            label: index for index, label in enumerate(dict.fromkeys(tail_labels))
        }

        def key_column(keys: list[LabelPath]) -> array | list | None:
            if keys == table:
                return None
            return _column(list(map(rows.__getitem__, keys)))

        histograms = list(self.multiplicity_docs.values())
        multi_at = [
            index
            for index, histogram in enumerate(histograms)
            if len(histogram) != 1
        ]
        singles = (
            [histogram for histogram in histograms if len(histogram) == 1]
            if multi_at
            else histograms
        )
        return (
            _WIRE_VERSION,
            self.document_count,
            list(label_ids),
            _column(parents),
            _column(list(map(label_ids.__getitem__, tail_labels))),
            key_column(key_lists[0]),
            _column(list(self.doc_frequency.values())),
            key_column(key_lists[1]),
            _column(list(self.position_sum.values())),
            key_column(key_lists[2]),
            _column([value for histogram in singles for value in histogram]),
            _column(
                [docs for histogram in singles for docs in histogram.values()]
            ),
            _column(multi_at),
            [tuple(histograms[index].items()) for index in multi_at],
        )

    def __setstate__(self, state) -> None:
        version = state[0] if isinstance(state, tuple) and state else None
        if version == _WIRE_VERSION:
            decoded = _decode_v2(state)
        elif version == 1:
            decoded = _decode_v1(state)
        else:
            raise ValueError(
                f"unsupported PathAccumulator wire version: {version!r}"
            )
        (
            self.document_count,
            self.doc_frequency,
            self.position_sum,
            self.multiplicity_docs,
        ) = decoded

    # -- mining statistics (Section 3.2) -------------------------------------

    def support(self, path: LabelPath) -> float:
        """``freq(p, S) / |D|`` in ``[0, 1]``."""
        if self.document_count == 0:
            return 0.0
        return self.doc_frequency.get(path, 0) / self.document_count

    def support_ratio(self, path: LabelPath) -> float:
        """``support(p) / support(parent(p))``; 1.0 for the root path."""
        if len(path) <= 1:
            return 1.0
        parent_frequency = self.doc_frequency[path[:-1]]
        if parent_frequency == 0:
            return 0.0
        return self.doc_frequency[path] / parent_frequency

    def observed_labels(self) -> set[str]:
        """All labels occurring anywhere in the corpus paths."""
        labels: set[str] = set()
        for path in self.doc_frequency:
            labels.update(path)
        return labels

    def root_labels(self) -> list[str]:
        """Labels observed at the root of some document, sorted."""
        return sorted({path[0] for path in self.doc_frequency if len(path) == 1})

    # -- DTD-derivation statistics (Section 3.3) -----------------------------

    def avg_position(self, path: LabelPath) -> Fraction | float:
        """Average (over containing documents) of the per-document average
        child position, exactly; ``inf`` for never-observed paths so they
        sort last under the ordering rule."""
        from fractions import Fraction

        frequency = self.doc_frequency[path]
        if frequency == 0:
            return float("inf")
        return Fraction(
            self.position_sum.get(path, 0), frequency * POSITION_DENOMINATOR
        )

    def multiplicity_fraction(
        self, path: LabelPath, *, rep_threshold: int
    ) -> float:
        """``mult(e)``: fraction of path-containing documents realizing the
        path with at least ``rep_threshold`` same-label siblings."""
        containing = self.doc_frequency[path]
        if containing == 0:
            return 0.0
        histogram = self.multiplicity_docs.get(path, Counter())
        repetitive = sum(
            count for value, count in histogram.items() if value >= rep_threshold
        )
        return repetitive / containing

    def presence_fraction(self, path: LabelPath) -> float:
        """Fraction of parent-containing documents that contain ``path``."""
        if len(path) <= 1:
            parent_frequency = self.document_count
        else:
            parent_frequency = self.doc_frequency[path[:-1]]
        if parent_frequency == 0:
            return 0.0
        return self.doc_frequency[path] / parent_frequency


# -- wire-form decoders -------------------------------------------------------
#
# Each returns (document_count, doc_frequency, position_sum,
# multiplicity_docs).  Labels are interned, which restores the
# one-string-object-per-label property extract_paths establishes, so
# merged accumulators in the parent process don't hold per-chunk
# duplicate label strings.


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


def _decode_v1(state: tuple) -> tuple:
    """Version 1: one packed label-index tuple per path, each dict with its
    own key list (one shared list when equal), float position sums.  A
    float sum of averages is rounded to the nearest integer numerator over
    POSITION_DENOMINATOR.  That is the exact sum only when every
    contributing average was a whole numerator (realization counts that
    divide POSITION_DENOMINATOR) and the float error stays below half a
    step; otherwise it is an approximation, and a state folded on from it
    is not ``==`` to its corpus accumulated afresh.  A state that must be
    exact is refolded from its corpus."""
    (
        _,
        document_count,
        raw_labels,
        frequency_paths,
        frequency_counts,
        position_paths,
        position_values,
        multiplicity_paths,
        multiplicity_histograms,
    ) = state
    label_at = list(map(intern, raw_labels)).__getitem__

    def decode(packed_paths: list[tuple[int, ...]]) -> list[LabelPath]:
        return [tuple(map(label_at, packed)) for packed in packed_paths]

    frequency_keys = decode(frequency_paths)
    position_keys = (
        frequency_keys
        if position_paths == frequency_paths
        else decode(position_paths)
    )
    multiplicity_keys = (
        frequency_keys
        if multiplicity_paths == frequency_paths
        else decode(multiplicity_paths)
    )
    numerators = [
        round(value * POSITION_DENOMINATOR) for value in position_values
    ]
    return (
        document_count,
        _counter(zip(frequency_keys, frequency_counts)),
        dict(zip(position_keys, numerators)),
        dict(zip(multiplicity_keys, map(_counter, multiplicity_histograms))),
    )
