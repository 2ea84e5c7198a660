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
checkpoint frames carry, so it is built to be small and to decode
without per-path intermediates.  Decoding is split by what reads it.
The path table and ``doc_frequency``, which mining reads, are decoded
at once; ``position_sum`` and ``multiplicity_docs`` stay columns until
their first full read: ``copy``, ``==``, ``__getstate__`` or any direct
access.  Until then the state's own ``update`` adds into a per-path
overlay, ``avg_position`` and ``multiplicity_fraction`` read one path
from the columns plus the overlay, and merging the state into another
decodes its columns for that merge alone (an engine chunk or a delta
frame is merged once, then dropped).  So a cold fold, which derives its
DTD from the few paths of the majority schema, decodes none of the
snapshot's position or histogram columns unless it compacts.  Wire
version 2 is a tuple of columns::

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
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, lt, not_
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

# The statistics a decoded v2 state decodes on their first full read.
_VALUE_FIELDS = ("position_sum", "multiplicity_docs")

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
        in ``other``'s order.  A decoded state whose values are still
        columns adds ``other``'s values to its overlay instead."""
        self.document_count += other.document_count
        frequency = self.doc_frequency
        for path, count in other.doc_frequency.items():
            frequency[path] = frequency.get(path, 0) + count
        unread = other._columns
        if unread is not None and other is not self:
            # Decoded for this merge alone (an engine chunk or a delta frame
            # is read once), so its histograms are new and are not copied.
            positions, histograms = unread.decode()
            copy = False
        else:
            # Read before self._columns: when other is self, this reads self.
            positions, histograms = other.position_sum, other.multiplicity_docs
            copy = True
        columns = self._columns
        if columns is None:
            _add_values(
                self.position_sum, self.multiplicity_docs,
                positions, histograms, copy,
            )
        else:
            _add_values(
                columns.positions, columns.histograms, positions, histograms, copy
            )

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
            (
                self.document_count,
                self.doc_frequency,
                self._columns,
                self._roots,
            ) = _decode_v2(state)
            for name in _VALUE_FIELDS:
                self.__dict__.pop(name, None)
        elif version == 1:
            (
                self.document_count,
                self.doc_frequency,
                self.position_sum,
                self.multiplicity_docs,
            ) = _decode_v1(state)
            self.__dict__.pop("_columns", None)
            self.__dict__.pop("_roots", None)
        else:
            raise ValueError(
                f"unsupported PathAccumulator wire version: {version!r}"
            )

    # A decoded v2 state keeps position_sum and multiplicity_docs as wire
    # columns (_ValueColumns) until their first full read -- copy, ==,
    # __getstate__, any direct access -- which, the attributes being
    # absent, lands in __getattr__.
    _columns = None

    # A decoded v2 state's root paths, read off its path table, and the
    # number of doc_frequency keys it decoded: update appends new keys
    # after those, so root_labels scans only the appended ones.
    _roots = None

    def __getattr__(self, name: str):
        columns = self._columns
        if columns is None or name not in _VALUE_FIELDS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self.position_sum, self.multiplicity_docs = columns.decode()
        del self._columns
        return self.__dict__[name]

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
        """Labels observed at the root of some document, sorted.

        A decoded state reads its root paths from the path table and
        scans only the paths ``update`` added since; any other state
        scans every path."""
        decoded = self._roots
        if decoded is None:
            paths = self.doc_frequency
        else:
            roots, decoded_count = decoded
            paths = chain(roots, islice(self.doc_frequency, decoded_count, None))
        return sorted({path[0] for path in paths if len(path) == 1})

    # -- DTD-derivation statistics (Section 3.3) -----------------------------

    def avg_position(self, path: LabelPath) -> Fraction | float:
        """Average (over containing documents) of the per-document average
        child position, exactly; ``inf`` for never-observed paths so they
        sort last under the ordering rule."""
        from fractions import Fraction

        frequency = self.doc_frequency[path]
        if frequency == 0:
            return float("inf")
        columns = self._columns
        total = (
            self.position_sum.get(path, 0)
            if columns is None
            else columns.position(path)
        )
        return Fraction(total, frequency * POSITION_DENOMINATOR)

    def multiplicity_fraction(
        self, path: LabelPath, *, rep_threshold: int
    ) -> float:
        """``mult(e)``: fraction of path-containing documents realizing the
        path with at least ``rep_threshold`` same-label siblings."""
        containing = self.doc_frequency[path]
        if containing == 0:
            return 0.0
        columns = self._columns
        histogram = (
            self.multiplicity_docs.get(path, Counter())
            if columns is None
            else columns.histogram(path)
        )
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
# Labels are interned, which restores the one-string-object-per-label
# property extract_paths establishes, so merged accumulators in the parent
# process don't hold per-chunk duplicate label strings.


def _decode_v2(state: tuple) -> tuple:
    """``(document_count, doc_frequency, value columns, root paths)`` of
    a v2 state.

    The path table and ``doc_frequency`` -- what mining reads -- are
    decoded here; :meth:`_ValueColumns.decode` decodes the rest when it
    is first read in full or merged into another state.  The root paths
    are the table rows whose parent is row 0 that ``doc_frequency``
    holds, with its key count (see ``PathAccumulator._roots``)."""
    _, document_count, labels, parents, tails, frequency_keys, counts = state[:7]
    singles = [(intern(label),) for label in labels]
    rows: list[LabelPath] = [()]
    append = rows.append
    for parent, tail in zip(parents, tails):
        append(rows[parent] + singles[tail])
    frequency = _counter(zip(_keys(rows, frequency_keys), counts))
    roots = [
        path
        for path in compress(islice(rows, 1, None), map(not_, parents))
        if path in frequency
    ]
    return (
        document_count,
        frequency,
        _ValueColumns(rows, *state[7:]),
        (roots, len(frequency)),
    )


def _keys(rows: list[LabelPath], column) -> list[LabelPath]:
    """A dict's keys from its key column (``None``: the table in order)."""
    return rows[1:] if column is None else list(map(rows.__getitem__, column))


def _add_values(
    positions, histograms, more_positions, more_histograms, copy=True
) -> None:
    """Add position sums and multiplicity histograms into ``positions``
    and ``histograms``; a new key is appended in the order the added
    dicts hold it, with its histogram copied unless ``copy`` is false."""
    for path, value in more_positions.items():
        total = positions.get(path, 0) + value
        positions[path] = total if type(total) is int else _whole(total)
    for path, histogram in more_histograms.items():
        held = histograms.get(path)
        if held is None:
            histograms[path] = _counter(histogram) if copy else histogram
        else:
            for value, count in histogram.items():
                held[value] = held.get(value, 0) + count


class _ValueColumns:
    """``position_sum`` and ``multiplicity_docs`` of a decoded v2 state,
    still as wire columns, and the overlay of what ``update`` added since:
    one position sum and one histogram per path, dicts keyed by path, so a
    long-lived state stays bounded by its path count.

    :meth:`position` and :meth:`histogram` answer one path from the
    columns plus the overlay, through a path -> column-index map built on
    their first call.  :meth:`decode` builds both dicts and applies the
    overlay in its insertion order: the additions ``update`` would have
    made, re-associated, which for integer and ``Fraction`` sums gives
    the same values, key order and so the same wire bytes.
    """

    __slots__ = (
        "rows",
        "position_keys",
        "numerators",
        "multiplicity_keys",
        "single_values",
        "single_counts",
        "multi_at",
        "multi_items",
        "positions",
        "histograms",
        "_indexes",
    )

    def __init__(
        self,
        rows: list[LabelPath],
        position_keys,
        numerators,
        multiplicity_keys,
        single_values,
        single_counts,
        multi_at,
        multi_items,
    ) -> None:
        self.rows = rows
        self.position_keys = position_keys
        self.numerators = numerators
        self.multiplicity_keys = multiplicity_keys
        self.single_values = single_values
        self.single_counts = single_counts
        self.multi_at = multi_at
        self.multi_items = multi_items
        self.positions: dict[LabelPath, int | Fraction] = {}
        self.histograms: dict[LabelPath, Counter[int]] = {}
        self._indexes: dict[str | None, dict[LabelPath, int]] = {}

    def decode(self) -> tuple:
        """``(position_sum, multiplicity_docs)``, overlay applied."""
        # One empty Counter per single-entry histogram, then each filled by
        # a C-level map over the value and count columns (deque(...,
        # maxlen=0) is the itertools "consume" recipe); the other
        # histograms go back to their places.
        histograms = list(
            map(Counter.__new__, repeat(Counter, len(self.single_values)))
        )
        deque(
            map(dict.__setitem__, histograms, self.single_values, self.single_counts),
            0,
        )
        for index, items in zip(self.multi_at, self.multi_items):
            histograms.insert(index, _counter(items))
        position_sum = dict(zip(_keys(self.rows, self.position_keys), self.numerators))
        multiplicity_docs = dict(
            zip(_keys(self.rows, self.multiplicity_keys), histograms)
        )
        _add_values(position_sum, multiplicity_docs, self.positions, self.histograms)
        return position_sum, multiplicity_docs

    def _index(self, keys: str) -> dict[LabelPath, int]:
        """path -> index into the value column keyed by the key column
        named ``keys`` (one shared map for key columns that are the
        table)."""
        column = getattr(self, keys)
        cached = None if column is None else keys
        index = self._indexes.get(cached)
        if index is None:
            index = self._indexes[cached] = dict(
                zip(_keys(self.rows, column), count())
            )
        return index

    def position(self, path: LabelPath) -> int | Fraction:
        """``position_sum.get(path, 0)`` as materializing would leave it
        (equal in value; a whole sum may be a ``Fraction``)."""
        at = self._index("position_keys").get(path)
        total = 0 if at is None else self.numerators[at]
        return total + self.positions.get(path, 0)

    def histogram(self, path: LabelPath) -> Counter:
        """``multiplicity_docs.get(path, Counter())`` as materializing
        would leave it (a new ``Counter``)."""
        at = self._index("multiplicity_keys").get(path)
        histogram = Counter()
        if at is not None:
            # Histogram ``at`` is a multi-entry one, or the single-entry
            # one after the ``multi`` multi-entry ones before it.
            multi = bisect_left(self.multi_at, at)
            if multi < len(self.multi_at) and self.multi_at[multi] == at:
                dict.update(histogram, self.multi_items[multi])
            else:
                single = at - multi
                histogram[self.single_values[single]] = self.single_counts[single]
        for value, docs in self.histograms.get(path, {}).items():
            histogram[value] = histogram.get(value, 0) + docs
        return histogram


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
