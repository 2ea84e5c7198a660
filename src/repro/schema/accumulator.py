"""Incremental, mergeable label-path statistics.

:class:`PathAccumulator` captures everything Section 3 needs from a
corpus -- document frequencies (frequent-path mining), sibling
multiplicities (repetition rule), and average child positions (ordering
rule) -- as *sufficient statistics* that can be accumulated one document
at a time and merged across corpus partitions::

    merge(a, b) == merge(b, a)                      (commutative)
    merge(merge(a, b), c) == merge(a, merge(b, c))  (associative)
    merge(a, PathAccumulator()) == a                (identity)

(Position sums are floating point, so associativity holds up to the
usual rounding of re-associated additions; all counters are exact.)

This is what lets :class:`repro.runtime.CorpusEngine` discover a schema
over a corpus without ever materializing every converted tree: workers
accumulate per-chunk statistics, the parent merges them, and mining /
DTD derivation run over the merged accumulator.

Multiplicities are kept as a per-path histogram (multiplicity value ->
number of documents) rather than a pre-thresholded count, so
``repThreshold`` stays a query-time parameter exactly as in the
list-of-documents code path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from sys import intern

from repro.dom.node import Element
from repro.schema.paths import DocumentPaths, LabelPath, extract_paths

# Version tag of the compact pickled form (see __getstate__).
_WIRE_VERSION = 1


def _counter(pairs) -> Counter:
    """A ``Counter`` filled through ``dict.update`` directly: for small
    histograms Counter's own constructor costs more than the copy it
    makes."""
    counter = Counter.__new__(Counter)
    dict.update(counter, pairs)
    return counter


@dataclass
class PathAccumulator:
    """Mergeable corpus-level statistics over root-emanating label paths.

    ``doc_frequency[p]``        -- documents whose path set contains ``p``
    ``position_sum[p]``         -- sum over those documents of the per-document
                                   average child position of ``p``'s tail
    ``multiplicity_docs[p][k]`` -- documents realizing ``p`` with a maximum
                                   same-label sibling multiplicity of ``k``
    """

    document_count: int = 0
    doc_frequency: Counter[LabelPath] = field(default_factory=Counter)
    position_sum: dict[LabelPath, float] = field(default_factory=dict)
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
        insertion order of ``avg_position``), not in set order: set order
        follows string hashing, and the key order reaches the checkpoint
        bytes.  A path missing from ``avg_position`` (a hand-built
        document) comes after those, sorted."""
        self.document_count += 1
        paths = doc.paths
        ordered = [path for path in doc.avg_position if path in paths]
        if len(ordered) < len(paths):
            ordered.extend(sorted(paths.difference(doc.avg_position)))
        frequency = self.doc_frequency
        for path in ordered:
            frequency[path] = frequency.get(path, 0) + 1
            position = doc.avg_position.get(path, 0.0)
            self.position_sum[path] = self.position_sum.get(path, 0.0) + position
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
            positions[path] = positions.get(path, 0.0) + value
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

    # -- wire form -----------------------------------------------------------
    #
    # Chunk results cross the engine's process boundary as pickles, and
    # the accumulator dominates their size: every statistic is keyed by a
    # label-path tuple whose labels repeat across thousands of paths.
    # The wire form writes each distinct label once, encodes paths as
    # tuples of small integer indices, and stores each dict as a pair of
    # parallel lists (keys, values) -- cheaper on the wire than per-entry
    # pair tuples or pickled Counter objects.  Dict insertion order is
    # preserved exactly (the encoder walks each dict in order and the
    # decoder rebuilds in the same order) and each dict has its own key
    # list, so a path present in one but absent from another round-trips
    # as exactly that -- missing stays missing, 0.0 stays 0.0.  When the
    # dicts hold the same keys in the same order (as add and update
    # leave them) the three slots hold one list object, which pickle
    # writes once.

    def __getstate__(self) -> tuple:
        label_index: dict[str, int] = {}
        labels: list[str] = []
        packed_paths: dict[LabelPath, tuple[int, ...]] = {}

        def pack(path: LabelPath) -> tuple[int, ...]:
            packed = packed_paths.get(path)
            if packed is None:
                indices = []
                for label in path:
                    index = label_index.get(label)
                    if index is None:
                        index = label_index[label] = len(labels)
                        labels.append(label)
                    indices.append(index)
                packed = packed_paths[path] = tuple(indices)
            return packed

        frequency_paths = list(self.doc_frequency)
        packed_frequency_paths = [pack(path) for path in frequency_paths]

        def pack_keys(mapping: dict) -> list[tuple[int, ...]]:
            paths = list(mapping)
            if paths == frequency_paths:
                return packed_frequency_paths
            return [pack(path) for path in paths]

        return (
            _WIRE_VERSION,
            self.document_count,
            labels,
            packed_frequency_paths,
            list(self.doc_frequency.values()),
            pack_keys(self.position_sum),
            list(self.position_sum.values()),
            pack_keys(self.multiplicity_docs),
            [
                tuple(histogram.items())
                for histogram in self.multiplicity_docs.values()
            ],
        )

    def __setstate__(self, state) -> None:
        version = state[0] if isinstance(state, tuple) and state else None
        if version != _WIRE_VERSION:
            raise ValueError(
                f"unsupported PathAccumulator wire version: {version!r}"
            )
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
        # Interning restores the one-string-object-per-label property
        # extract_paths establishes, so merged accumulators in the parent
        # process don't hold per-chunk duplicate label strings.
        label_at = list(map(intern, raw_labels)).__getitem__

        def decode(packed_paths: list[tuple[int, ...]]) -> list[LabelPath]:
            return [tuple(map(label_at, packed)) for packed in packed_paths]

        # Accumulators built by add/update hold the same keys in the same
        # order in all three dicts, so one decoded key list serves them
        # all (and the dicts share their path tuples, as before pickling).
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
        doc_frequency = _counter(zip(frequency_keys, frequency_counts))
        histograms = list(map(_counter, multiplicity_histograms))

        self.document_count = document_count
        self.doc_frequency = doc_frequency
        self.position_sum = dict(zip(position_keys, position_values))
        self.multiplicity_docs = dict(zip(multiplicity_keys, histograms))

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

    def avg_position(self, path: LabelPath) -> float:
        """Average (over containing documents) of the per-document average
        child position; ``inf`` for never-observed paths so they sort
        last under the ordering rule."""
        frequency = self.doc_frequency[path]
        if frequency == 0:
            return float("inf")
        return self.position_sum.get(path, 0.0) / frequency

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
