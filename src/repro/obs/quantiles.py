"""Mergeable streaming quantile digests over one fixed log-bucket layout.

:class:`QuantileDigest` answers "what were p50/p95/p99 of this latency"
without retaining observations: values land in the one *global* layout
of log-spaced buckets (:data:`EDGES`), so any two digests merge by
adding sparse bucket counts.  It is the only latency/size structure in
the package: the metrics registry's histograms hold one each.  Like
:class:`repro.schema.accumulator.PathAccumulator`, merging is a
commutative monoid::

    merge(a, b) == merge(b, a)                      (commutative)
    merge(merge(a, b), c) == merge(a, merge(b, c))  (associative)
    merge(a, QuantileDigest()) == a                 (identity)

Bucket counts and extrema are exact integers/comparisons, so the laws
hold exactly for everything :meth:`quantile` reads; only ``total`` (the
running sum) is a float whose re-associated additions round in the usual
IEEE way.  That is what lets the engine ship one digest per stage in
each chunk's registry (:class:`~repro.runtime.stats.ChunkStats`) and
merge parent-side (:meth:`~repro.obs.metrics.MetricsRegistry.update`):
the merged digest's quantiles are *identical* to a serial run's digest
over the same per-document values, regardless of chunking or worker
count.

**Layout.**  :data:`EDGES` holds the 191 finite bucket edges
``1e-6 * 10 ** (k / 16)`` for ``k = 1..191`` (about 1.15 us to 8.7e5).
Bucket ``i`` holds ``(EDGES[i-1], EDGES[i]]``: a value equal to an edge
lands in that edge's bucket, the Prometheus ``le`` convention, so the
registry's exposition can publish the edges as ``le`` bounds.  Bucket 0
also holds zero (sub-resolution timer readings) and anything smaller;
bucket 191 holds everything above the top edge.  Both stay honest
through the exact min/max.

**Resolution.**  Adjacent edges differ by ``10 ** (1/16)`` (~15.5%);
quantiles interpolate in log space inside one bucket and are clamped to
the observed min/max.  The estimate always lands in the same bucket as
the true order statistic, so it is within one bucket width (~16%) of it
in the worst case -- typically about half that, since interpolation
centers mid-bucket.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

# The one bucket layout: every digest in the process (and every digest
# crossing the process boundary or loaded from a file) uses it, which is
# what makes merge compatibility a non-event.  EDGES[i] is the inclusive
# upper bound of bucket i; index len(EDGES) is the overflow bucket.
EDGES: tuple[float, ...] = tuple(10.0 ** (k / 16 - 6) for k in range(1, 192))
BUCKET_COUNT = len(EDGES) + 1
_STEP = 10.0 ** (1.0 / 16)

# Quantiles every report/ledger surface renders.
REPORT_QUANTILES = (0.5, 0.95, 0.99)


def bucket_index(value: float) -> int:
    """The bucket a value falls into (``le`` semantics, clamped)."""
    return bisect_left(EDGES, value)


def bucket_bounds(index: int) -> tuple[float, float]:
    """``(low, high]`` value bounds of one bucket (bucket 0's low bound
    is 0; the overflow bucket's high bound is one step past the top
    edge, since interpolation needs a finite one)."""
    low = 0.0 if index == 0 else EDGES[index - 1]
    high = EDGES[index] if index < len(EDGES) else EDGES[-1] * _STEP
    return (low, high)


class QuantileDigest:
    """A sparse, mergeable log-bucket latency digest."""

    __slots__ = ("counts", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        # Sparse: bucket index -> observation count.  Most stages hit a
        # handful of adjacent buckets, so the wire form stays tiny.
        self.counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = 0.0
        self.max_value = 0.0

    @property
    def relative_error(self) -> float:
        """Documented worst-case relative quantile error (one bucket).

        :meth:`quantile` returns a value inside the bucket holding the
        true order statistic, so the two differ by at most the bucket's
        high/low ratio -- a full bucket width, reached when rank
        interpolation sits at one bucket edge while the true value sits
        at the other.  The typical error is about half this.
        """
        return _STEP - 1.0

    # -- observation ----------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            value = 0.0
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + 1
        if self.count == 0:
            self.min_value = value
            self.max_value = value
        else:
            if value < self.min_value:
                self.min_value = value
            if value > self.max_value:
                self.max_value = value
        self.count += 1
        self.total += value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # -- monoid ---------------------------------------------------------------

    def update(self, other: "QuantileDigest") -> None:
        """In-place merge (the engine's parent-side hot path)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.min_value = other.min_value
            self.max_value = other.max_value
        else:
            if other.min_value < self.min_value:
                self.min_value = other.min_value
            if other.max_value > self.max_value:
                self.max_value = other.max_value
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Pure merge: a new digest, neither operand mutated."""
        merged = self.copy()
        merged.update(other)
        return merged

    def copy(self) -> "QuantileDigest":
        clone = QuantileDigest()
        clone.counts = dict(self.counts)
        clone.count = self.count
        clone.total = self.total
        clone.min_value = self.min_value
        clone.max_value = self.max_value
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileDigest):
            return NotImplemented
        return (
            self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.min_value == other.min_value
            and self.max_value == other.max_value
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantileDigest(count={self.count}, "
            f"p50={self.quantile(0.5):.6f}, p95={self.quantile(0.95):.6f})"
        )

    # -- quantiles ------------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of the observed values.

        Reads only bucket counts and the exact min/max, so serial and
        merged digests over the same observations answer identically.
        Returns 0.0 for an empty digest.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min_value
        if q >= 1.0:
            return self.max_value
        rank = q * (self.count - 1)
        cumulative = 0
        for index in sorted(self.counts):
            bucket = self.counts[index]
            if rank < cumulative + bucket:
                low, high = bucket_bounds(index)
                fraction = (rank - cumulative + 0.5) / bucket
                fraction = min(1.0, max(0.0, fraction))
                if low <= 0.0:
                    value = high * fraction
                else:
                    value = low * (high / low) ** fraction
                return min(self.max_value, max(self.min_value, value))
            cumulative += bucket
        return self.max_value

    def quantiles(self, qs: Iterable[float] = REPORT_QUANTILES) -> list[float]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """The JSON-ready quantile summary the run ledger persists."""
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": round(self.min_value, 9),
            "max": round(self.max_value, 9),
            "p50": round(self.quantile(0.5), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }

    # -- serialization --------------------------------------------------------
    #
    # JSON carries no layout: there is only one.  Sparse counts travel
    # as parallel (indices, counts) lists.  Pickle (a digest inside a
    # chunk's registry crossing the process boundary) uses the default
    # __slots__ state.

    def to_json(self) -> dict:
        indices = sorted(self.counts)
        return {
            "indices": indices,
            "counts": [self.counts[index] for index in indices],
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "QuantileDigest":
        """Rebuild a digest saved by :meth:`to_json`.

        The data may come from a file outside the program, so a digest
        no :meth:`observe` sequence could produce is a ``ValueError``:
        an index outside the layout, a repeated index, a negative
        count, index/count lists of different lengths, or a ``count``
        that is not the sum of the bucket counts, or one that is not an
        object of index and count lists.
        """
        try:
            indices = [int(index) for index in data.get("indices", [])]
            counts = [int(count) for count in data.get("counts", [])]
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"digest is not an object of index and count lists: {exc}") from None
        if len(indices) != len(counts):
            raise ValueError(
                f"digest has {len(indices)} bucket indices but {len(counts)} counts"
            )
        for index in indices:
            if not 0 <= index < BUCKET_COUNT:
                raise ValueError(
                    f"digest bucket index {index} outside [0, {BUCKET_COUNT - 1}]"
                )
        if len(set(indices)) != len(indices):
            raise ValueError("digest repeats a bucket index")
        if any(count < 0 for count in counts):
            raise ValueError("digest has a negative bucket count")
        digest = cls()
        digest.counts = dict(zip(indices, counts))
        digest.count = int(data.get("count", 0))
        if digest.count != sum(counts):
            raise ValueError(
                f"digest count {digest.count} is not the sum of its "
                f"bucket counts ({sum(counts)})"
            )
        digest.total = float(data.get("total", 0.0))
        digest.min_value = float(data.get("min", 0.0))
        digest.max_value = float(data.get("max", 0.0))
        return digest

