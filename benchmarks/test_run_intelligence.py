"""Run-intelligence overhead: digest observation, merging, detection.

Not a paper experiment -- the engineering numbers that justify leaving
the quantile digests on by default: observing a latency must cost
microseconds (it runs eight times per document, once per stage plus the
end-to-end row), and a parent-side merge must be cheap enough to run
once per chunk.
"""

from __future__ import annotations

from repro.obs.quantiles import QuantileDigest


def synthetic_latencies(count: int) -> list[float]:
    # Deterministic latency-shaped values spanning the common decades.
    return [0.0001 * (i % 97 + 1) * (10 ** (i % 4)) for i in range(count)]


def test_digest_observe_throughput(benchmark):
    values = synthetic_latencies(10_000)

    def run():
        digest = QuantileDigest()
        digest.observe_many(values)
        return digest

    digest = benchmark(run)
    assert digest.count == len(values)
    assert digest.quantile(0.95) > 0


def test_digest_chunk_merge_throughput(benchmark):
    """One hundred chunk digests folded parent-side."""
    chunks = []
    values = synthetic_latencies(6_400)
    for start in range(0, len(values), 64):
        chunk = QuantileDigest()
        chunk.observe_many(values[start : start + 64])
        chunks.append(chunk)

    def run():
        merged = QuantileDigest()
        for chunk in chunks:
            merged.update(chunk)
        return merged

    merged = benchmark(run)
    serial = QuantileDigest()
    serial.observe_many(values)
    assert merged.counts == serial.counts
    assert merged.quantile(0.5) == serial.quantile(0.5)
