"""Tagging throughput: naive synonym matcher vs the Aho-Corasick fast path.

Not a paper experiment -- the engineering number behind the PR-4 fast
tagger: tokens/sec of :class:`SynonymMatcher` (one compiled regex scan
per instance, 233 instances in the resume KB) vs
:class:`FastSynonymMatcher` (one automaton pass + LRU replay for
repeated tokens) over the token stream of a generated corpus.  The
measured numbers and the cache hit rate are printed; the 3x gate below
is the record.
"""

from __future__ import annotations

import time

import pytest

from repro.concepts.fastmatch import FastSynonymMatcher
from repro.concepts.matcher import SynonymMatcher
from repro.corpus.generator import ResumeCorpusGenerator
from repro.dom.node import Element, Text
from repro.evaluation.report import format_table
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tidy import tidy

CORPUS_SIZE = 80
ROUNDS = 3


def text_tokens(html: str) -> list[str]:
    """The stripped text leaves of a tidied document, in document order.

    This is the same token stream the instance rule walks, so the
    benchmark exercises the matcher exactly as the pipeline does.
    """
    tokens: list[str] = []

    def walk(node) -> None:
        if isinstance(node, Text):
            stripped = node.text.strip()
            if stripped:
                tokens.append(stripped)
        elif isinstance(node, Element):
            for child in node.children:
                walk(child)

    walk(tidy(parse_html(html)))
    return tokens


@pytest.fixture(scope="module")
def token_stream():
    corpus = ResumeCorpusGenerator(seed=1966).generate_html(CORPUS_SIZE)
    tokens = [token for html in corpus for token in text_tokens(html)]
    assert len(tokens) > 1000
    return tokens


def best_pass_seconds(find_all, tokens: list[str]) -> float:
    """Best of ``ROUNDS`` full passes over the token stream."""
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for token in tokens:
            find_all(token)
        best = min(best, time.perf_counter() - started)
    return best


def test_tagging_throughput(benchmark, kb, token_stream, capsys):
    naive = SynonymMatcher(kb)
    fast = FastSynonymMatcher(kb)

    # Equivalence re-checked at benchmark scale before timing anything.
    for token in token_stream[:200]:
        assert fast.find_all(token) == naive.find_all(token)
    fast.cache.clear()

    naive_seconds = best_pass_seconds(naive.find_all, token_stream)

    def fast_pass():
        for token in token_stream:
            fast.find_all(token)

    benchmark.pedantic(fast_pass, rounds=1, iterations=1, warmup_rounds=1)
    fast_seconds = best_pass_seconds(fast.find_all, token_stream)

    count = len(token_stream)
    naive_tps = count / naive_seconds
    fast_tps = count / fast_seconds
    speedup = naive_seconds / fast_seconds
    counters = fast.cache.counters()
    lookups = counters["hits"] + counters["misses"]
    hit_rate = counters["hits"] / lookups if lookups else 0.0

    with capsys.disabled():
        print()
        print(
            format_table(
                ["matcher", "tokens/sec", "speedup"],
                [
                    ["naive (per-instance regex)", f"{naive_tps:,.0f}", "1.0x"],
                    ["fast (automaton + LRU)", f"{fast_tps:,.0f}",
                     f"{speedup:.1f}x"],
                ],
                title=f"[tagging] {count} tokens from {CORPUS_SIZE} docs "
                f"({len(set(token_stream))} unique)",
            )
        )
        print(
            f"  cache: {hit_rate:.0%} hit rate, "
            f"{counters['evictions']} evictions"
        )

    assert speedup >= 3.0, (
        f"fast tagger below the 3x bar: {speedup:.2f}x "
        f"({naive_tps:.0f} -> {fast_tps:.0f} tokens/sec)"
    )


def test_cold_cache_still_wins(kb, token_stream):
    """Even with the LRU disabled the automaton pass must beat naive.

    Guards against the cache masking an automaton regression: a unique
    (cache-less) pass over the stream's distinct tokens still has to be
    faster than the naive matcher on the same tokens.
    """
    unique = list(dict.fromkeys(token_stream))
    naive = SynonymMatcher(kb)
    fast = FastSynonymMatcher(kb, cache_size=0)
    naive_seconds = best_pass_seconds(naive.find_all, unique)
    fast_seconds = best_pass_seconds(fast.find_all, unique)
    assert fast_seconds < naive_seconds, (
        f"automaton slower than naive without cache: "
        f"{fast_seconds:.3f}s vs {naive_seconds:.3f}s over "
        f"{len(unique)} unique tokens"
    )
