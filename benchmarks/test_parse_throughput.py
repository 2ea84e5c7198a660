"""Parse-stage throughput: the bulk-scanning tokenizer vs the legacy scanner.

Not a paper experiment -- the engineering number behind the parser fast
path: MB/sec of ``_tokenize_fast`` (one master-regex match per markup
construct) vs the legacy oracle ``tests.oracles.tokenizer.tokenize_legacy``
(per-character stepping) over three HTML profiles, plus the end-to-end
engine effect (docs/sec at 1, 2 and 4 workers, capped at the CPU count,
with the production parser vs the legacy tokenizer swapped in before the
engine forks) and the size of the :class:`PathAccumulator` wire form
that chunk results ship home in.  The numbers are printed, not written
anywhere; the gates below are the record.

The three profiles stress different tokenizer lanes:

* ``resume``    -- the generated corpus (seed 1966): text-heavy pages in
                   the five historical layout styles.
* ``chrome``    -- table-layout portal navigation: deeply nested markup,
                   ``style``/``script`` raw-text blocks, short unquoted
                   attributes.  Tag-dense, text-light.
* ``directory`` -- link directories with long unquoted CGI URLs and
                   several attributes per tag: the attribute-value hot
                   spot, where bulk scanning pays off most (this class
                   carries the headline speedup).

The regression gates sit *under* the measured numbers by a tolerance
band: shared runners showed up to ~2x run-to-run variance on the legacy
scanner, so the gates catch a lost fast path (a real regression lands at
1x) without flaking on machine noise.
"""

from __future__ import annotations

import os
import pickle
import time
from random import Random

from repro.corpus.generator import ResumeCorpusGenerator
from repro.dom.treeops import clone, deep_equal
from repro.evaluation.report import format_table
from repro.htmlparse.parser import parse_html
from repro.htmlparse.tidy import tidy
from repro.htmlparse.tokenizer import _tokenize_fast
from repro.runtime.engine import CorpusEngine, EngineConfig
from tests.oracles import swapped
from tests.oracles.tidy import tidy_legacy
from tests.oracles.tokenizer import tokenize_legacy

SEED = 1966
TOKENIZER_ROUNDS = 12
TIDY_ROUNDS = 5
E2E_CORPUS_SIZE = 120
E2E_CHUNK_SIZE = 8
E2E_ROUNDS = 3
# Never more workers than CPUs: an oversubscribed pool measures the
# scheduler, not the engine.
WORKER_COUNTS = [n for n in (1, 2, 4) if n <= (os.cpu_count() or 1)]

# Gates (tolerance band under the measured headline numbers).
MIN_DIRECTORY_SPEEDUP = 4.0
MIN_AGGREGATE_SPEEDUP = 2.0
MIN_E2E_RATIO_AT_MOST_WORKERS = 0.9
# The single-snapshot cleanser measured 5.3x over the six-traversal
# legacy path on this corpus; a lost fast path lands at 1x.
MIN_TIDY_SPEEDUP = 3.0
# PR 6 baseline: the tidy stage cost 0.3539s summed over 4 workers on
# this corpus (a sum over documents, so it does not depend on the worker
# count).  The fast path must keep it at least 3x under that.
MAX_TIDY_STAGE_SECONDS = 0.3539 / 3.0


# -- corpus profiles ----------------------------------------------------------


def _chrome_page(rng: Random, index: int) -> str:
    """A table-layout portal page: nav chrome, raw-text blocks, short
    unquoted attributes."""
    rows = []
    for row in range(rng.randint(10, 16)):
        cells = "".join(
            f"<td class=nav width={rng.randint(40, 160)} align=left>"
            f"<a href=/section{rng.randint(0, 40)}/page{rng.randint(0, 999)}.html>"
            f"<b>Item {row}.{cell}</b></a></td>"
            for cell in range(rng.randint(3, 6))
        )
        rows.append(f"<tr>{cells}</tr>")
    style = "\n".join(
        f".c{i} {{ color: #{rng.getrandbits(24):06x}; font-size: {rng.randint(8, 14)}pt }}"
        for i in range(rng.randint(5, 12))
    )
    script = "\n".join(
        f"var v{i} = {rng.randint(0, 9999)}; if (v{i} < {rng.randint(0, 99)}) "
        f"document.write('<b>hot</b>');"
        for i in range(rng.randint(4, 10))
    )
    return (
        f"<html><head><title>Portal {index}</title>\n"
        f"<style>\n{style}\n</style>\n<script>\n{script}\n</script>\n"
        f"</head><body bgcolor=#ffffff topmargin=0>\n"
        f"<table border=0 cellpadding=2 cellspacing=0 width=100%>\n"
        + "\n".join(rows)
        + "\n</table>\n<hr size=1>\n<center><font size=1>&copy; 2001 "
        f"Portal {index}</font></center>\n</body></html>\n"
    )


def _directory_page(rng: Random, index: int) -> str:
    """A link directory: long unquoted CGI URLs (semicolon query
    separators, the W3C-recommended alternative to ``&``) and multiple
    attributes per tag -- the profile where per-character attribute
    scanning hurts the legacy path most."""
    entries = []
    for entry in range(rng.randint(30, 45)):
        params = ";".join(
            f"{key}{rng.randint(0, 9)}={rng.getrandbits(24):06x}"
            for key in (
                "cat", "id", "sess", "ref", "sort", "ord",
                "view", "page", "per", "lang", "mirror", "hit",
            )
        )
        entries.append(
            f"<li class=entry id=e{entry}><a href=/cgi-bin/search?{params} "
            f"target=_blank class=dirlink name=l{entry}>Listing {entry} of "
            f"directory {index}</a> <font size=2 color=#333366 face=arial>"
            f"updated {rng.randint(1, 28)}/0{rng.randint(1, 9)}/2001</font></li>"
        )
    return (
        f"<html><head><title>Directory {index}</title></head><body>\n"
        f"<h1>Directory {index}</h1>\n<ul>\n"
        + "\n".join(entries)
        + "\n</ul>\n</body></html>\n"
    )


def _profiles() -> dict[str, list[str]]:
    rng = Random(SEED)
    return {
        "resume": ResumeCorpusGenerator(seed=SEED).generate_html(40),
        "chrome": [_chrome_page(rng, i) for i in range(40)],
        "directory": [_directory_page(rng, i) for i in range(40)],
    }


# -- measurement --------------------------------------------------------------


def _measure_tokenizer(docs: list[str]) -> tuple[float, float, int]:
    """Best-of-``TOKENIZER_ROUNDS`` interleaved pass times (legacy, fast).

    Interleaving the two paths within each round keeps a frequency
    ramp or a noisy neighbour from biasing one side; best-of takes the
    least-perturbed observation of each.
    """
    chars = sum(len(doc) for doc in docs)
    legacy_best = fast_best = float("inf")
    for _ in range(TOKENIZER_ROUNDS):
        started = time.perf_counter()
        for doc in docs:
            for _token in tokenize_legacy(doc):
                pass
        legacy_best = min(legacy_best, time.perf_counter() - started)
        started = time.perf_counter()
        for doc in docs:
            _tokenize_fast(doc)
        fast_best = min(fast_best, time.perf_counter() - started)
    return legacy_best, fast_best, chars


def _measure_tidy(docs: list[str]) -> tuple[float, float]:
    """Best-of-``TIDY_ROUNDS`` interleaved cleanser pass times
    (legacy, fast) over pre-parsed trees (each round tidies fresh
    clones, so both paths see identical malformed input)."""
    trees = [parse_html(doc) for doc in docs]
    legacy_best = fast_best = float("inf")
    for _ in range(TIDY_ROUNDS):
        batch = [clone(tree) for tree in trees]
        started = time.perf_counter()
        for tree in batch:
            tidy_legacy(tree)
        legacy_best = min(legacy_best, time.perf_counter() - started)
        batch = [clone(tree) for tree in trees]
        started = time.perf_counter()
        for tree in batch:
            tidy(tree)
        fast_best = min(fast_best, time.perf_counter() - started)
    return legacy_best, fast_best


def _measure_engine(kb, html: list[str], workers: int):
    """Best-of-``E2E_ROUNDS`` interleaved engine runs (legacy, fast):
    each side's run with the most docs/sec.  One run per side let one
    noisy neighbour swing the ratio from 0.85 to 1.92."""
    legacy_runs, fast_runs = [], []
    for _ in range(E2E_ROUNDS):
        legacy_runs.append(_engine_docs_per_sec(kb, html, fast=False, workers=workers))
        fast_runs.append(_engine_docs_per_sec(kb, html, fast=True, workers=workers))

    def fastest(runs):
        return max(runs, key=lambda run: run.stats.docs_per_second)

    return fastest(legacy_runs), fastest(fast_runs)


def _engine_docs_per_sec(kb, html: list[str], *, fast: bool, workers: int):
    """One engine run; ``fast=False`` swaps the legacy tokenizer in
    before the engine builds its converter and forks its pool, and
    checks the oracle tokenized every document."""
    if fast:
        return _engine_run(kb, html, workers)
    with swapped("parser") as calls:
        result = _engine_run(kb, html, workers)
    assert calls["parser"] == len(html)
    return result


def _engine_run(kb, html: list[str], workers: int):
    engine = CorpusEngine(
        kb,
        engine_config=EngineConfig(max_workers=workers, chunk_size=E2E_CHUNK_SIZE),
    )
    result = engine.convert_corpus(html)
    assert result.stats.documents == len(html)
    return result


def _engine_row(legacy_result, fast_result) -> dict:
    legacy, fast = legacy_result.stats.docs_per_second, fast_result.stats.docs_per_second
    return {
        "legacy_docs_per_sec": round(legacy, 1),
        "fast_docs_per_sec": round(fast, 1),
        "ratio": round(fast / legacy, 3),
    }


def test_parse_throughput(benchmark, kb, capsys):
    profiles = _profiles()

    # Equivalence re-checked at benchmark scale before timing anything
    # (full token tuples, source spans included).
    for docs in profiles.values():
        for doc in docs[:5]:
            assert _tokenize_fast(doc) == list(tokenize_legacy(doc))

    tokenizer: dict[str, dict] = {}
    total_legacy = total_fast = 0.0
    total_chars = 0
    for name, docs in profiles.items():
        legacy_seconds, fast_seconds, chars = _measure_tokenizer(docs)
        total_legacy += legacy_seconds
        total_fast += fast_seconds
        total_chars += chars
        tokenizer[name] = {
            "legacy_mb_per_sec": round(chars / legacy_seconds / 1e6, 2),
            "fast_mb_per_sec": round(chars / fast_seconds / 1e6, 2),
            "speedup": round(legacy_seconds / fast_seconds, 2),
        }
    aggregate_speedup = total_legacy / total_fast
    tokenizer["aggregate"] = {
        "legacy_mb_per_sec": round(total_chars / total_legacy / 1e6, 2),
        "fast_mb_per_sec": round(total_chars / total_fast / 1e6, 2),
        "speedup": round(aggregate_speedup, 2),
    }

    # End-to-end: the same corpus through the engine with the production
    # parser and with the legacy tokenizer swapped in, at each worker count.
    e2e_html = ResumeCorpusGenerator(seed=SEED).generate_html(E2E_CORPUS_SIZE)

    # Tidy stage: the single-snapshot cleanser vs the six-traversal
    # legacy path, equivalence re-checked at benchmark scale first.
    for doc in e2e_html[:5]:
        assert deep_equal(
            tidy(parse_html(doc)), tidy_legacy(parse_html(doc))
        )
    tidy_legacy_seconds, tidy_fast_seconds = _measure_tidy(e2e_html)
    tidy_speedup = tidy_legacy_seconds / tidy_fast_seconds
    engine_rows: dict[str, dict] = {}
    for workers in WORKER_COUNTS[:-1]:
        legacy_result, fast_result = _measure_engine(kb, e2e_html, workers)
        engine_rows[str(workers)] = _engine_row(legacy_result, fast_result)
    legacy_result, last_fast_result = benchmark.pedantic(
        lambda: _measure_engine(kb, e2e_html, WORKER_COUNTS[-1]),
        rounds=1,
        iterations=1,
    )
    engine_rows[str(WORKER_COUNTS[-1])] = _engine_row(legacy_result, last_fast_result)

    tidy_stage = last_fast_result.stats.rule_seconds.get("tidy", 0.0)

    # Accumulator wire form: the compact pickle chunk results cross the
    # process boundary in, vs the pre-wire-form __dict__ pickle.
    accumulator = last_fast_result.accumulator
    wire_bytes = len(pickle.dumps(accumulator, protocol=pickle.HIGHEST_PROTOCOL))
    dict_bytes = len(
        pickle.dumps(dict(accumulator.__dict__), protocol=pickle.HIGHEST_PROTOCOL)
    )

    with capsys.disabled():
        print()
        print(
            format_table(
                ["profile", "legacy MB/s", "fast MB/s", "speedup"],
                [
                    [
                        name,
                        f"{row['legacy_mb_per_sec']:.2f}",
                        f"{row['fast_mb_per_sec']:.2f}",
                        f"{row['speedup']:.2f}x",
                    ]
                    for name, row in tokenizer.items()
                ],
                title="[parse] tokenizer throughput (best of "
                f"{TOKENIZER_ROUNDS} interleaved rounds)",
            )
        )
        print()
        print(
            format_table(
                ["workers", "legacy parser", "fast parser", "ratio"],
                [
                    [
                        workers,
                        f"{row['legacy_docs_per_sec']:.1f}",
                        f"{row['fast_docs_per_sec']:.1f}",
                        f"{row['ratio']:.2f}x",
                    ]
                    for workers, row in engine_rows.items()
                ],
                title=f"[parse] engine docs/sec, {E2E_CORPUS_SIZE}-doc corpus "
                f"(best of {E2E_ROUNDS} interleaved runs)",
            )
        )
        print(
            f"  tidy ({E2E_CORPUS_SIZE} docs, best of {TIDY_ROUNDS}): "
            f"legacy {tidy_legacy_seconds * 1e3:.1f}ms, "
            f"fast {tidy_fast_seconds * 1e3:.1f}ms "
            f"({tidy_speedup:.2f}x)"
        )
        print(
            f"  accumulator wire: {wire_bytes} bytes "
            f"({1.0 - wire_bytes / dict_bytes:.0%} under dict state)"
        )

    directory_speedup = tokenizer["directory"]["speedup"]
    assert directory_speedup >= MIN_DIRECTORY_SPEEDUP, (
        f"directory-profile tokenizer speedup below the "
        f"{MIN_DIRECTORY_SPEEDUP}x bar: {directory_speedup:.2f}x"
    )
    assert aggregate_speedup >= MIN_AGGREGATE_SPEEDUP, (
        f"aggregate tokenizer speedup below the "
        f"{MIN_AGGREGATE_SPEEDUP}x bar: {aggregate_speedup:.2f}x"
    )
    most = engine_rows[str(WORKER_COUNTS[-1])]
    assert most["ratio"] >= MIN_E2E_RATIO_AT_MOST_WORKERS, (
        f"fast parser made the {WORKER_COUNTS[-1]}-worker engine slower: "
        f"{most['fast_docs_per_sec']} vs {most['legacy_docs_per_sec']} docs/sec"
    )
    assert wire_bytes < dict_bytes, (
        f"accumulator wire form larger than dict state: "
        f"{wire_bytes} >= {dict_bytes} bytes"
    )
    assert tidy_speedup >= MIN_TIDY_SPEEDUP, (
        f"tidy fast path below the {MIN_TIDY_SPEEDUP}x bar: "
        f"{tidy_speedup:.2f}x"
    )
    assert tidy_stage <= MAX_TIDY_STAGE_SECONDS, (
        f"engine tidy stage regressed past the PR 6 baseline band: "
        f"{tidy_stage:.4f}s > {MAX_TIDY_STAGE_SECONDS:.4f}s"
    )
