"""Engine throughput: serial reference vs the parallel corpus engine.

Not a paper experiment -- the engineering number behind the ROADMAP's
"as fast as the hardware allows": docs/sec of the serial
``convert_many`` path vs a 4-worker :class:`CorpusEngine` on a 200+
document corpus, with the differential guarantee (identical XML bytes)
re-checked on the way.  The speedup assertion only applies on multi-core
hardware; on a single core the engine's value is bounded memory, not
speed, so only equivalence is asserted there.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.corpus.generator import ResumeCorpusGenerator
from repro.evaluation.report import format_table
from repro.runtime.engine import CorpusEngine, EngineConfig
from repro.runtime.stats import stage_quantile_rows

CORPUS_SIZE = 200
WORKERS = 4
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

# Scaling gate: on multi-core hardware, 4 workers must move at least as
# many docs/sec as 1 worker (ratio >= 1.0) -- anything less means the
# pool is buying coordination overhead, not throughput.  On a single
# core the pool cannot win by construction, so the gate only demands
# the overhead stays bounded.
MIN_SCALE_RATIO_MULTI_CORE = 1.0
MIN_SCALE_RATIO_SINGLE_CORE = 0.8


def test_engine_throughput_serial_vs_parallel(benchmark, kb, converter, capsys):
    html = ResumeCorpusGenerator(seed=1966).generate_html(CORPUS_SIZE)

    started = time.perf_counter()
    serial_results = converter.convert_many(html)
    serial_seconds = time.perf_counter() - started
    serial_xml = [result.to_xml() for result in serial_results]
    serial_dps = CORPUS_SIZE / serial_seconds

    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=WORKERS, chunk_size=16)
    )
    result = benchmark.pedantic(
        lambda: engine.convert_corpus(html), rounds=1, iterations=1
    )
    parallel_dps = result.stats.docs_per_second

    with capsys.disabled():
        print()
        print(
            format_table(
                ["path", "seconds", "docs/sec"],
                [
                    ["serial convert_many", f"{serial_seconds:.2f}",
                     f"{serial_dps:.1f}"],
                    [f"engine ({WORKERS} workers)",
                     f"{result.stats.wall_seconds:.2f}",
                     f"{parallel_dps:.1f}"],
                ],
                title=f"[engine] {CORPUS_SIZE}-doc corpus throughput "
                f"({os.cpu_count()} CPUs)",
            )
        )
        print()
        print(
            format_table(
                ["rule", "seconds", "share"],
                result.stats.rule_rows(),
                title="engine per-rule time (summed over workers)",
            )
        )
        print()
        print(
            format_table(
                ["stage", "count", "p50 ms", "p95 ms", "p99 ms"],
                stage_quantile_rows(result.stats.stage_summaries()),
                title="engine per-stage latency quantiles (merged digests)",
            )
        )

    # Differential guarantee holds at benchmark scale too.
    assert result.xml_documents == serial_xml
    assert result.stats.documents == CORPUS_SIZE
    assert parallel_dps > 0 and serial_dps > 0

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # On multi-core hardware the pool must beat the serial path
        # (a loose bar: pool + pickling overhead eats into the ideal
        # cpus-times speedup, but it must at least win).
        assert parallel_dps > serial_dps, (
            f"parallel engine slower than serial on {cpus} CPUs: "
            f"{parallel_dps:.1f} vs {serial_dps:.1f} docs/sec"
        )


def test_engine_scaling_efficiency(benchmark, kb, capsys):
    """Scaling regression gate: docs/sec must not *fall* as workers are
    added, with adaptive chunk sizing on (the engine's default).

    Writes a ``scaling`` section into BENCH_engine.json -- keys carry
    the ``_per_sec``/``ratio`` suffixes :func:`bench_regressions`
    flags, so a future change that quietly un-scales the engine shows
    up in the run ledger's regression report, not just in this gate.
    """
    html = ResumeCorpusGenerator(seed=1966).generate_html(CORPUS_SIZE)

    def run(workers: int):
        engine = CorpusEngine(
            kb, engine_config=EngineConfig(max_workers=workers)
        )
        return engine.convert_corpus(html)

    single = run(1)
    multi = benchmark.pedantic(lambda: run(WORKERS), rounds=1, iterations=1)
    assert multi.xml_documents == single.xml_documents

    ratio = (
        multi.stats.docs_per_second / single.stats.docs_per_second
        if single.stats.docs_per_second
        else 0.0
    )
    scaling = {
        "corpus_documents": CORPUS_SIZE,
        "adaptive_chunking": True,
        "workers": {
            str(workers): {
                "docs_per_sec": round(stats.docs_per_second, 1),
                "docs_per_sec_per_worker": round(
                    stats.docs_per_second_per_worker, 1
                ),
                "chunk_overhead_fraction": round(
                    stats.chunk_overhead_fraction, 3
                ),
            }
            for workers, stats in ((1, single.stats), (WORKERS, multi.stats))
        },
        f"scale_ratio_{WORKERS}_over_1": round(ratio, 3),
    }
    record = {}
    if BENCH_PATH.exists():
        try:
            record = json.loads(BENCH_PATH.read_text())
        except ValueError:
            record = {}
    record["scaling"] = scaling
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(
            format_table(
                ["workers", "docs/sec", "docs/sec/worker", "chunk overhead"],
                [
                    [
                        str(workers),
                        f"{stats.docs_per_second:.1f}",
                        f"{stats.docs_per_second_per_worker:.1f}",
                        f"{stats.chunk_overhead_fraction:.0%}",
                    ]
                    for workers, stats in (
                        (1, single.stats),
                        (WORKERS, multi.stats),
                    )
                ],
                title=f"[engine] scaling efficiency, {CORPUS_SIZE}-doc corpus, "
                f"adaptive chunks ({os.cpu_count()} CPUs)",
            )
        )
        print(f"  {WORKERS}-worker/1-worker ratio: {ratio:.2f}x")

    floor = (
        MIN_SCALE_RATIO_MULTI_CORE
        if (os.cpu_count() or 1) >= 2
        else MIN_SCALE_RATIO_SINGLE_CORE
    )
    assert ratio >= floor, (
        f"adding workers lost throughput: {WORKERS}-worker engine at "
        f"{multi.stats.docs_per_second:.1f} docs/sec vs 1-worker "
        f"{single.stats.docs_per_second:.1f} (ratio {ratio:.2f} < {floor})"
    )


def test_tracing_overhead(benchmark, kb, capsys):
    """Throughput with full tracing + provenance vs the untraced engine.

    The observability budget is ~5% on the instrumented hot path; a
    single-round wall-clock comparison is too noisy to pin 5%, so the
    assertion is a loose guard against pathological slowdowns (traced
    must stay within 2x) while the measured ratio is printed for the
    CI log.  Byte-identical output is re-checked on the way.
    """
    from repro.obs import ProvenanceLog, Tracer

    html = ResumeCorpusGenerator(seed=1966).generate_html(CORPUS_SIZE)
    engine = CorpusEngine(
        kb, engine_config=EngineConfig(max_workers=WORKERS, chunk_size=16)
    )

    plain = engine.convert_corpus(html)  # warm the pool/converter paths
    started = time.perf_counter()
    plain = engine.convert_corpus(html)
    plain_seconds = time.perf_counter() - started

    tracer = Tracer()
    provenance = ProvenanceLog()
    traced = benchmark.pedantic(
        lambda: engine.convert_corpus(html, tracer=tracer, provenance=provenance),
        rounds=1,
        iterations=1,
    )
    traced_seconds = traced.stats.wall_seconds
    overhead = traced_seconds / plain_seconds - 1.0 if plain_seconds else 0.0

    with capsys.disabled():
        print()
        print(
            format_table(
                ["path", "seconds", "docs/sec"],
                [
                    ["tracing off", f"{plain_seconds:.2f}",
                     f"{CORPUS_SIZE / plain_seconds:.1f}"],
                    ["tracing + provenance on", f"{traced_seconds:.2f}",
                     f"{traced.stats.docs_per_second:.1f}"],
                    ["overhead", f"{overhead:+.1%}", ""],
                ],
                title=f"[engine] tracing overhead, {CORPUS_SIZE}-doc corpus",
            )
        )
        print(
            f"  spans={len(tracer.spans)} "
            f"events={len(provenance.events)}"
        )

    assert traced.xml_documents == plain.xml_documents
    assert len(tracer.spans) > 0 and len(provenance.events) > 0
    assert traced_seconds < 2.0 * max(plain_seconds, 0.05), (
        f"tracing overhead pathological: {plain_seconds:.2f}s -> "
        f"{traced_seconds:.2f}s"
    )
