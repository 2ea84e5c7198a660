"""One engine run in a fresh interpreter.

Started by the harness for every repetition of a batch measurement::

    python3 perfbench/batch_child.py --sources F --workers N --out R \
        [--trace] [--corrupt K]

It prints ``ready`` once the engine is constructed and its inputs are
loaded (the harness times set-up up to that line), then runs
``CorpusEngine.run`` (convert + discover) -- or, with ``--trace``, the
same work through ``CorpusEngine.stream`` and ``CorpusEngine.discover``
with a span around every call -- and writes the outputs' digests, the
DTD text and the engine's own counters to ``R``.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time

sys.dont_write_bytecode = True

from common import SUP_THRESHOLD, corrupt, digest, read_json, write_json  # noqa: E402
from spans import SpanLog  # noqa: E402


def _engine_counters(stats, wall: float) -> dict:
    workers = max(1, stats.workers)
    return {
        "rule_seconds": stats.rule_seconds,
        "cache_hit_ratio": stats.tagger_cache_hit_rate,
        "chunks": stats.chunks,
        "chunk_overhead_frac": stats.chunk_overhead_fraction,
        "worker_busy_frac": stats.doc_seconds / (wall * workers) if wall else 0.0,
        "doc_seconds": stats.doc_seconds,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sources", required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", type=int, default=0)
    args = parser.parse_args()

    from repro.concepts.resume_kb import build_resume_knowledge_base
    from repro.runtime.engine import CorpusEngine, EngineConfig
    from repro.schema.accumulator import PathAccumulator

    engine = CorpusEngine(
        build_resume_knowledge_base(),
        engine_config=EngineConfig(max_workers=args.workers, error_policy="skip"),
    )
    sources = read_json(args.sources)
    print("ready", flush=True)

    out: dict = {"documents": len(sources)}
    if not args.trace:
        started = time.perf_counter()
        run = engine.run(sources, sup_threshold=SUP_THRESHOLD)
        wall = time.perf_counter() - started
        corpus = run.corpus
        xml, failures, discovery = corpus.xml_documents, corpus.failures, run.discovery
        out["counters"] = _engine_counters(corpus.stats, corpus.stats.wall_seconds)
    else:
        log = SpanLog(prefix="child.")
        stats = engine.new_stats()
        payloads = []
        xml, failures = [], []
        accumulator = PathAccumulator()
        first_chunk = None
        started = time.perf_counter()
        cpu_started = time.process_time()
        with log.span("engine.run", rid="run"):
            with log.span("engine.stream", rid="run"):
                stream = engine.stream(sources, stats=stats)
                while True:
                    with log.span("runtime.merge_wait", rid="run"):
                        payload = next(stream, None)
                    if payload is None:
                        break
                    if first_chunk is None:
                        first_chunk = time.perf_counter() - started
                    with log.span("runtime.absorb", rid="run"):
                        payloads.append(payload)
                        xml.extend(payload.xml)
                        failures.extend(payload.failures)
                        accumulator.update(payload.accumulator)
            parent_cpu = time.process_time() - cpu_started
            discovery = None
            if stats.documents:
                with log.span("schema.discover", rid="run"):
                    discovery = engine.discover(accumulator, sup_threshold=SUP_THRESHOLD)
        wall = time.perf_counter() - started
        # Transport volume, measured after the timed region: the pickled
        # payloads that came home and the pickled chunk tasks that went
        # out (the engine ships (index, base, sources, names) tuples).
        payload_bytes = source_bytes = base = 0
        for payload in payloads:
            count = payload.stats.documents + payload.stats.documents_failed
            payload_bytes += len(pickle.dumps(payload))
            source_bytes += len(pickle.dumps(
                (payload.stats.index, base, sources[base:base + count], None)
            ))
            base += count
        counters = _engine_counters(stats, stats.wall_seconds)
        counters.update(
            parent_cpu_s=parent_cpu,
            first_chunk_s=first_chunk or 0.0,
            payload_bytes=payload_bytes,
            source_bytes=source_bytes,
        )
        out["counters"] = counters
        out["spans"] = log.export()

    failed_at = {failure.index for failure in failures}
    survivors = iter(xml)
    digests: list[str | None] = []
    for index in range(len(sources)):
        if index in failed_at:
            digests.append(None)
            continue
        text = next(survivors)
        if index < args.corrupt:
            text = corrupt(text)
        digests.append(digest(text))
    out.update(
        wall=wall,
        digests=digests,
        dtd=discovery.dtd.render() if discovery is not None else None,
    )
    write_json(args.out, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
