"""Service load benchmark: 1000+ concurrent clients, zero drops.

Not a paper experiment -- the acceptance gate for the conversion
service: a thousand concurrent simulated clients hammer a live server
over real sockets, every request must be answered (backpressure, never
load-shedding), and the latency quantiles + throughput are printed.
Service speed is measured by ``perfbench/`` against ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import os

from repro.corpus.generator import ResumeCorpusGenerator
from repro.evaluation.report import format_table
from repro.service import ConversionService
from tests.loadtest import ServerThread, run_load

CLIENTS = 1000
REQUESTS_PER_CLIENT = 1
DISTINCT_DOCUMENTS = 6


def test_service_load_thousand_clients(benchmark, kb, tmp_path, capsys):
    sources = ResumeCorpusGenerator(seed=1966).generate_html(
        DISTINCT_DOCUMENTS
    )
    service = ConversionService(kb, state_dir=tmp_path / "state")
    server = ServerThread(service)
    host, port = server.start()
    try:
        report = benchmark.pedantic(
            lambda: asyncio.run(run_load(
                host, port, sources,
                clients=CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT,
            )),
            rounds=1, iterations=1,
        )
    finally:
        server.stop()

    # The acceptance criteria: every request answered, every document
    # converted -- concurrency may reorder, never drop.
    assert report.dropped == 0, report.to_json()
    assert report.failed == 0, report.to_json()
    assert report.completed == CLIENTS * REQUESTS_PER_CLIENT
    assert report.converted == report.completed
    assert report.requests_per_sec > 0

    latency = report.latency.summary()
    with capsys.disabled():
        print()
        print(
            format_table(
                ["metric", "value"],
                [
                    ["clients", str(report.clients)],
                    ["requests", str(report.completed)],
                    ["dropped", str(report.dropped)],
                    ["req/sec", f"{report.requests_per_sec:.1f}"],
                    ["p50 latency", f"{latency['p50'] * 1000:.1f} ms"],
                    ["p95 latency", f"{latency['p95'] * 1000:.1f} ms"],
                    ["p99 latency", f"{latency['p99'] * 1000:.1f} ms"],
                ],
                title=f"[service] {CLIENTS} concurrent clients "
                f"({service.workers} workers, "
                f"{os.cpu_count()} CPUs)",
            )
        )
