"""Load-test harness for the conversion service.

Two pieces:

* :class:`ServerThread` runs a :class:`~repro.service.ConversionService` on its own
  event loop in a background thread -- the way tests and benchmarks
  host a live server without blocking their own loop (or pytest).
* :func:`run_load` simulates ``clients`` concurrent keep-alive HTTP
  clients, each issuing ``requests_per_client`` single-document POSTs
  over one raw connection, and folds per-request latencies into a
  :class:`~repro.obs.quantiles.QuantileDigest`.

The harness speaks raw HTTP/1.1 over ``asyncio.open_connection`` --
no client library in the image, and a hand-rolled client doubles as a
protocol check on the hand-rolled server.

Run standalone against a live server, from the repository root::

    PYTHONPATH=src python -m tests.loadtest \\
        --clients 200 --requests 5 --out load.json
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.obs.quantiles import QuantileDigest


@dataclass
class LoadReport:
    """Aggregate outcome of one load run (JSON-ready via ``to_json``)."""

    clients: int
    requests_per_client: int
    completed: int = 0
    failed: int = 0
    converted: int = 0
    elapsed_seconds: float = 0.0
    latency: QuantileDigest = field(default_factory=QuantileDigest)
    status_counts: dict[int, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.clients * self.requests_per_client

    @property
    def dropped(self) -> int:
        """Requests that never got an HTTP response (the acceptance
        criterion demands this stays zero: backpressure, not shedding)."""
        return self.attempted - self.completed - self.failed

    @property
    def requests_per_sec(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def to_json(self) -> dict:
        return {
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "converted": self.converted,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "requests_per_sec": round(self.requests_per_sec, 3),
            "status_counts": {
                str(code): count
                for code, count in sorted(self.status_counts.items())
            },
            "latency_seconds": self.latency.summary(),
        }


async def _read_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict[str, str], bytes]:
    """One HTTP/1.1 response off a keep-alive stream."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").split(" ", 2)
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def _post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: loadtest\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def _get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: loadtest\r\n\r\n"
    ).encode("latin-1")


async def request(
    host: str, port: int, raw: bytes
) -> tuple[int, dict[str, str], bytes]:
    """One-shot request helper (opens and closes a connection)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _client(
    host: str,
    port: int,
    sources: list[str],
    requests_per_client: int,
    report: LoadReport,
    gate: asyncio.Event,
    topic: str,
) -> None:
    """One simulated client: a single keep-alive connection, sequential
    requests, latencies folded into the shared report."""
    await gate.wait()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for i in range(requests_per_client):
            payload = {
                "source": sources[i % len(sources)],
                "topic": topic,
            }
            started = time.perf_counter()
            writer.write(_post("/convert", payload))
            await writer.drain()
            status, _, body = await _read_response(reader)
            elapsed = time.perf_counter() - started
            report.latency.observe(elapsed)
            report.status_counts[status] = (
                report.status_counts.get(status, 0) + 1
            )
            if status == 200:
                report.completed += 1
                if json.loads(body).get("ok"):
                    report.converted += 1
            else:
                report.failed += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_load(
    host: str,
    port: int,
    sources: list[str],
    *,
    clients: int = 100,
    requests_per_client: int = 1,
    topic: str = "resume",
) -> LoadReport:
    """Hammer a live service with ``clients`` concurrent connections.

    Every client connects first, then a shared gate releases them all at
    once -- the load is genuinely concurrent, not a ramp.
    """
    report = LoadReport(clients=clients, requests_per_client=requests_per_client)
    gate = asyncio.Event()
    tasks = [
        asyncio.create_task(
            _client(host, port, sources, requests_per_client, report, gate, topic)
        )
        for _ in range(clients)
    ]
    await asyncio.sleep(0)
    started = time.perf_counter()
    gate.set()
    results = await asyncio.gather(*tasks, return_exceptions=True)
    report.elapsed_seconds = time.perf_counter() - started
    for result in results:
        if isinstance(result, BaseException):
            # A client dying mid-flight (connection reset, protocol
            # error) is a harness-level failure, not a served error --
            # surface it loudly rather than folding it into the report.
            raise result
    return report


class ServerThread:
    """A live :class:`~repro.service.ConversionService` on a background thread.

    The service's event loop runs entirely in the thread; ``start()``
    blocks until the server is bound and returns ``(host, port)``,
    ``stop()`` runs the graceful drain and joins the thread.  Tests and
    benchmarks talk to it over real sockets from their own loops.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.host = "127.0.0.1"
        self.port = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = None
        self._stopped = None

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        import threading

        ready = threading.Event()
        failure: list[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            self._stopped = asyncio.Event()

            async def _main() -> None:
                try:
                    self.host, self.port = await self.service.start(host, port)
                except BaseException as exc:  # pragma: no cover - boot failure
                    failure.append(exc)
                    ready.set()
                    return
                ready.set()
                await self._stopped.wait()
                await self.service.shutdown()

            try:
                loop.run_until_complete(_main())
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True, name="repro-service")
        self._thread.start()
        ready.wait(timeout=60)
        if failure:
            raise failure[0]
        if self._loop is None or not ready.is_set():  # pragma: no cover
            raise RuntimeError("service thread failed to start")
        return self.host, self.port

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is None or self._stopped is None:
            return
        self._loop.call_soon_threadsafe(self._stopped.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._loop = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="load-test a running conversion service"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--clients", type=int, default=100)
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument("--docs", type=int, default=8,
                        help="distinct synthetic resumes to cycle through")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default=None,
                        help="write the JSON report here (else stdout)")
    args = parser.parse_args(argv)

    from repro.corpus.generator import ResumeCorpusGenerator

    sources = [
        doc.html
        for doc in ResumeCorpusGenerator(seed=args.seed).generate(args.docs)
    ]
    report = asyncio.run(
        run_load(
            args.host, args.port, sources,
            clients=args.clients, requests_per_client=args.requests,
        )
    )
    rendered = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    return 0 if report.dropped == 0 and report.failed == 0 else 1


if __name__ == "__main__":  # pragma: no cover - manual harness
    raise SystemExit(_main())
