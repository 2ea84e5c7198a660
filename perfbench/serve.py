"""Driving ``repro-web serve`` over real sockets.

The server runs as a subprocess with a fresh ``--state-dir``; the load
comes from this process on one asyncio thread with one keep-alive
connection per request class, so the client never holds more than two
connections.  Every request records its due, send, written, first-byte
and done times; latency is measured from the due time, so a stall
delays every request scheduled behind it.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BenchError, alive, child_env, read_line, stop_process, vm_hwm_kb

BOOT_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0
REQUEST_TIMEOUT = 30.0


# -- one HTTP/1.1 keep-alive connection ---------------------------------------


def request_bytes(method: str, path: str, payload: dict | None = None) -> bytes:
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class Record:
    """Timestamps (``perf_counter``) of one request's phases."""

    cls: str
    item: int
    due: float
    send: float = 0.0
    written: float = 0.0
    first_byte: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    traced: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def roundtrip(self, data: bytes, record: Record) -> Record:
        record.send = time.perf_counter()
        self.writer.write(data)
        await self.writer.drain()
        record.written = time.perf_counter()
        status_line = await asyncio.wait_for(self.reader.readline(), REQUEST_TIMEOUT)
        record.first_byte = time.perf_counter()
        if not status_line:
            raise BenchError("server closed the connection mid-request")
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        record.body = await self.reader.readexactly(length)
        record.done = time.perf_counter()
        record.status = int(status_line.split()[1])
        return record

    async def get(self, path: str) -> tuple[int, bytes]:
        record = await self.roundtrip(request_bytes("GET", path), Record("get", 0, 0.0))
        return record.status, record.body

    async def get_json(self, path: str) -> dict:
        status, body = await self.get(path)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


# -- the server process -------------------------------------------------------


class Server:
    """One ``repro-web serve`` subprocess with its own state dir."""

    def __init__(self, state_dir: Path, workers: int, log_path: Path) -> None:
        self.state_dir = state_dir
        self.workers = workers
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.worker_pids: list[int] = []
        self.setup_s = 0.0

    def spawn(self) -> None:
        self.state_dir.mkdir(parents=True, exist_ok=False)
        self._log = open(self.log_path, "wb")
        self._spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--max-workers", str(self.workers),
             "--state-dir", str(self.state_dir)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=child_env(), cwd=self.state_dir,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT
        line = read_line(self.proc, deadline, "the server's listening line")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:
            raise BenchError(f"unexpected first line from server: {line!r}")
        self.port = int(match.group(1))

    async def warm(self, source: str) -> None:
        """Send one conversion (the pool forks its workers on first use)
        and wait until ``/healthz`` lists every worker; set-up time ends
        here."""
        conn = await Connection.open(self.port)
        try:
            record = await conn.roundtrip(
                request_bytes("POST", "/convert", {"source": source}),
                Record("warm", 0, 0.0),
            )
            if record.status != 200:
                raise BenchError(f"warm-up conversion answered {record.status}")
            deadline = time.monotonic() + BOOT_TIMEOUT
            while True:
                health = await conn.get_json("/healthz")
                pids = health.get("worker_pids") or []
                if len(pids) >= self.workers:
                    break
                if time.monotonic() > deadline:
                    raise BenchError(f"workers not warm after boot: {health}")
                await asyncio.sleep(0.005)
            self.setup_s = time.perf_counter() - self._spawned
            self.worker_pids = list(pids)
        finally:
            await conn.close()

    def rss_mb(self) -> float:
        """Peak RSS of the server and its pool workers (sum of VmHWM)."""
        total = 0
        for pid in [self.proc.pid, *self.worker_pids]:
            hwm = vm_hwm_kb(pid)
            if hwm is None:
                raise BenchError(f"process {pid} vanished before its memory was read")
            total += hwm
        return total / 1024.0

    def drain(self) -> None:
        """SIGTERM and check the drain: exit code 0, the "drained cleanly"
        line, and every worker process gone."""
        proc = self.proc
        proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = proc.communicate(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            stop_process(proc)
            raise BenchError(f"server did not drain within {DRAIN_TIMEOUT}s")
        finally:
            self._log.close()
        if proc.returncode != 0:
            raise BenchError(
                f"server exited with {proc.returncode} on SIGTERM: {self.log_tail()}"
            )
        if "drained cleanly" not in rest:
            raise BenchError(f"server output lacks 'drained cleanly': {rest!r}")
        deadline = time.monotonic() + 5.0
        while True:
            survivors = [pid for pid in self.worker_pids if alive(pid)]
            if not survivors:
                return
            if time.monotonic() > deadline:
                raise BenchError(f"worker processes outlived the drain: {survivors}")
            time.sleep(0.05)

    def kill(self) -> None:
        if self.proc is not None:
            stop_process(self.proc)
            self._log.close()

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


# -- /metrics -----------------------------------------------------------------


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> {"name{labels}": value}."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def metrics_diff(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def histogram_quantile(diff: dict[str, float], name: str, q: float) -> float:
    """Quantile of a diffed fixed-bucket histogram, interpolated inside
    the bucket that holds it (as Prometheus' histogram_quantile does)."""
    buckets = []
    for key, value in diff.items():
        match = re.fullmatch(rf'{name}_bucket\{{le="([^"]+)"\}}', key)
        if match:
            buckets.append((float(match.group(1)), value))
    buckets.sort()
    total = diff.get(f"{name}_count", 0.0)
    if not buckets or total <= 0:
        return 0.0
    rank = q * total
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            share = (rank - lower_count) / (count - lower_count) if count > lower_count else 0.0
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


# -- load ---------------------------------------------------------------------


@dataclass
class RequestClass:
    """One request class: its name, connection and pre-encoded requests
    (``items`` cycle when a phase needs more than are prepared)."""

    name: str
    items: list[bytes]
    docs_per_request: int
    records: list[Record] = field(default_factory=list)
    cursor: int = 0

    def next_item(self) -> tuple[int, bytes]:
        index = self.cursor
        self.cursor += 1
        return index, self.items[index % len(self.items)]


async def open_loop(conn: Connection, cls: RequestClass, dues: list[float],
                    traced: bool) -> None:
    """Send one request at each of the ``dues`` times (ascending); a
    request due while the previous one is outstanding waits in the
    client."""
    for due in dues:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        item, data = cls.next_item()
        record = Record(cls.name, item, due, traced=traced)
        cls.records.append(await conn.roundtrip(data, record))


async def closed_loop(conn: Connection, cls: RequestClass, end: float,
                      traced: bool) -> None:
    """Send the next request as soon as the previous one returns."""
    while time.perf_counter() < end:
        item, data = cls.next_item()
        record = Record(cls.name, item, time.perf_counter(), traced=traced)
        cls.records.append(await conn.roundtrip(data, record))
