"""The service's request reader: read deadlines and malformed input.

A client that stops mid-request holds its handler only until a
deadline (``HEADER_SECONDS`` for the head, ``BODY_SECONDS`` for the
body: ``408`` and a close), and an idle keep-alive connection is closed
after ``IDLE_SECONDS``.  Whatever bytes arrive, ``_read_request``
returns a request or ``None``, or raises one of the errors the
connection handler turns into a response or a close.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import server
from repro.service.server import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    ConversionService,
    HttpError,
    _read_request,
)


@pytest.mark.parametrize(
    "deadline, sent",
    [
        ("HEADER_SECONDS", b"POST /convert HTTP/1.1\r\nContent-Le"),
        (
            "BODY_SECONDS",
            b"POST /convert HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"source\"",
        ),
        ("IDLE_SECONDS", b""),
    ],
)
def test_stalled_client_is_cut_off(kb, tmp_path, monkeypatch, deadline, sent):
    monkeypatch.setattr(server, deadline, 0.2)
    service = ConversionService(kb, state_dir=tmp_path / "state", max_workers=1)

    async def drive():
        host, port = await service.start()
        try:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(sent)
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return reply
        finally:
            await service.shutdown()

    reply = asyncio.run(drive())
    if deadline == "IDLE_SECONDS":
        assert reply == b""
    else:
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close\r\n" in reply


def parse(data: bytes):
    """``_read_request`` on a reader fed ``data`` and then EOF."""

    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(read())


def request_bytes(headers: int, body: bytes) -> bytes:
    extra = b"".join(b"X-Field-%d: value\r\n" % i for i in range(headers))
    return (
        b"POST /convert HTTP/1.1\r\n" + extra
        + b"Content-Length: %d\r\n\r\n" % len(body) + body
    )


WELL_FORMED = st.builds(
    request_bytes, st.integers(0, MAX_HEADERS + 2), st.binary(max_size=64)
)
TRUNCATED = WELL_FORMED.flatmap(
    lambda raw: st.integers(0, len(raw) - 1).map(lambda cut: raw[:cut])
)
OVERSIZED = st.one_of(
    st.integers(MAX_BODY_BYTES + 1, 2**70).map(
        lambda length: b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
    ),
    st.integers(-(2**40), -1).map(
        lambda length: b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % length
    ),
    st.integers(1, 3).map(lambda lines: b"GET /" + b"a" * (70_000 * lines)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=256), WELL_FORMED, TRUNCATED, OVERSIZED))
def test_read_request_returns_a_request_or_refuses(data):
    try:
        parsed = parse(data)
    except (HttpError, asyncio.IncompleteReadError, ValueError):
        return
    assert parsed is None or (
        isinstance(parsed[2], dict) and isinstance(parsed[3], bytes)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MAX_HEADERS + 2), st.binary(max_size=64))
def test_well_formed_request_parses(headers, body):
    if headers + 1 > MAX_HEADERS:
        with pytest.raises(HttpError) as refused:
            parse(request_bytes(headers, body))
        assert refused.value.status == 431
    else:
        method, target, fields, parsed_body = parse(request_bytes(headers, body))
        assert (method, target, parsed_body) == ("POST", "/convert", body)
        assert len(fields) == headers + 1
