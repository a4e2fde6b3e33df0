"""Live-engine end-to-end: real loopback sockets, sub-2 s budget.

``test_dns_piggyback_to_ap_hit_over_loopback`` is the wire-level
acceptance path: a client resolves through the AP's live UDP DNS
server (TYPE=300 piggyback), delegates the first fetch, then takes a
pure AP cache hit on the second — every leg on real sockets bound to
port 0.

``test_sigint_drains_and_exits_zero`` is the graceful-shutdown
regression: ``repro.cli live --serve`` must drain in-flight work on
SIGINT, flush its telemetry export, and exit 0.

The ``test_http_listener_*`` tests pin the HTTP listeners' error
contract (``LiveHttpServer``): whatever a peer or a handler does, the
event loop never sees an unhandled exception and stderr stays empty —
and a peer that writes without reading costs the server a bounded
buffer, never the listener.  The last test pins that the live stack's
histograms keep no sample per request.
"""

import asyncio
import math
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import LiveStack
from repro.engine.livenet import LiveHttpServer
from repro.engine.wallclock import WallClock
from repro.httplib.messages import HttpRequest
from repro.httplib.wire import (
    MAX_HEADER_BYTES,
    Framer,
    encode_request,
    parse_response,
)
from repro.telemetry.analysis import records_from_telemetry
from repro.telemetry.instruments import Histogram

KB = 1024

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_dns_piggyback_to_ap_hit_over_loopback():
    url = "http://live-e2e.example/obj.bin"

    async def _scenario():
        engine = WallClock()
        stack = LiveStack(engine)
        stack.host_object(url, 32 * 1024)
        endpoints = await stack.start()
        # Every tier bound a real ephemeral port.
        assert set(endpoints) == {"ap/dns", "ap/http", "updns/dns",
                                  "edge/http", "origin/http"}
        assert all(port > 0 for _host, port in endpoints.values())

        client = stack.add_client("e2e")
        client.register_spec(
            CacheableSpec(url=url, priority=2, ttl_s=120.0))
        try:
            first = await stack.fetch(client, url)
            second = await stack.fetch(client, url)
        finally:
            await stack.stop()
        engine.raise_unwaited()
        return stack, first, second

    started = time.monotonic()
    stack, first, second = asyncio.run(_scenario())
    assert time.monotonic() - started < 2.0

    # First fetch: the piggybacked DNS query went over a real UDP
    # socket and the AP delegated the retrieval.
    assert first.source == "ap-delegated"
    assert not first.used_cached_flags
    assert first.data_object is not None
    assert first.data_object.size_bytes == 32 * 1024
    # Second fetch: pure AP hit off the cached piggyback flag.
    assert second.source == "ap-hit"
    assert second.cache_hit

    assert stack.transport.udp_exchanges >= 1
    assert stack.transport.tcp_exchanges >= 3

    names = {record.name
             for record in records_from_telemetry(stack.telemetry)}
    assert {"request", "dns_piggyback", "ap_delegated",
            "ap_hit"} <= names

    # Clean run: pre-registered health instruments read honest zeros.
    assert stack.telemetry.get("live.socket_errors").total() == 0
    assert stack.telemetry.get("live.in_flight").value(role="udp") == 0


def _read_until(stream, needle: str, deadline_s: float = 20.0) -> list:
    lines = []
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            break
        lines.append(line)
        if needle in line:
            return lines
    raise AssertionError(
        f"never saw {needle!r} in live output: {lines}")


def test_sigint_drains_and_exits_zero(tmp_path):
    spans_path = tmp_path / "live_spans.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "live", "--requests", "2",
         "--serve", "--spans", str(spans_path)],
        cwd=REPO_ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        _read_until(process.stdout, "live: serving")
        process.send_signal(signal.SIGINT)
        remainder = process.communicate(timeout=20)[0]
    except Exception:
        process.kill()
        raise
    assert process.returncode == 0, remainder
    assert "live: signal received, draining" in remainder
    assert "live: drained" in remainder
    # The shutdown path flushed the span log before exiting.
    assert spans_path.exists()
    assert spans_path.read_text().strip()


# ----------------------------------------------------------------------
# The HTTP listeners' error contract
# ----------------------------------------------------------------------
_CONTRACT_URL = "http://contract.example/obj.bin"


def _against_the_ap_listener(scenario, capfd):
    """Run ``scenario(stack, ap_http_endpoint)`` on a started stack;
    returns ``(stack, its result)`` once nothing reached the loop's
    exception handler or stderr."""

    async def _main():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context))
        engine = WallClock()
        stack = LiveStack(engine)
        stack.host_object(_CONTRACT_URL, 4 * 1024)
        endpoints = await stack.start()
        try:
            result = await scenario(stack, endpoints["ap/http"])
            # The listener outlived it: a regular fetch still works.
            client = stack.add_client("contract")
            client.register_spec(CacheableSpec(url=_CONTRACT_URL,
                                               priority=2, ttl_s=120.0))
            fetched = await stack.fetch(client, _CONTRACT_URL)
            assert fetched.data_object.size_bytes == 4 * 1024
        finally:
            await stack.stop()
        engine.raise_unwaited()
        return stack, unhandled, result

    stack, unhandled, result = asyncio.run(_main())
    assert unhandled == []
    assert capfd.readouterr().err == ""
    return stack, result


async def _send_raw(endpoint, payload: bytes, then_eof: bool) -> bytes:
    """Write ``payload`` (and optionally EOF); everything the server
    sends until it closes the connection."""
    reader, writer = await asyncio.open_connection(*endpoint)
    writer.write(payload)
    if then_eof:
        writer.write_eof()
    try:
        return await asyncio.wait_for(reader.read(), 2.0)
    finally:
        writer.close()
        await writer.wait_closed()


def _http_errors(stack) -> float:
    return stack.telemetry.get("live.socket_errors").value(role="http")


def test_http_listener_connect_and_close_is_silent_and_uncounted(capfd):
    async def _port_probe(stack, endpoint):
        _reader, writer = await asyncio.open_connection(*endpoint)
        writer.close()
        await writer.wait_closed()
        await asyncio.sleep(0.02)
        return _http_errors(stack)

    stack, errors_after_probe = _against_the_ap_listener(_port_probe, capfd)
    # EOF before the first byte of a request is how every kept-alive
    # connection ends: not an error.
    assert errors_after_probe == 0
    assert stack.telemetry.get("live.socket_errors").total() == 0


@pytest.mark.parametrize("payload, then_eof", [
    (b"GARBAGE\r\n\r\n", False),                        # no request line
    (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", False),
    (b"GET /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n", False),
    (b"GET /x HTTP/1.1\r\nhost: a", True),               # EOF mid-head
    (b"GET /x HTTP/1.1\r\ncontent-length: 9\r\n\r\nabc", True),  # mid-body
], ids=["garbage", "header-line", "content-length", "eof-mid-head",
        "eof-mid-body"])
def test_http_listener_answers_400_to_a_malformed_or_cut_request(
        capfd, payload, then_eof):
    async def _malformed(_stack, endpoint):
        return await _send_raw(endpoint, payload, then_eof)

    stack, raw = _against_the_ap_listener(_malformed, capfd)
    # Answered, then closed by the server (`reader.read()` returned).
    assert raw.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"connection: close\r\n" in raw
    assert _http_errors(stack) == 1


def test_http_listener_answers_500_when_the_handler_raises(capfd):
    async def _no_ape_mode(_stack, endpoint):
        # Well-formed, but the AP's handler rejects it: "unknown APE
        # mode None" is raised inside the protocol code.
        return await _send_raw(
            endpoint, b"GET /obj.bin HTTP/1.1\r\n"
                      b"host: contract.example\r\n\r\n", False)

    stack, raw = _against_the_ap_listener(_no_ape_mode, capfd)
    assert raw.startswith(b"HTTP/1.1 500 Internal Server Error\r\n")
    assert b"connection: close\r\n" in raw
    assert _http_errors(stack) == 1
    assert stack.telemetry.get("live.in_flight").value(role="http") == 0


# ----------------------------------------------------------------------
# Peers that push: back-to-back requests, no reading, no end of head
# ----------------------------------------------------------------------
def _fetch_request(url: str) -> bytes:
    return encode_request(HttpRequest(
        url, "GET", {"x-ape-cache": "fetch", "x-ape-app": "raw"}))


def _ap_http(stack) -> LiveHttpServer:
    return next(server for server in stack._servers
                if isinstance(server, LiveHttpServer)
                and server.node is stack.ap)


def test_http_listener_answers_back_to_back_requests_in_order(capfd):
    second = "http://contract.example/second.bin"

    async def _back_to_back(stack, endpoint):
        stack.host_object(second, 6 * KB)
        reader, writer = await asyncio.open_connection(*endpoint)
        writer.write(_fetch_request(_CONTRACT_URL) + _fetch_request(second))
        framer = Framer(parse_response)
        responses = []
        try:
            while len(responses) < 2:
                data = await asyncio.wait_for(reader.read(64 * KB), 2.0)
                assert data, "closed before both responses"
                framer.feed(data)
                while (message := framer.next()) is not None:
                    responses.append(message[0])
        finally:
            writer.close()
            await writer.wait_closed()
        return responses

    stack, responses = _against_the_ap_listener(_back_to_back, capfd)
    assert [response.status for response in responses] == [200, 200]
    assert [(response.body.url, response.body.size_bytes)
            for response in responses] == [(_CONTRACT_URL, 4 * KB),
                                           (second, 6 * KB)]
    assert _http_errors(stack) == 0


def test_http_listener_pauses_a_peer_that_writes_without_reading(
        capfd, monkeypatch):
    big = "http://contract.example/big.bin"
    peak = [0]
    feed = Framer.feed

    def _feed_and_measure(framer, data):
        feed(framer, data)
        peak[0] = max(peak[0], framer.buffered)

    monkeypatch.setattr(Framer, "feed", _feed_and_measure)

    async def _hostile(stack, endpoint):
        stack.host_object(big, 256 * KB)
        loop = asyncio.get_running_loop()
        hostile, _protocol = await loop.create_connection(
            asyncio.Protocol, *endpoint)
        hostile.pause_reading()
        request = _fetch_request(big)
        hostile.write(request * (1024 * KB // len(request) + 1))
        server = _ap_http(stack)
        deadline = time.monotonic() + 10.0
        while not any(connection._read_paused
                      for connection in server._connections):
            assert time.monotonic() < deadline, "the server never paused"
            await asyncio.sleep(0.005)
        (connection,) = server._connections
        one_read = connection.transport.max_size
        # The listener serves another connection meanwhile.
        client = stack.add_client("bystander")
        client.register_spec(CacheableSpec(url=big, priority=2,
                                           ttl_s=120.0))
        fetched = await stack.fetch(client, big)
        assert fetched.data_object.size_bytes == 256 * KB
        assert connection._read_paused
        hostile.abort()
        return one_read

    _stack, one_read = _against_the_ap_listener(_hostile, capfd)
    assert 0 < peak[0] <= MAX_HEADER_BYTES + one_read


async def _read_until_closed(endpoint, payload: bytes) -> bytes:
    """Write ``payload``; what the server sends before it closes (a
    reset after the close keeps what had arrived)."""
    reader, writer = await asyncio.open_connection(*endpoint)
    writer.write(payload)
    received = b""
    try:
        while chunk := await asyncio.wait_for(reader.read(64 * KB), 2.0):
            received += chunk
    except ConnectionResetError:
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionResetError:
            pass
    return received


def test_http_listener_refuses_a_head_that_never_ends(capfd):
    async def _endless(_stack, endpoint):
        return await _read_until_closed(
            endpoint, b"GET /x HTTP/1.1\r\nx-pad: " + b"a" * 70 * KB)

    stack, raw = _against_the_ap_listener(_endless, capfd)
    assert raw.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    assert b"connection: close\r\n" in raw
    assert _http_errors(stack) == 1


# ----------------------------------------------------------------------
# Serving telemetry in fixed memory
# ----------------------------------------------------------------------
def test_live_histograms_keep_no_sample_per_request():
    async def _main():
        engine = WallClock()
        stack = LiveStack(engine)
        stack.host_object(_CONTRACT_URL, 4 * KB)
        await stack.start()
        try:
            client = stack.add_client("sketch")
            client.register_spec(CacheableSpec(url=_CONTRACT_URL,
                                               priority=2, ttl_s=120.0))
            for _fetch in range(200):
                await stack.fetch(client, _CONTRACT_URL)
        finally:
            await stack.stop()
        engine.raise_unwaited()
        return stack

    stack = asyncio.run(_main())
    histograms = [instrument for instrument in stack.telemetry.instruments()
                  if isinstance(instrument, Histogram)]
    assert histograms
    total = stack.telemetry.get("client.total_ms")
    assert total.count() == 200
    # Each series is a sketch whose memory follows the values' dynamic
    # range (one log-bucket per factor gamma), not the request count.
    for histogram in histograms:
        for _key, sketch in histogram.series():
            alpha = sketch.relative_error
            gamma = (1 + alpha) / (1 - alpha)
            low = max(sketch.min, 1e-9)
            ceiling = math.log(max(sketch.max, low) / low, gamma) + 3
            assert sketch.bucket_count <= ceiling
