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
event loop never sees an unhandled exception and stderr stays empty.
"""

import asyncio
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.core.annotations import CacheableSpec
from repro.engine.live import LiveStack
from repro.engine.wallclock import WallClock
from repro.telemetry.analysis import records_from_telemetry

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
