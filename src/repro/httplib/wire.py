"""HTTP/1.1 byte codec for the live engine.

The simulator hands :class:`~repro.httplib.messages.HttpRequest` /
:class:`HttpResponse` objects across the transport directly; the live
stack (:mod:`repro.engine.livenet`) must put them on real sockets.  This
codec speaks minimal HTTP/1.1 with persistent connections: every message
is delimited by its header block and ``content-length``, so any number of
request/response exchanges can follow each other on one connection (one
at a time, no pipelining), each matching one simulated ``tcp_exchange``.

Reading a message is two steps, so that a kept-alive connection never
idles inside the parser: :func:`read_head` *waits* for the next header
block (``None`` = the peer closed between messages, the normal end of a
connection), then :func:`read_request` / :func:`read_response` parse it
and consume the body.

Bodies in this library are *size-only* :class:`DataObject` metadata, so
the payload on the wire is ``size_bytes`` filler octets (the real bytes
matter for transfer timing, not their content) and the object's
metadata rides in ``x-repro-*`` headers:

=========================  =========================================
``x-repro-url``            the request's full URL (identity + query)
``x-repro-object-url``     response body's basic URL
``x-repro-object-version`` response body's version counter
``x-repro-object-created`` response body's creation timestamp (s)
``x-repro-body-bytes``     request body size (requests carry no data)
=========================  =========================================

Round-tripping a message through ``encode_* -> read_*`` reproduces it
field for field, which is what keeps the interceptor chain and the AP
runtime byte-path-agnostic.
"""

from __future__ import annotations

import asyncio

from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url

__all__ = [
    "encode_request", "encode_response", "encode_payload_response",
    "read_head", "read_request", "read_response",
    "MAX_HEADER_BYTES",
]

#: Ceiling on the header block of one message; a live peer sending more
#: is malformed (or not speaking this protocol at all).
MAX_HEADER_BYTES = 64 * 1024

#: Reserved metadata header names, stripped on decode so they never leak
#: into the reconstructed message's header dict.
_RESERVED = frozenset({
    "x-repro-url", "x-repro-object-url", "x-repro-object-version",
    "x-repro-object-created", "x-repro-body-bytes", "content-length",
})

_CRLF = b"\r\n"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable",
            504: "Gateway Timeout"}


def encode_request(request: HttpRequest) -> bytes:
    """Serialize a request as one HTTP/1.1 message."""
    url = request.url
    path = url.full[len(f"{url.scheme}://{url.host}"):] or "/"
    lines = [f"{request.method} {path} HTTP/1.1",
             f"host: {url.host}",
             f"x-repro-url: {url.full}",
             f"x-repro-body-bytes: {request.body_bytes}"]
    lines.extend(f"{name}: {value}"
                 for name, value in request.headers.items()
                 if name not in _RESERVED)
    lines.append("content-length: 0")
    return _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF


def encode_response(response: HttpResponse) -> bytes:
    """Serialize a response; the body becomes ``size_bytes`` filler."""
    reason = _REASONS.get(response.status, "Status")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.extend(f"{name}: {value}"
                 for name, value in response.headers.items()
                 if name not in _RESERVED)
    body = response.body
    size = 0
    if body is not None:
        size = body.size_bytes
        lines.append(f"x-repro-object-url: {body.url}")
        lines.append(f"x-repro-object-version: {body.version}")
        lines.append(f"x-repro-object-created: {body.created_at!r}")
    lines.append(f"content-length: {size}")
    head = _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF
    return head + b"\0" * size


def encode_payload_response(status: int, payload: bytes,
                            content_type: str = "text/plain") -> bytes:
    """Serialize a response that carries a *real* byte payload.

    The cache path ships size-only filler bodies
    (:func:`encode_response`); the admin plane needs actual content —
    exposition text, health JSON — so this variant writes the given
    bytes verbatim with a content type, still connection-close HTTP/1.1
    that ``curl``/``urllib`` read directly.
    """
    reason = _REASONS.get(status, "Status")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"content-type: {content_type}",
             f"content-length: {len(payload)}",
             "connection: close"]
    head = _CRLF.join(line.encode("latin-1") for line in lines) + 2 * _CRLF
    return head + payload


async def read_head(reader: asyncio.StreamReader) -> bytes | None:
    """Wait for the next message's header block, blank line included.

    ``None`` means the peer closed before the first byte: how every
    kept-alive connection ends, and what a client sees when the server
    closed a connection it was about to reuse.  A close *inside* the
    block is an :class:`HttpError`.
    """
    try:
        return await reader.readuntil(2 * _CRLF)
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            return None
        raise HttpError("connection closed mid-message") from err
    except asyncio.LimitOverrunError as err:
        raise HttpError(f"header block exceeds reader limit: {err}")


async def read_request(reader: asyncio.StreamReader,
                       head: bytes) -> HttpRequest:
    """Parse the request whose header block is ``head``; consume its body."""
    start_line, headers = _parse_head(head)
    parts = start_line.split(" ")
    if len(parts) != 3:
        raise HttpError(f"malformed request line {start_line!r}")
    method = parts[0]
    full_url = headers.get("x-repro-url")
    if full_url is None:
        # A foreign client (curl, a browser) — reconstruct from the
        # request line and host header; scheme is http on loopback.
        host = headers.get("host", "localhost")
        full_url = f"http://{host}{parts[1]}"
    body_bytes = _int_header(headers, "x-repro-body-bytes", 0)
    await _drain_body(reader, _int_header(headers, "content-length", 0))
    return HttpRequest(
        Url.parse(full_url), method,
        {name: value for name, value in headers.items()
         if name not in _RESERVED and name != "host"},
        body_bytes)


async def read_response(reader: asyncio.StreamReader,
                        head: bytes) -> HttpResponse:
    """Parse the response whose header block is ``head``; consume its body."""
    start_line, headers = _parse_head(head)
    parts = start_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(f"malformed status line {start_line!r}")
    status = int(parts[1])
    size = _int_header(headers, "content-length", 0)
    await _drain_body(reader, size)
    body: DataObject | None = None
    object_url = headers.get("x-repro-object-url")
    if object_url is not None:
        body = DataObject(
            object_url, size,
            version=int(headers.get("x-repro-object-version", "1")),
            created_at=float(headers.get("x-repro-object-created", "0.0")))
    return HttpResponse(
        status,
        {name: value for name, value in headers.items()
         if name not in _RESERVED},
        body)


def _parse_head(block: bytes) -> tuple[str, dict[str, str]]:
    """Split a header block into (start line, header dict)."""
    if len(block) > MAX_HEADER_BYTES:
        raise HttpError(f"header block of {len(block)} bytes exceeds "
                        f"{MAX_HEADER_BYTES}")
    lines = block.decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


def _int_header(headers: dict[str, str], name: str, default: int) -> int:
    value = headers.get(name)
    if value is None:
        return default
    if not value.isdigit():
        raise HttpError(f"malformed {name} header {value!r}")
    return int(value)


async def _drain_body(reader: asyncio.StreamReader, size: int) -> None:
    """Consume and discard ``size`` filler octets."""
    remaining = size
    while remaining > 0:
        chunk = await reader.read(min(remaining, 1 << 16))
        if not chunk:
            raise HttpError("connection closed mid-body")
        remaining -= len(chunk)
