"""HTTP/1.1 byte codec for the live engine.

The simulator hands :class:`~repro.httplib.messages.HttpRequest` /
:class:`HttpResponse` objects across the transport directly; the live
stack (:mod:`repro.engine.livenet`) must put them on real sockets.  This
codec speaks minimal HTTP/1.1 with persistent connections: every message
is delimited by its header block and ``content-length``, so any number of
request/response exchanges can follow each other on one connection (one
at a time, no pipelining), each matching one simulated ``tcp_exchange``.

Reading is sans-IO.  :func:`parse_request` / :func:`parse_response`
turn one header block into a message plus the length of the body that
follows it, and a :class:`Framer` cuts a byte stream — however the
socket happens to chunk it — into those messages, counting body octets
away as they arrive instead of buffering them.  Every live protocol,
the admin plane's included, feeds its received bytes to a framer.
:func:`read_request` and :func:`read_response` read a body off an
``asyncio.StreamReader`` after a given head; nothing in the library
calls them.

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

Round-tripping a message through ``encode_* -> parse_*`` reproduces it
field for field, which is what keeps the interceptor chain and the AP
runtime byte-path-agnostic.
"""

from __future__ import annotations

import asyncio
import typing as _t

from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.url import Url

__all__ = [
    "encode_request", "encode_response", "encode_payload_response",
    "parse_request", "parse_response", "Framer",
    "read_request", "read_response",
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
_BLANK_LINE = 2 * _CRLF

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


def parse_request(head: bytes) -> tuple[HttpRequest, int]:
    """The request whose header block is ``head``, and its body length."""
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
    size = _int_header(headers, "content-length", 0)
    return HttpRequest(
        Url.parse(full_url), method,
        {name: value for name, value in headers.items()
         if name not in _RESERVED and name != "host"},
        body_bytes), size


def parse_response(head: bytes) -> tuple[HttpResponse, int]:
    """The response whose header block is ``head``, and its body length."""
    start_line, headers = _parse_head(head)
    parts = start_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpError(f"malformed status line {start_line!r}")
    status = int(parts[1])
    size = _int_header(headers, "content-length", 0)
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
        body), size


_Parsed = _t.TypeVar("_Parsed")


class Framer(_t.Generic[_Parsed]):
    """Cuts a byte stream into messages: sans-IO, one message at a time.

    :meth:`feed` takes bytes as they arrive; :meth:`next` returns the
    next message — what ``parse`` (:func:`parse_request` or
    :func:`parse_response`) returned for its head — once its body has
    arrived too, else ``None``.  Body octets are counted away, never
    buffered: what the framer holds (:attr:`buffered`) is the start of
    a head, or bytes fed past a message nobody has taken yet.  A head
    that outgrows :data:`MAX_HEADER_BYTES` raises :class:`HttpError`.
    """

    def __init__(self,
                 parse: _t.Callable[[bytes], tuple[_Parsed, int]]) -> None:
        self._parse = parse
        self._buffer = bytearray()
        #: The parsed head whose body is still arriving (or untaken).
        self._message: tuple[_Parsed, int] | None = None
        self._body_left = 0

    @property
    def buffered(self) -> int:
        """Bytes held: never a body's, at most one head's plus one feed."""
        return len(self._buffer)

    @property
    def at_boundary(self) -> bool:
        """True between messages: the stream may end here cleanly."""
        return not self._buffer and self._message is None

    def feed(self, data: bytes) -> None:
        """Take bytes from the stream; the current body's are counted."""
        if self._body_left:
            taken = min(self._body_left, len(data))
            self._body_left -= taken
            if taken == len(data):
                return
            data = data[taken:]
        self._buffer += data

    def next(self) -> tuple[_Parsed, int] | None:
        """The next whole message, or ``None`` until more bytes arrive."""
        if self._message is None:
            buffer = self._buffer
            end = buffer.find(_BLANK_LINE)
            if end < 0:
                if len(buffer) > MAX_HEADER_BYTES:
                    raise HttpError(f"no end of header block within "
                                    f"{MAX_HEADER_BYTES} bytes")
                return None
            end += len(_BLANK_LINE)
            message = self._parse(bytes(buffer[:end]))
            taken = min(message[1], len(buffer) - end)
            del buffer[:end + taken]
            self._message, self._body_left = message, message[1] - taken
        if self._body_left:
            return None
        message, self._message = self._message, None
        return message


async def read_request(reader: asyncio.StreamReader,
                       head: bytes) -> HttpRequest:
    """Parse the request whose header block is ``head``; consume its body."""
    request, size = parse_request(head)
    await _drain_body(reader, size)
    return request


async def read_response(reader: asyncio.StreamReader,
                        head: bytes) -> HttpResponse:
    """Parse the response whose header block is ``head``; consume its body."""
    response, size = parse_response(head)
    await _drain_body(reader, size)
    return response


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
