"""The sans-IO HTTP/1.1 framing of the live wire codec.

A :class:`Framer` must cut any chunking of a byte stream into exactly
the messages :func:`parse_request` / :func:`parse_response` return for
its header blocks, in order; count body octets away instead of holding
them; and refuse a header block over :data:`MAX_HEADER_BYTES`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HttpError
from repro.httplib.content import DataObject
from repro.httplib.messages import HttpRequest, HttpResponse
from repro.httplib.wire import (
    MAX_HEADER_BYTES,
    Framer,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)

KB = 1024
_BLANK_LINE = b"\r\n\r\n"

_tokens = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                  min_size=1, max_size=12)
_headers = st.dictionaries(_tokens.map(lambda name: f"x-h-{name}"),
                           _tokens, max_size=3)
_body_sizes = st.integers(min_value=0, max_value=300 * KB)


@st.composite
def _requests(draw):
    """A request's wire bytes; some carry a body, as a foreign client's
    may (the codec's own requests never do)."""
    request = HttpRequest(
        f"http://{draw(_tokens)}.example/{draw(_tokens)}",
        draw(st.sampled_from(["GET", "POST"])), draw(_headers),
        draw(st.integers(min_value=0, max_value=10 * KB)))
    wire = encode_request(request)
    size = draw(_body_sizes)
    tail = b"content-length: 0" + _BLANK_LINE
    assert wire.endswith(tail)
    return (wire[:-len(tail)] + f"content-length: {size}".encode()
            + _BLANK_LINE + b"\0" * size)


@st.composite
def _responses(draw):
    size = draw(_body_sizes)
    body = None
    if size or draw(st.booleans()):
        body = DataObject(f"http://{draw(_tokens)}.example/o", size,
                          version=draw(st.integers(1, 9)),
                          created_at=draw(st.floats(0.0, 1e6)))
    return encode_response(HttpResponse(
        draw(st.sampled_from([200, 404, 500, 503])), draw(_headers),
        body))


def _streams(messages):
    return st.lists(messages, min_size=1, max_size=5).flatmap(
        lambda wires: st.tuples(
            st.just(wires),
            st.lists(st.integers(min_value=0,
                                 max_value=sum(map(len, wires))),
                     max_size=24)))


def _check_framing(parse, wires, cuts):
    stream = b"".join(wires)
    heads, starts, head_ends, ends = [], [], [], []
    offset = 0
    for wire in wires:
        head = wire[:wire.index(_BLANK_LINE) + len(_BLANK_LINE)]
        heads.append(head)
        starts.append(offset)
        head_ends.append(offset + len(head))
        offset += len(wire)
        ends.append(offset)
    expected = [parse(head) for head in heads]

    framer = Framer(parse)
    got = []
    bounds = sorted(set(cuts) | {len(stream)})
    previous = 0
    for pos in bounds:
        framer.feed(stream[previous:pos])
        previous = pos
        while (message := framer.next()) is not None:
            got.append(message)
        # Every message whose last byte arrived has been yielded...
        assert len(got) == sum(1 for end in ends if end <= pos)
        # ...and what is held is the start of the next head, never a
        # body byte.
        k = len(got)
        held = pos - starts[k] if k < len(wires) and pos < head_ends[k] \
            else 0
        assert framer.buffered == held
    assert got == expected
    assert framer.at_boundary


@settings(max_examples=60, deadline=None)
@given(_streams(_requests()))
def test_framer_yields_what_parse_request_returns_for_any_chunking(case):
    wires, cuts = case
    _check_framing(parse_request, wires, cuts)


@settings(max_examples=60, deadline=None)
@given(_streams(_responses()))
def test_framer_yields_what_parse_response_returns_for_any_chunking(case):
    wires, cuts = case
    _check_framing(parse_response, wires, cuts)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8 * KB), st.booleans(),
       st.lists(st.integers(min_value=0, max_value=MAX_HEADER_BYTES),
                max_size=8))
def test_a_head_over_the_ceiling_raises(excess, terminated, cuts):
    stream = (b"GET /x HTTP/1.1\r\nx-pad: "
              + b"a" * (MAX_HEADER_BYTES + excess))
    if terminated:
        stream += _BLANK_LINE
    framer = Framer(parse_request)
    previous = 0
    with pytest.raises(HttpError):
        for pos in sorted(set(cuts)) + [len(stream)]:
            framer.feed(stream[previous:pos])
            previous = pos
            assert framer.next() is None
