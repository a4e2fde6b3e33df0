"""Property-based fuzzing of the DNS wire codec."""

import string

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dnslib import (
    CacheFlag,
    CacheLookupRdata,
    DomainName,
    Header,
    Message,
    Question,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
)
from repro.errors import DnsFormatError
from repro.net import IPv4Address

_LABEL_ALPHABET = string.ascii_lowercase + string.digits + "-"

labels = st.text(alphabet=_LABEL_ALPHABET, min_size=1, max_size=12)
names = st.lists(labels, min_size=1, max_size=5).map(
    lambda parts: DomainName(parts))
url_hashes = st.binary(min_size=16, max_size=16)
flags = st.sampled_from(list(CacheFlag))


def flag_tables(max_size):
    return st.dictionaries(url_hashes, flags, max_size=max_size)


addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
ttls = st.integers(min_value=0, max_value=0x7FFFFFFF)


@st.composite
def records(draw):
    rtype = draw(st.sampled_from([RRType.A, RRType.CNAME, RRType.NS,
                                  RRType.TXT, RRType.DNSCACHE]))
    name = draw(names)
    ttl = draw(ttls)
    if rtype == RRType.A:
        return ResourceRecord(name, rtype, RRClass.IN, ttl,
                              draw(addresses))
    if rtype in (RRType.CNAME, RRType.NS):
        return ResourceRecord(name, rtype, RRClass.IN, ttl, draw(names))
    if rtype == RRType.TXT:
        return ResourceRecord(name, rtype, RRClass.IN, ttl,
                              draw(st.binary(max_size=64)))
    rdata = CacheLookupRdata(draw(flag_tables(max_size=6)))
    rclass = draw(st.sampled_from([RRClass.REQUEST, RRClass.RESPONSE]))
    return ResourceRecord(name, rtype, rclass, ttl, rdata)


@st.composite
def messages(draw):
    message = Message(header=Header(
        message_id=draw(st.integers(min_value=0, max_value=0xFFFF)),
        is_response=draw(st.booleans()),
        authoritative=draw(st.booleans()),
        recursion_desired=draw(st.booleans()),
        recursion_available=draw(st.booleans()),
        rcode=draw(st.sampled_from(list(Rcode)))))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        message.questions.append(Question(
            draw(names), draw(st.sampled_from([RRType.A, RRType.CNAME,
                                               RRType.DNSCACHE]))))
    for section in (message.answers, message.authority,
                    message.additional):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            section.append(draw(records()))
    return message


def _canonical_record(record):
    rdata = record.rdata
    if isinstance(rdata, CacheLookupRdata):
        rdata = tuple(rdata.flags.items())
    return (record.name, record.rtype, int(record.rclass), record.ttl,
            rdata)


@settings(max_examples=150, deadline=None)
@given(messages())
def test_message_roundtrip_is_identity(message):
    decoded = Message.decode(message.encode())
    assert decoded.header == message.header
    assert decoded.questions == message.questions
    for original, roundtripped in zip(
            (message.answers, message.authority, message.additional),
            (decoded.answers, decoded.authority, decoded.additional)):
        assert [_canonical_record(r) for r in roundtripped] == \
            [_canonical_record(r) for r in original]


@settings(max_examples=150, deadline=None)
@given(messages())
def test_reencoding_is_stable(message):
    once = message.encode()
    twice = Message.decode(once).encode()
    assert Message.decode(twice).encode() == twice


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=120))
def test_decoder_never_crashes_on_garbage(blob):
    """Arbitrary bytes either parse or raise DnsFormatError — nothing
    else (no hangs, index errors, or silent corruption)."""
    try:
        Message.decode(blob)
    except DnsFormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(messages(), st.integers(min_value=0, max_value=60),
       st.integers(min_value=1, max_value=255))
def test_truncated_or_flipped_messages_fail_cleanly(message, cut, flip):
    wire = bytearray(message.encode())
    if cut < len(wire):
        truncated = bytes(wire[:cut])
        try:
            Message.decode(truncated)
        except DnsFormatError:
            pass
    position = flip % len(wire)
    wire[position] ^= 0xFF
    try:
        Message.decode(bytes(wire))
    except DnsFormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.lists(names, min_size=1, max_size=8))
def test_compression_shrinks_repeated_suffixes(name_list):
    from repro.dnslib import encode_name
    with_compression = bytearray()
    offsets = {}
    for name in name_list:
        encode_name(name, with_compression, offsets)
    without_compression = bytearray()
    for name in name_list:
        encode_name(name, without_compression, offsets=None)
    assert len(with_compression) <= len(without_compression)


# ----------------------------------------------------------------------
# DNS-Cache RDATA
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(flag_tables(max_size=64))
def test_cache_rdata_roundtrip_keeps_every_pair_in_order(table):
    wire = CacheLookupRdata(dict(table)).encode()
    assert len(wire) == 2 + 17 * len(table)
    decoded = CacheLookupRdata.decode(wire)
    assert list(decoded.flags.items()) == list(table.items())
    assert all(type(flag) is CacheFlag for flag in decoded.flags.values())
    assert decoded.encode() == wire


@settings(max_examples=200, deadline=None)
@given(flag_tables(max_size=64), st.data())
def test_hostile_cache_rdata_is_rejected(table, data):
    wire = CacheLookupRdata(dict(table)).encode()
    attack = data.draw(st.sampled_from(
        ["truncate", "count", "flag", "duplicate"]))
    if attack == "truncate":
        # Anything shorter than the whole RDATA.
        hostile = wire[:data.draw(st.integers(0, len(wire) - 1))]
    elif attack == "count":
        # A count that disagrees with the length.
        count = data.draw(st.integers(0, 0xFFFF).filter(
            lambda count: count != len(table)))
        hostile = count.to_bytes(2, "big") + wire[2:]
    elif attack == "flag":
        assume(table)
        pair = data.draw(st.integers(0, len(table) - 1))
        bad = data.draw(st.integers(4, 255))
        at = 2 + 17 * pair + 16
        hostile = wire[:at] + bytes([bad]) + wire[at + 1:]
    else:
        assume(table)
        # The same hash twice: one flag per URL.
        hostile = (len(table) + 1).to_bytes(2, "big") + wire[2:] + \
            wire[2:19]
    with pytest.raises(DnsFormatError):
        CacheLookupRdata.decode(hostile)
