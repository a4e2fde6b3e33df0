"""Wire-codec tests: names, records, messages, DNS-Cache RDATA."""

import pytest

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
    decode_name,
    encode_name,
    hash_url,
)
from repro.errors import DnsFormatError
from repro.net import IPv4Address


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def test_name_parsing_and_str():
    name = DomainName("www.apple.com")
    assert name.labels == ("www", "apple", "com")
    assert str(name) == "www.apple.com"


def test_name_trailing_dot_ignored():
    assert DomainName("apple.com.") == DomainName("apple.com")


def test_name_case_insensitive_equality_and_hash():
    assert DomainName("WWW.Apple.COM") == DomainName("www.apple.com")
    assert hash(DomainName("APPLE.com")) == hash(DomainName("apple.com"))


def test_name_subdomain_checks():
    name = DomainName("www.apple.com.edgekey.net")
    assert name.is_subdomain_of("edgekey.net")
    assert name.is_subdomain_of(name)
    assert not name.is_subdomain_of("apple.com")
    assert DomainName("apple.com").registered_domain() == "apple.com"
    assert DomainName("a.b.apple.com").registered_domain() == "apple.com"


def test_root_name():
    root = DomainName("")
    assert root.is_root
    assert str(root) == "."
    with pytest.raises(DnsFormatError):
        root.parent()


@pytest.mark.parametrize("bad", ["a..b", "x" * 64 + ".com", "café.com"])
def test_invalid_names_rejected(bad):
    with pytest.raises(DnsFormatError):
        DomainName(bad)


def test_name_wire_roundtrip():
    buffer = bytearray()
    encode_name("www.apple.com", buffer)
    decoded, offset = decode_name(bytes(buffer), 0)
    assert decoded == "www.apple.com"
    assert offset == len(buffer)


def test_name_compression_pointer_reuses_suffix():
    buffer = bytearray()
    offsets = {}
    encode_name("www.apple.com", buffer, offsets)
    first_len = len(buffer)
    encode_name("img.apple.com", buffer, offsets)
    # Second name shares ".apple.com": should cost label "img" + pointer.
    assert len(buffer) - first_len == 1 + 3 + 2
    first, offset = decode_name(bytes(buffer), 0)
    second, _ = decode_name(bytes(buffer), offset)
    assert (first, second) == ("www.apple.com", "img.apple.com")


def test_pointer_loop_detected():
    # A pointer that points at itself.
    data = bytes([0xC0, 0x00])
    with pytest.raises(DnsFormatError):
        decode_name(data, 0)


def test_truncated_name_detected():
    with pytest.raises(DnsFormatError):
        decode_name(b"\x05abc", 0)


# ----------------------------------------------------------------------
# DNS-Cache RDATA
# ----------------------------------------------------------------------
def test_hash_url_is_stable_and_16_bytes():
    digest = hash_url("http://api.movies.example/id?name=dune")
    assert len(digest) == 16
    assert digest == hash_url("http://api.movies.example/id?name=dune")
    assert digest != hash_url("http://api.movies.example/id?name=alien")


def test_cache_rdata_roundtrip():
    rdata = CacheLookupRdata()
    rdata.add_url("http://a.example/x", CacheFlag.CACHE_HIT)
    rdata.add_url("http://a.example/y", CacheFlag.DELEGATION)
    rdata.add_url("http://a.example/z", CacheFlag.CACHE_MISS)
    decoded = CacheLookupRdata.decode(rdata.encode())
    assert len(decoded) == 3
    assert decoded.flag_for("http://a.example/x") == CacheFlag.CACHE_HIT
    assert decoded.flag_for("http://a.example/y") == CacheFlag.DELEGATION
    assert decoded.flag_for("http://a.example/z") == CacheFlag.CACHE_MISS
    assert decoded.flag_for("http://a.example/unknown") is None


def test_cache_rdata_empty_roundtrip():
    decoded = CacheLookupRdata.decode(CacheLookupRdata().encode())
    assert len(decoded) == 0


def test_cache_rdata_bad_length_rejected():
    rdata = CacheLookupRdata()
    rdata.add_url("http://a.example/x")
    encoded = rdata.encode()
    with pytest.raises(DnsFormatError):
        CacheLookupRdata.decode(encoded[:-1])


def test_cache_rdata_bad_flag_rejected():
    rdata = CacheLookupRdata()
    rdata.add_url("http://a.example/x")
    encoded = bytearray(rdata.encode())
    encoded[-1] = 250
    with pytest.raises(DnsFormatError):
        CacheLookupRdata.decode(bytes(encoded))


def test_cache_entry_requires_16_byte_hash():
    with pytest.raises(DnsFormatError):
        CacheLookupRdata().add(b"short", CacheFlag.CACHE_HIT)
    with pytest.raises(DnsFormatError):
        CacheLookupRdata({b"short": CacheFlag.CACHE_HIT}).encode()


# ----------------------------------------------------------------------
# Resource records
# ----------------------------------------------------------------------
def rr_roundtrip(record):
    buffer = bytearray()
    record.encode(buffer, offsets={})
    decoded, consumed = ResourceRecord.decode(bytes(buffer), 0)
    assert consumed == len(buffer)
    return decoded


def test_a_record_roundtrip():
    record = ResourceRecord("www.apple.com", RRType.A, RRClass.IN, 300,
                            IPv4Address("23.1.2.3"))
    decoded = rr_roundtrip(record)
    assert decoded.rdata == IPv4Address("23.1.2.3")
    assert decoded.ttl == 300


def test_a_record_coerces_string_rdata():
    record = ResourceRecord("a.example", RRType.A, RRClass.IN, 60, "1.2.3.4")
    assert isinstance(record.rdata, IPv4Address)


def test_cname_record_roundtrip():
    record = ResourceRecord("www.apple.com", RRType.CNAME, RRClass.IN, 3600,
                            "www.apple.com.edgekey.net")
    decoded = rr_roundtrip(record)
    assert decoded.rdata == DomainName("www.apple.com.edgekey.net")


def test_dnscache_record_roundtrip():
    rdata = CacheLookupRdata()
    rdata.add_url("http://movies.example/api/id", CacheFlag.REQUEST)
    record = ResourceRecord("movies.example", RRType.DNSCACHE,
                            RRClass.REQUEST, 0, rdata)
    decoded = rr_roundtrip(record)
    assert decoded.rclass == RRClass.REQUEST
    assert decoded.rdata.flag_for("http://movies.example/api/id") == \
        CacheFlag.REQUEST


def test_negative_ttl_rejected():
    with pytest.raises(DnsFormatError):
        ResourceRecord("a.example", RRType.A, RRClass.IN, -1, "1.2.3.4")


def test_wrong_rdata_type_rejected():
    with pytest.raises(DnsFormatError):
        ResourceRecord("a.example", RRType.DNSCACHE, RRClass.REQUEST, 0,
                       b"raw-bytes")


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
def test_query_roundtrip():
    query = Message.query("www.apple.com", RRType.A, message_id=1234)
    decoded = Message.decode(query.encode())
    assert decoded.header.message_id == 1234
    assert not decoded.header.is_response
    assert decoded.header.recursion_desired
    assert decoded.question_name() == "www.apple.com"
    assert decoded.questions[0].qtype == RRType.A


def test_response_roundtrip_with_all_sections():
    query = Message.query("www.apple.com", message_id=77)
    response = query.make_response()
    response.answers.append(ResourceRecord(
        "www.apple.com", RRType.CNAME, RRClass.IN, 3600,
        "www.apple.com.edgekey.net"))
    response.answers.append(ResourceRecord(
        "www.apple.com.edgekey.net", RRType.A, RRClass.IN, 20, "23.0.0.5"))
    response.authority.append(ResourceRecord(
        "apple.com", RRType.NS, RRClass.IN, 86400, "ns1.apple.com"))
    rdata = CacheLookupRdata()
    rdata.add_url("http://www.apple.com/image.jpg", CacheFlag.CACHE_HIT)
    response.attach_cache_lookup(rdata, RRClass.RESPONSE)
    decoded = Message.decode(response.encode())
    assert decoded.header.is_response
    assert decoded.header.message_id == 77
    assert len(decoded.answers) == 2
    assert len(decoded.authority) == 1
    assert len(decoded.additional) == 1
    lookup = decoded.cache_lookup(RRClass.RESPONSE)
    assert lookup is not None
    assert lookup.flag_for("http://www.apple.com/image.jpg") == \
        CacheFlag.CACHE_HIT


def test_opt_coexists_with_dns_cache_record():
    """A foreign RR (an EDNS(0) OPT record, CLASS = UDP payload size)
    and the paper's DNS-Cache record share the Additional section
    without clobbering each other."""
    query = Message.query("www.apple.com")
    rdata = CacheLookupRdata()
    rdata.add_url("http://www.apple.com/image.jpg", CacheFlag.REQUEST)
    query.attach_cache_lookup(rdata, RRClass.REQUEST)
    query.additional.append(ResourceRecord("", RRType.OPT, 4096, 0, b""))
    decoded = Message.decode(query.encode())
    assert decoded.cache_lookup(RRClass.REQUEST) is not None
    assert len(decoded.additional) == 2
    opt = next(record for record in decoded.additional
               if record.rtype == RRType.OPT)
    assert int(opt.rclass) == 4096


def test_cache_lookup_filters_by_class():
    query = Message.query("a.example")
    rdata = CacheLookupRdata()
    rdata.add_url("http://a.example/obj")
    query.attach_cache_lookup(rdata, RRClass.REQUEST)
    assert query.cache_lookup(RRClass.RESPONSE) is None
    assert query.cache_lookup(RRClass.REQUEST) is not None
    assert query.cache_lookup() is not None


def test_first_answer_by_type():
    query = Message.query("www.apple.com")
    response = query.make_response()
    response.answers.append(ResourceRecord(
        "www.apple.com", RRType.CNAME, RRClass.IN, 60, "alias.example"))
    response.answers.append(ResourceRecord(
        "alias.example", RRType.A, RRClass.IN, 60, "9.9.9.9"))
    assert response.first_answer(RRType.A).rdata == IPv4Address("9.9.9.9")
    assert response.first_answer(RRType.CNAME).rdata == \
        DomainName("alias.example")
    assert response.first_answer(RRType.TXT) is None


def test_rcode_roundtrip():
    query = Message.query("missing.example", message_id=9)
    response = query.make_response(Rcode.NXDOMAIN)
    decoded = Message.decode(response.encode())
    assert decoded.header.rcode == Rcode.NXDOMAIN


def test_trailing_garbage_rejected():
    encoded = Message.query("a.example").encode() + b"\x00"
    with pytest.raises(DnsFormatError):
        Message.decode(encoded)


def test_truncated_message_rejected():
    encoded = Message.query("a.example").encode()
    with pytest.raises(DnsFormatError):
        Message.decode(encoded[:8])


def test_wire_size_matches_encoding():
    message = Message.query("www.apple.com")
    assert message.wire_size == len(message.encode())


def test_header_flags_roundtrip():
    header = Header(message_id=5, is_response=True, authoritative=True,
                    truncated=False, recursion_desired=True,
                    recursion_available=True, rcode=Rcode.SERVFAIL)
    decoded = Header.from_flags_word(5, header.flags_word())
    assert decoded == header
