"""Resource records: types, classes, and per-type RDATA codecs.

Beyond the standard A / CNAME / OPT types, this module defines the paper's
custom **DNSCACHE** record (TYPE = 300) whose RDATA carries the cache
lookup tuples ``<HASH(URL), FLAG>`` described in Section IV-B and Fig. 8.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import typing as _t

from repro.errors import DnsFormatError
from repro.dnslib.cache_rr import CacheLookupRdata
from repro.dnslib.name import DomainName, decode_name, encode_name
from repro.net.address import IPv4Address

__all__ = ["RRType", "RRClass", "ResourceRecord"]


class RRType(enum.IntEnum):
    """Record types understood by the codec."""

    A = 1
    NS = 2
    CNAME = 5
    TXT = 16
    OPT = 41
    #: The paper's DNS-Cache query record (Section IV-B: "we assign an
    #: unsigned integer of 300 to indicate a 'DNS-Cache' query").
    DNSCACHE = 300


class RRClass(enum.IntEnum):
    """Record classes.

    ``REQUEST`` and ``RESPONSE`` implement the paper's CLASS field for
    DNS-Cache records ("The field <CLASS> can be either REQUEST or
    RESPONSE"); they live in the private-use class range.
    """

    IN = 1
    REQUEST = 0xFF01
    RESPONSE = 0xFF02


_RR_TYPES = {rtype.value: rtype for rtype in RRType}
_RR_CLASSES = {rclass.value: rclass for rclass in RRClass}
_RR_HEADER = struct.Struct("!HHIH")


def rr_type(value: int) -> RRType:
    """``RRType(value)`` as the decoder needs it: a dict lookup that
    raises :class:`DnsFormatError` for a type it does not know."""
    rtype = _RR_TYPES.get(value)
    if rtype is None:
        raise DnsFormatError(f"unknown RR type {value}")
    return rtype


def rr_class(value: int) -> RRClass:
    """:func:`rr_type` for classes."""
    rclass = _RR_CLASSES.get(value)
    if rclass is None:
        raise DnsFormatError(f"unknown RR class {value}")
    return rclass


@dataclasses.dataclass(slots=True)
class ResourceRecord:
    """One resource record with a typed ``rdata`` payload.

    ``rdata`` holds an :class:`IPv4Address` for A records, a
    :class:`DomainName` for NS/CNAME, ``bytes`` for TXT/OPT, and a
    :class:`CacheLookupRdata` for DNSCACHE records.
    """

    name: DomainName
    rtype: RRType
    rclass: RRClass
    ttl: int
    rdata: object

    def __post_init__(self) -> None:
        self.name = DomainName(self.name)
        self.rtype = RRType(self.rtype)
        if self.rtype == RRType.OPT:
            # RFC 6891 reuses CLASS as the UDP payload size: any 16-bit
            # integer is legal here, not just named classes.
            if not 0 <= int(self.rclass) <= 0xFFFF:
                raise DnsFormatError(
                    f"OPT payload size out of range: {self.rclass}")
        else:
            self.rclass = RRClass(self.rclass)
        if self.ttl < 0 or self.ttl > 0xFFFFFFFF:
            raise DnsFormatError(f"TTL out of range: {self.ttl}")
        self._validate_rdata()

    def _validate_rdata(self) -> None:
        if self.rtype == RRType.A and not isinstance(self.rdata, IPv4Address):
            self.rdata = IPv4Address(_t.cast(str, self.rdata))
        elif self.rtype in (RRType.CNAME, RRType.NS) and \
                not isinstance(self.rdata, DomainName):
            self.rdata = DomainName(_t.cast(str, self.rdata))
        elif self.rtype in (RRType.TXT, RRType.OPT) and \
                not isinstance(self.rdata, (bytes, bytearray)):
            raise DnsFormatError(
                f"{self.rtype.name} rdata must be bytes, "
                f"got {type(self.rdata).__name__}")
        elif self.rtype == RRType.DNSCACHE and \
                not isinstance(self.rdata, CacheLookupRdata):
            raise DnsFormatError(
                "DNSCACHE rdata must be a CacheLookupRdata, "
                f"got {type(self.rdata).__name__}")

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def encode(self, buffer: bytearray,
               offsets: dict[tuple[str, ...], int] | None = None) -> None:
        """Append this record's wire form to ``buffer``."""
        encode_name(self.name, buffer, offsets)
        buffer.extend(struct.pack("!HHI", self.rtype, self.rclass,
                                  self.ttl))
        rdata = self._encode_rdata(offsets, base_offset=len(buffer) + 2)
        if len(rdata) > 0xFFFF:
            raise DnsFormatError(f"RDATA too long: {len(rdata)} bytes")
        buffer.extend(struct.pack("!H", len(rdata)))
        buffer.extend(rdata)

    def _encode_rdata(self, offsets: dict[tuple[str, ...], int] | None,
                      base_offset: int) -> bytes:
        if self.rtype == RRType.A:
            return _t.cast(IPv4Address, self.rdata).to_bytes()
        if self.rtype in (RRType.CNAME, RRType.NS):
            # Names inside RDATA are encoded without registering new
            # compression offsets: the rdata length prefix makes nested
            # offset bookkeeping fragile and RFC deployments avoid it too.
            inner = bytearray()
            encode_name(_t.cast(DomainName, self.rdata), inner, offsets=None)
            return bytes(inner)
        if self.rtype in (RRType.TXT, RRType.OPT):
            return bytes(_t.cast(bytes, self.rdata))
        if self.rtype == RRType.DNSCACHE:
            return _t.cast(CacheLookupRdata, self.rdata).encode()
        raise DnsFormatError(f"cannot encode rdata for {self.rtype!r}")

    @classmethod
    def decode(cls, data: bytes, offset: int,
               names: dict[int, DomainName] | None = None,
               ) -> tuple["ResourceRecord", int]:
        """Decode one record starting at ``offset``; ``names`` as
        :func:`decode_name` takes it."""
        name, offset = decode_name(data, offset, names)
        if offset + 10 > len(data):
            raise DnsFormatError("truncated resource record header")
        raw_type, raw_class, ttl, rdlength = _RR_HEADER.unpack_from(
            data, offset)
        offset += 10
        if offset + rdlength > len(data):
            raise DnsFormatError("truncated RDATA")
        rdata_bytes = data[offset:offset + rdlength]
        rtype = rr_type(raw_type)
        rclass: "RRClass | int" = raw_class if rtype == RRType.OPT \
            else rr_class(raw_class)
        rdata: object
        if rtype == RRType.A:
            if len(rdata_bytes) != 4:
                raise DnsFormatError(
                    f"A record RDATA must be 4 bytes, "
                    f"got {len(rdata_bytes)}")
            rdata = IPv4Address.from_bytes(rdata_bytes)
        elif rtype in (RRType.CNAME, RRType.NS):
            rdata, _ = decode_name(data, offset)
        elif rtype in (RRType.TXT, RRType.OPT):
            rdata = bytes(rdata_bytes)
        elif rtype == RRType.DNSCACHE:
            rdata = CacheLookupRdata.decode(rdata_bytes)
        else:  # pragma: no cover - RRType() above rejects unknowns
            raise DnsFormatError(f"cannot decode rdata for {rtype!r}")
        # Every field is checked and typed above (a 32-bit TTL cannot be
        # out of range), so __post_init__ has nothing left to do.
        record = cls.__new__(cls)
        record.name, record.rtype, record.rclass = name, rtype, rclass
        record.ttl, record.rdata = ttl, rdata
        return record, offset + rdlength

    def __str__(self) -> str:
        class_name = getattr(self.rclass, "name", str(int(self.rclass)))
        return (f"{self.name} {self.ttl} {class_name} "
                f"{self.rtype.name} {self.rdata}")
