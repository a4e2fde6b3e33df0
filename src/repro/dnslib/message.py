"""DNS messages: header, question, and the four record sections.

Implements enough of RFC1035 (plus the paper's DNS-Cache extension riding
in the Additional section) to run a realistic resolution chain:
stub -> LDNS -> authoritative -> CDN DNS, with CNAME chasing and caching.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import typing as _t

from repro.errors import DnsFormatError
from repro.dnslib.cache_rr import CacheLookupRdata
from repro.dnslib.name import DomainName, decode_name, encode_name
from repro.dnslib.rr import (
    ResourceRecord,
    RRClass,
    RRType,
    rr_class,
    rr_type,
)

__all__ = ["Rcode", "Question", "Header", "Message"]

_HEADER_STRUCT = struct.Struct("!HHHHHH")
_TYPE_CLASS = struct.Struct("!HH")


class Rcode(enum.IntEnum):
    """Response codes used by this implementation."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


_RCODES = {rcode.value: rcode for rcode in Rcode}


@dataclasses.dataclass(slots=True)
class Question:
    """One entry of the question section."""

    qname: DomainName
    qtype: RRType = RRType.A
    qclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        self.qname = DomainName(self.qname)
        self.qtype = RRType(self.qtype)
        self.qclass = RRClass(self.qclass)

    def encode(self, buffer: bytearray,
               offsets: dict[tuple[str, ...], int] | None) -> None:
        encode_name(self.qname, buffer, offsets)
        buffer.extend(struct.pack("!HH", self.qtype, self.qclass))

    @classmethod
    def decode(cls, data: bytes, offset: int,
               names: dict[int, DomainName] | None = None,
               ) -> tuple["Question", int]:
        qname, offset = decode_name(data, offset, names)
        if offset + 4 > len(data):
            raise DnsFormatError("truncated question")
        raw_type, raw_class = _TYPE_CLASS.unpack_from(data, offset)
        # Typed and checked here, so __post_init__ has nothing to do.
        question = cls.__new__(cls)
        question.qname = qname
        question.qtype = rr_type(raw_type)
        question.qclass = rr_class(raw_class)
        return question, offset + 4


@dataclasses.dataclass(slots=True)
class Header:
    """The 12-byte message header."""

    message_id: int = 0
    is_response: bool = False
    opcode: int = 0
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: Rcode = Rcode.NOERROR

    def flags_word(self) -> int:
        word = 0
        if self.is_response:
            word |= 0x8000
        word |= (self.opcode & 0xF) << 11
        if self.authoritative:
            word |= 0x0400
        if self.truncated:
            word |= 0x0200
        if self.recursion_desired:
            word |= 0x0100
        if self.recursion_available:
            word |= 0x0080
        word |= int(self.rcode) & 0xF
        return word

    @classmethod
    def from_flags_word(cls, message_id: int, word: int) -> "Header":
        rcode = _RCODES.get(word & 0xF)
        if rcode is None:
            raise DnsFormatError(f"unknown rcode {word & 0xF}")
        return cls(message_id, bool(word & 0x8000), (word >> 11) & 0xF,
                   bool(word & 0x0400), bool(word & 0x0200),
                   bool(word & 0x0100), bool(word & 0x0080), rcode)


@dataclasses.dataclass(slots=True)
class Message:
    """A complete DNS message."""

    header: Header = dataclasses.field(default_factory=Header)
    questions: list[Question] = dataclasses.field(default_factory=list)
    answers: list[ResourceRecord] = dataclasses.field(default_factory=list)
    authority: list[ResourceRecord] = dataclasses.field(default_factory=list)
    additional: list[ResourceRecord] = dataclasses.field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def query(cls, qname: "DomainName | str", qtype: RRType = RRType.A,
              message_id: int = 0) -> "Message":
        """A recursive-desired query for one name."""
        return cls(header=Header(message_id=message_id),
                   questions=[Question(DomainName(qname), qtype)])

    def make_response(self, rcode: Rcode = Rcode.NOERROR) -> "Message":
        """A response skeleton echoing this query's id and question."""
        return Message(
            header=Header(message_id=self.header.message_id,
                          is_response=True,
                          recursion_desired=self.header.recursion_desired,
                          recursion_available=True,
                          rcode=rcode),
            questions=list(self.questions))

    def question_name(self) -> DomainName:
        if not self.questions:
            raise DnsFormatError("message has no question")
        return self.questions[0].qname

    # ------------------------------------------------------------------
    # DNS-Cache helpers (the paper's Additional-section extension)
    # ------------------------------------------------------------------
    def attach_cache_lookup(self, rdata: CacheLookupRdata,
                            rclass: RRClass, ttl: int = 0) -> None:
        """Attach a DNS-Cache record to the Additional section."""
        self.additional.append(ResourceRecord(
            self.question_name(), RRType.DNSCACHE, rclass, ttl, rdata))

    def cache_lookup(self, rclass: RRClass | None = None,
                     ) -> CacheLookupRdata | None:
        """The first DNS-Cache RDATA in Additional (optionally by class)."""
        for record in self.additional:
            if record.rtype != RRType.DNSCACHE:
                continue
            if rclass is not None and record.rclass != rclass:
                continue
            return _t.cast(CacheLookupRdata, record.rdata)
        return None

    def first_answer(self, rtype: RRType) -> ResourceRecord | None:
        for record in self.answers:
            if record.rtype == rtype:
                return record
        return None

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to wire bytes with name compression."""
        if not 0 <= self.header.message_id <= 0xFFFF:
            raise DnsFormatError(
                f"message id out of range: {self.header.message_id}")
        buffer = bytearray(_HEADER_STRUCT.pack(
            self.header.message_id, self.header.flags_word(),
            len(self.questions), len(self.answers),
            len(self.authority), len(self.additional)))
        offsets: dict[tuple[str, ...], int] = {}
        for question in self.questions:
            question.encode(buffer, offsets)
        for section in (self.answers, self.authority, self.additional):
            for record in section:
                record.encode(buffer, offsets)
        return bytes(buffer)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse wire bytes back into a message."""
        if len(data) < _HEADER_STRUCT.size:
            raise DnsFormatError("message shorter than header")
        (message_id, flags, qdcount, ancount,
         nscount, arcount) = _HEADER_STRUCT.unpack_from(data, 0)
        message = cls(Header.from_flags_word(message_id, flags),
                      [], [], [], [])
        offset = _HEADER_STRUCT.size
        # Names decoded so far by offset: a compression pointer to one
        # (every owner name that repeats the question) is not re-walked.
        names: dict[int, DomainName] = {}
        for _ in range(qdcount):
            question, offset = Question.decode(data, offset, names)
            message.questions.append(question)
        for count, section in ((ancount, message.answers),
                               (nscount, message.authority),
                               (arcount, message.additional)):
            for _ in range(count):
                record, offset = ResourceRecord.decode(data, offset, names)
                section.append(record)
        if offset != len(data):
            raise DnsFormatError(
                f"{len(data) - offset} trailing bytes after message")
        return message

    @property
    def wire_size(self) -> int:
        """Encoded size in bytes (used for transmission-delay modeling)."""
        return len(self.encode())
