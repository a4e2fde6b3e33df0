"""DNS substrate: wire codec, zones, server roles, stub resolver.

Includes the paper's DNS-Cache extension — a custom RR (TYPE=300) carried
in the Additional section whose RDATA is a list of ``<HASH(URL), FLAG>``
tuples (:mod:`repro.dnslib.cache_rr`).
"""

from repro.dnslib.cache_rr import (
    CacheFlag,
    CacheLookupRdata,
    hash_url,
)
from repro.dnslib.message import Header, Message, Question, Rcode
from repro.dnslib.name import DomainName, decode_name, encode_name
from repro.dnslib.resolver import ResolutionResult, StubResolver
from repro.dnslib.rr import ResourceRecord, RRClass, RRType
from repro.dnslib.server import (
    AuthoritativeService,
    CdnDnsService,
    DnsCacheEntry,
    DnsService,
    ForwardingDnsService,
    RecursiveResolverService,
)
from repro.dnslib.zone import DnsRegistry, Zone

__all__ = [
    "AuthoritativeService",
    "CacheFlag",
    "CacheLookupRdata",
    "CdnDnsService",
    "DnsCacheEntry",
    "DnsRegistry",
    "DnsService",
    "DomainName",
    "ForwardingDnsService",
    "Header",
    "Message",
    "Question",
    "Rcode",
    "RecursiveResolverService",
    "ResolutionResult",
    "ResourceRecord",
    "RRClass",
    "RRType",
    "StubResolver",
    "Zone",
    "decode_name",
    "encode_name",
    "hash_url",
]
