"""RDATA payload of the DNS-Cache record (paper Fig. 8).

The paper's custom RR carries "a list of two-tuples <HASH(URL), FLAG>".
URLs are hashed "to maintain confidentiality, as DNS messages are
unencrypted"; this implementation uses truncated SHA-256 digests.

Wire layout (big-endian)::

    +--------+------------------------+
    | COUNT  |  COUNT x (HASH, FLAG)  |
    | 2 B    |  16 B + 1 B each       |
    +--------+------------------------+

The tuples decode straight into one ordered ``hash -> flag`` dict: the
body is sliced into fixed-size pairs by :func:`struct.iter_unpack`, and
no object is built per tuple.  A hash appears at most once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct

from repro.errors import DnsFormatError

__all__ = ["CacheFlag", "CacheLookupRdata", "hash_url"]

#: Truncated digest length carried on the wire.
URL_HASH_BYTES = 16

_COUNT = struct.Struct("!H")
_PAIR = struct.Struct(f"{URL_HASH_BYTES}sB")
_PAIR_BYTES = _PAIR.size


def hash_url(url: str) -> bytes:
    """The confidential identifier of a URL inside DNS-Cache messages."""
    return hashlib.sha256(url.encode("utf-8")).digest()[:URL_HASH_BYTES]


class CacheFlag(enum.IntEnum):
    """Per-URL cache status returned by the AP (paper Section IV-B.1).

    * ``REQUEST`` — placeholder flag in client-to-AP lookups.
    * ``CACHE_HIT`` — stored on the AP, fetch it there.
    * ``CACHE_MISS`` — on the AP's block list; fetch from the edge.
    * ``DELEGATION`` — unknown or expired; the AP will fetch-and-cache on
      the client's behalf.
    """

    REQUEST = 0
    CACHE_HIT = 1
    CACHE_MISS = 2
    DELEGATION = 3


#: Flag by wire value; indexing it is the unknown-flag check.
_FLAGS = tuple(CacheFlag)
#: The one wire byte of each flag.
_FLAG_BYTES = tuple(bytes((flag,)) for flag in CacheFlag)


@dataclasses.dataclass(slots=True)
class CacheLookupRdata:
    """The full RDATA: ``url hash -> flag``, in wire order."""

    flags: dict[bytes, CacheFlag] = dataclasses.field(default_factory=dict)

    def add(self, url_hash: bytes, flag: CacheFlag) -> None:
        if len(url_hash) != URL_HASH_BYTES:
            raise DnsFormatError(
                f"url hash must be {URL_HASH_BYTES} bytes, "
                f"got {len(url_hash)}")
        self.flags[url_hash] = CacheFlag(flag)

    def add_url(self, url: str, flag: CacheFlag = CacheFlag.REQUEST) -> None:
        self.flags[hash_url(url)] = CacheFlag(flag)

    def flag_for(self, url: str) -> CacheFlag | None:
        """The flag matching ``url``'s hash, or None if absent."""
        return self.flags.get(hash_url(url))

    def __len__(self) -> int:
        return len(self.flags)

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        count = len(self.flags)
        if count > 0xFFFF:
            raise DnsFormatError("too many cache lookup entries")
        body = b"".join([url_hash + _FLAG_BYTES[flag]
                         for url_hash, flag in self.flags.items()])
        if len(body) != count * _PAIR_BYTES:
            raise DnsFormatError(
                f"url hashes must be {URL_HASH_BYTES} bytes each")
        return _COUNT.pack(count) + body

    @classmethod
    def decode(cls, data: bytes) -> "CacheLookupRdata":
        if len(data) < 2:
            raise DnsFormatError("truncated DNS-Cache RDATA")
        (count,) = _COUNT.unpack_from(data)
        expected = 2 + count * _PAIR_BYTES
        if len(data) != expected:
            raise DnsFormatError(
                f"DNS-Cache RDATA length {len(data)} != expected {expected}")
        try:
            flags = {url_hash: _FLAGS[flag]
                     for url_hash, flag in _PAIR.iter_unpack(data[2:])}
        except IndexError:
            bad = max(data[2 + URL_HASH_BYTES::_PAIR_BYTES])
            raise DnsFormatError(f"unknown cache flag {bad}") from None
        if len(flags) != count:
            raise DnsFormatError("duplicate url hash in DNS-Cache RDATA")
        return cls(flags)
