"""Cache entries: a stored object plus the metadata PACM needs.

Every attribute in the paper's system model (Section IV-C) lives here:
``priority`` (p_d), remaining valid time (e_d, derived from
``expires_at``), ``fetch_latency_s`` (l_d, "approximated by the latency
of retrieving the object from the edge or cloud server"), and ``app_id``
(A_d).
"""

from __future__ import annotations

import dataclasses
import functools

from repro.errors import CacheError
from repro.dnslib.cache_rr import hash_url
from repro.httplib.content import DataObject
from repro.httplib.url import Url

__all__ = ["CacheEntry"]


@dataclasses.dataclass
class CacheEntry:
    """One cached object and its bookkeeping."""

    data_object: DataObject
    app_id: str
    priority: int
    stored_at: float
    expires_at: float
    fetch_latency_s: float
    last_access: float = 0.0
    access_count: int = 0

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise CacheError(
                f"priority must be a positive integer, got {self.priority}")
        if self.expires_at < self.stored_at:
            raise CacheError("entry expires before it is stored")
        if self.fetch_latency_s < 0:
            raise CacheError(
                f"negative fetch latency {self.fetch_latency_s}")
        if not self.last_access:
            self.last_access = self.stored_at

    @property
    def url(self) -> str:
        return self.data_object.url

    @functools.cached_property
    def parsed_url(self) -> Url:
        """``url`` parsed, once per entry."""
        return Url.parse(self.url)

    @functools.cached_property
    def url_hash(self) -> bytes:
        """The DNS-Cache identifier of the entry's basic URL."""
        return hash_url(self.parsed_url.base)

    @property
    def size_bytes(self) -> int:
        return self.data_object.size_bytes

    def remaining_ttl(self, now: float) -> float:
        """The paper's e_d: seconds of validity left (>= 0)."""
        return max(0.0, self.expires_at - now)

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def touch(self, now: float) -> None:
        """Record an access (drives LRU/LFU baselines)."""
        self.last_access = now
        self.access_count += 1

    def __repr__(self) -> str:
        return (f"<CacheEntry {self.url} app={self.app_id} "
                f"p={self.priority} {self.size_bytes}B>")
