"""The AP's block list (paper Section IV-B).

After delegating a request, the AP may decide never to cache that object
("the AP has delegated the request before but decided not to cache it
anymore by adding it to a block list.  If the data size exceeds a
threshold — set at 500 KB in our implementation — it will be added").
Blocked URLs answer ``Cache-Miss`` so clients go straight to the edge.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.dnslib.cache_rr import hash_url

__all__ = ["BlockList"]


class BlockList:
    """A set of blocked URL hashes with a size-threshold admission rule."""

    def __init__(self, threshold_bytes: int) -> None:
        if threshold_bytes <= 0:
            raise ConfigError(
                f"threshold must be positive, got {threshold_bytes}")
        self.threshold_bytes = threshold_bytes
        self._blocked_hashes: set[bytes] = set()
        #: Bumped by every change, so answers built on it can tell.
        self.generation = 0

    def should_block(self, size_bytes: int) -> bool:
        """Whether an object of this size must never be cached."""
        return size_bytes > self.threshold_bytes

    def block(self, url: str) -> None:
        self.block_hash(hash_url(url))

    def block_hash(self, url_hash: bytes) -> None:
        self._blocked_hashes.add(url_hash)
        self.generation += 1

    def unblock(self, url: str) -> None:
        self._blocked_hashes.discard(hash_url(url))
        self.generation += 1

    def is_blocked(self, url: str) -> bool:
        return hash_url(url) in self._blocked_hashes

    def is_blocked_hash(self, url_hash: bytes) -> bool:
        return url_hash in self._blocked_hashes

    def __len__(self) -> int:
        return len(self._blocked_hashes)

    def clear(self) -> None:
        self._blocked_hashes.clear()
        self.generation += 1
