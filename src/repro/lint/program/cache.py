"""Incremental summary cache for the whole-program analysis.

The cache is a JSON document mapping repo-relative paths to the
:class:`~repro.lint.program.model.ModuleSummary` extracted from them,
keyed by the SHA-256 of the file contents.  Because the passes consume
*only* the summary (never the AST), a cache hit is indistinguishable
from a fresh extraction — which is what makes cached and cold runs
byte-identical, a property ``tools/check.sh`` asserts on every run.

A stale entry (digest mismatch), an unreadable file, or a version bump
simply falls back to re-extraction; the cache can be deleted at any
time with no effect beyond a slower next run.
"""

from __future__ import annotations

import json
import pathlib
import typing as _t

from repro.lint.program.model import ModuleSummary

__all__ = ["CACHE_VERSION", "SummaryCache", "load_cache", "save_cache"]

#: Bump when the summary schema or extraction semantics change; old
#: caches are then ignored wholesale.
CACHE_VERSION = 6  # v6: effect-analysis facts removed


class SummaryCache:
    """In-memory view of the on-disk cache, with hit/miss accounting."""

    def __init__(self, entries: dict[str, ModuleSummary] | None = None,
                 ) -> None:
        self._entries: dict[str, ModuleSummary] = dict(entries or {})
        self.hits = 0
        self.misses = 0

    def lookup(self, path: str, digest: str) -> ModuleSummary | None:
        """The cached summary for ``path`` iff its digest matches."""
        entry = self._entries.get(path)
        if entry is not None and entry.digest == digest:
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def store(self, summary: ModuleSummary) -> None:
        self._entries[summary.path] = summary

    def prune(self, keep: _t.Iterable[str]) -> None:
        """Drop entries for files no longer part of the scan."""
        wanted = set(keep)
        for path in sorted(self._entries):
            if path not in wanted:
                del self._entries[path]

    def to_json(self) -> dict[str, object]:
        return {
            "version": CACHE_VERSION,
            "modules": {path: self._entries[path].to_json()
                        for path in sorted(self._entries)},
        }


def load_cache(path: pathlib.Path) -> SummaryCache:
    """Read the cache at ``path``; any defect yields an empty cache."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return SummaryCache()
    if not isinstance(document, dict) \
            or document.get("version") != CACHE_VERSION:
        return SummaryCache()
    modules = document.get("modules")
    if not isinstance(modules, dict):
        return SummaryCache()
    entries: dict[str, ModuleSummary] = {}
    try:
        for relpath in sorted(modules):
            entries[str(relpath)] = ModuleSummary.from_json(
                modules[relpath])
    except (KeyError, TypeError, ValueError, AttributeError):
        return SummaryCache()
    return SummaryCache(entries)


def save_cache(path: pathlib.Path, cache: SummaryCache) -> None:
    """Write ``cache`` to ``path`` (parents created as needed)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(cache.to_json(), indent=2, sort_keys=True)
    path.write_text(payload + "\n", encoding="utf-8")
