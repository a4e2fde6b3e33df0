"""APE-CACHE's declarative programming model.

The paper marks cacheable Java fields with ``@Cacheable(id, Priority,
TTL)`` and discovers them via reflection.  The Python equivalent marks
class attributes with :func:`cacheable` and discovers them with
:func:`scan_cacheables` — app logic never changes; the runtime learns
what to cache purely from declarations::

    class MovieTrailerApi:
        movie_id = cacheable("http://api.movies.example/id",
                             priority=HIGH_PRIORITY, ttl_minutes=30)
        rating = cacheable("http://api.movies.example/rating",
                           priority=LOW_PRIORITY, ttl_minutes=30)

    specs = scan_cacheables(MovieTrailerApi)
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.dnslib.cache_rr import hash_url
from repro.httplib.url import Url
from repro.engine.api import MINUTE

__all__ = ["CacheableSpec", "cacheable", "scan_cacheables",
           "LOW_PRIORITY", "HIGH_PRIORITY"]

#: The paper's priority scale: "values of 1 or 2, which stand for low and
#: high priority".  PACM accepts any positive integer.
LOW_PRIORITY = 1
HIGH_PRIORITY = 2


@dataclasses.dataclass(frozen=True)
class CacheableSpec:
    """One cacheable object declaration.

    ``url`` is the object's *basic* URL (no query parameters) — the
    paper's ``id`` attribute.  ``ttl_s`` is stored in seconds; the
    annotation takes minutes to match the paper's TTL field.
    """

    url: str
    priority: int
    ttl_s: float
    field_name: str = ""
    #: Derived from ``url`` once, at construction.
    base_url: str = dataclasses.field(init=False, repr=False, compare=False)
    domain: str = dataclasses.field(init=False, repr=False, compare=False)
    url_hash: bytes = dataclasses.field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        parsed = Url.parse(self.url)
        if parsed.query:
            raise ConfigError(
                f"cacheable id must be a basic URL without parameters: "
                f"{self.url!r}")
        if self.priority < 1:
            raise ConfigError(
                f"priority must be a positive integer, got {self.priority}")
        if self.ttl_s <= 0:
            raise ConfigError(f"TTL must be positive, got {self.ttl_s}")
        object.__setattr__(self, "base_url", parsed.base)
        object.__setattr__(self, "domain", parsed.host)
        object.__setattr__(self, "url_hash", hash_url(parsed.base))


class cacheable:  # noqa: N801 - annotation-like lowercase by design
    """Field marker carrying (id, priority, TTL), like ``@Cacheable``."""

    def __init__(self, id: str, priority: int = LOW_PRIORITY,  # noqa: A002
                 ttl_minutes: float = 10.0) -> None:
        self.spec = CacheableSpec(url=id, priority=priority,
                                  ttl_s=ttl_minutes * MINUTE)

    def __set_name__(self, owner: type, name: str) -> None:
        self.spec = dataclasses.replace(self.spec, field_name=name)

    def __get__(self, instance: object, owner: type | None = None,
                ) -> "cacheable | str":
        # Reading the field in app code yields the URL, so application
        # logic that builds requests keeps working unmodified.
        if instance is None:
            return self
        return self.spec.url

    def __repr__(self) -> str:
        return (f"cacheable(id={self.spec.url!r}, "
                f"priority={self.spec.priority}, "
                f"ttl_s={self.spec.ttl_s})")


def scan_cacheables(target: "object | type") -> list[CacheableSpec]:
    """Reflect over ``target`` collecting every :func:`cacheable` field.

    Accepts a class or an instance; walks the MRO so inherited
    declarations are found, subclass overrides winning.
    """
    klass = target if isinstance(target, type) else type(target)
    found: dict[str, CacheableSpec] = {}
    for base in reversed(klass.__mro__):
        for name, value in vars(base).items():
            if isinstance(value, cacheable):
                found[name] = value.spec
    specs = list(found.values())
    urls = [spec.base_url for spec in specs]
    duplicates = {url for url in urls if urls.count(url) > 1}
    if duplicates:
        raise ConfigError(
            f"duplicate cacheable ids in {klass.__name__}: "
            f"{sorted(duplicates)}")
    return specs


def group_by_domain(specs: _t.Iterable[CacheableSpec],
                    ) -> dict[str, list[CacheableSpec]]:
    """Bucket specs by hostname (the unit of DNS-Cache batching)."""
    grouped: dict[str, list[CacheableSpec]] = {}
    for spec in specs:
        grouped.setdefault(spec.domain, []).append(spec)
    return grouped
