"""Exception hierarchy shared by every subsystem of the reproduction.

Each subsystem raises the most specific subclass it can so that callers may
either catch narrowly (``except DnsFormatError``) or broadly
(``except ReproError``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class NetworkError(ReproError):
    """Base class for network substrate failures."""


class NoRouteError(NetworkError):
    """No path exists between two nodes in the simulated topology."""


class AddressError(NetworkError):
    """An IPv4 address was malformed or the allocator pool is exhausted."""


class TransportError(NetworkError):
    """A UDP/TCP exchange failed (timeout, unreachable handler, ...)."""


class DnsError(ReproError):
    """Base class for DNS subsystem failures."""


class DnsFormatError(DnsError):
    """A DNS message could not be encoded or decoded."""


class DnsNameError(DnsError):
    """The queried name does not exist (the classic NXDOMAIN)."""


class DnsServFail(DnsError):
    """A DNS server failed to answer (SERVFAIL)."""


class HttpError(ReproError):
    """Base class for HTTP subsystem failures."""


class HttpStatusError(HttpError):
    """A response carried a non-success status code."""

    def __init__(self, status: int, reason: str = "") -> None:
        super().__init__(f"HTTP {status} {reason}".rstrip())
        self.status = status
        self.reason = reason


class CacheError(ReproError):
    """Base class for cache machinery failures."""


class CapacityError(CacheError):
    """An object larger than the whole cache was offered for admission."""


class ConfigError(ReproError):
    """An experiment or runtime was configured with inconsistent values."""


class TelemetryError(ReproError):
    """Misuse of the telemetry layer (instrument type clash, bad span)."""
