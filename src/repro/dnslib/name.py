"""Domain names and their RFC1035 wire encoding.

Implements label validation, case-insensitive equality, and the standard
message compression scheme (pointers ``0xC000 | offset``) used by both the
encoder and decoder.
"""

from __future__ import annotations

import typing as _t

from repro.errors import DnsFormatError

__all__ = ["DomainName", "encode_name", "decode_name"]

_MAX_LABEL = 63
_MAX_NAME = 255
_POINTER_MASK = 0xC0


class DomainName:
    """A fully-qualified domain name, stored as a tuple of labels.

    Comparison and hashing are case-insensitive, per RFC1035 §2.3.3.
    """

    __slots__ = ("_labels",)

    def __init__(self, name: "str | DomainName | _t.Sequence[str]") -> None:
        if isinstance(name, DomainName):
            self._labels: tuple[str, ...] = name._labels
            return
        if isinstance(name, str):
            stripped = name.rstrip(".")
            labels = tuple(stripped.split(".")) if stripped else ()
        else:
            labels = tuple(name)
        for label in labels:
            if not label:
                raise DnsFormatError(f"empty label in {name!r}")
            if len(label) > _MAX_LABEL:
                raise DnsFormatError(
                    f"label longer than {_MAX_LABEL} octets: {label!r}")
            encoded = label.encode("ascii", errors="strict") \
                if label.isascii() else None
            if encoded is None:
                raise DnsFormatError(f"non-ASCII label {label!r}")
        total = sum(len(label) + 1 for label in labels) + 1
        if total > _MAX_NAME:
            raise DnsFormatError(f"name longer than {_MAX_NAME} octets")
        self._labels = labels

    @classmethod
    def _from_wire(cls, labels: tuple[str, ...]) -> "DomainName":
        """A name from labels :func:`decode_name` read: each is already
        1-63 ASCII octets, so only the total length is left to check."""
        if sum(map(len, labels)) + len(labels) + 1 > _MAX_NAME:
            raise DnsFormatError(f"name longer than {_MAX_NAME} octets")
        name = cls.__new__(cls)
        name._labels = labels
        return name

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "DomainName":
        """The name with its leftmost label removed."""
        if self.is_root:
            raise DnsFormatError("the root name has no parent")
        return DomainName(self._labels[1:])

    def registered_domain(self) -> "DomainName":
        """The last two labels (e.g. ``apple.com`` of ``www.apple.com``)."""
        if len(self._labels) < 2:
            return self
        return DomainName(self._labels[-2:])

    def is_subdomain_of(self, other: "DomainName | str") -> bool:
        other_name = DomainName(other)
        if len(other_name._labels) > len(self._labels):
            return False
        mine = tuple(label.lower() for label in self._labels)
        theirs = tuple(label.lower() for label in other_name._labels)
        return not theirs or mine[-len(theirs):] == theirs

    def __str__(self) -> str:
        return ".".join(self._labels) if self._labels else "."

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = DomainName(other)
            except DnsFormatError:
                return False
        if not isinstance(other, DomainName):
            return NotImplemented
        return tuple(l.lower() for l in self._labels) == \
            tuple(l.lower() for l in other._labels)

    def __hash__(self) -> int:
        return hash(tuple(label.lower() for label in self._labels))


def encode_name(name: "DomainName | str", buffer: bytearray,
                offsets: dict[tuple[str, ...], int] | None = None) -> None:
    """Append the wire form of ``name`` to ``buffer``.

    When ``offsets`` is provided, previously seen suffixes are replaced by
    compression pointers and new suffixes are recorded.
    """
    resolved = DomainName(name)
    labels = tuple(label.lower() for label in resolved.labels)
    index = 0
    while index < len(labels):
        suffix = labels[index:]
        if offsets is not None and suffix in offsets:
            pointer = offsets[suffix]
            buffer.extend(((_POINTER_MASK << 8) | pointer).to_bytes(2, "big"))
            return
        if offsets is not None and len(buffer) < 0x3FFF:
            offsets[suffix] = len(buffer)
        label = labels[index]
        buffer.append(len(label))
        buffer.extend(label.encode("ascii"))
        index += 1
    buffer.append(0)


def decode_name(data: bytes, offset: int,
                names: dict[int, DomainName] | None = None,
                ) -> tuple[DomainName, int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns the name and the offset just past its in-place encoding.
    ``names`` maps the offsets of names already decoded from ``data``
    to them: a compression pointer to one ends the walk there, and the
    name decoded here is added.
    """
    labels: list[str] = []
    jumped = False
    next_offset = offset
    seen_pointers: set[int] | None = None
    cursor = offset
    end = len(data)
    while True:
        if cursor >= end:
            raise DnsFormatError("truncated name")
        length = data[cursor]
        if length & _POINTER_MASK == _POINTER_MASK:
            if cursor + 1 >= end:
                raise DnsFormatError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[cursor + 1]
            if not jumped:
                next_offset = cursor + 2
                jumped = True
            if names is not None and pointer in names:
                if not labels:
                    return names[pointer], next_offset
                labels.extend(names[pointer].labels)
                break
            if seen_pointers is None:
                seen_pointers = set()
            elif pointer in seen_pointers:
                raise DnsFormatError("compression pointer loop")
            seen_pointers.add(pointer)
            cursor = pointer
            continue
        if length & _POINTER_MASK:
            raise DnsFormatError(f"reserved label type {length:#04x}")
        cursor += 1
        if length == 0:
            if not jumped:
                next_offset = cursor
            break
        if cursor + length > end:
            raise DnsFormatError("truncated label")
        try:
            labels.append(data[cursor:cursor + length].decode("ascii"))
        except UnicodeDecodeError:
            raise DnsFormatError(
                f"non-ASCII bytes in label at offset {cursor}") from None
        cursor += length
    name = DomainName._from_wire(tuple(labels))
    if names is not None:
        names[offset] = name
    return name, next_offset
