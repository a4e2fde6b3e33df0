"""Correctness checks: every response, then every run."""

from __future__ import annotations

import dataclasses


def check_fetch(result: object, url: str, size_bytes: int) -> str | None:
    """Why `result` is not the object hosted at `url`, or None if it is."""
    data_object = getattr(result, "data_object", None)
    if data_object is None:
        return "no object returned"
    if data_object.url != url:
        return f"object url {data_object.url!r} != {url!r}"
    if data_object.size_bytes != size_bytes:
        return f"object size {data_object.size_bytes} != {size_bytes}"
    return None


@dataclasses.dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


def expect(name: str, ok: bool, detail: object = "") -> Check:
    return Check(name, bool(ok), str(detail))
