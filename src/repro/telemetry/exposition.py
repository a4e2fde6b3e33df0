"""Prometheus text exposition for the live admin plane.

:func:`render_prometheus` turns a :class:`~repro.telemetry.registry.
Telemetry` registry into the Prometheus text format (version 0.0.4):
``# HELP`` / ``# TYPE`` headers, one sample line per (series, stat),
label values escaped per the exposition rules (``\\``, ``"``, newline),
and **deterministic ordering** — families sorted by exposed name,
series by label set, histogram buckets by ascending ``le`` — so two
scrapes of an idle stack are byte-identical (``tools/check.sh``
asserts this).

Metric names in this repository are dotted (``client.total_ms``);
the exposition format forbids dots, so names are sanitized (``.`` →
``_``) and the original spelling rides in a ``# SOURCE`` comment line
(standard parsers ignore unknown comments; :func:`parse_exposition`
reads it back so ``repro.cli obs --follow`` can rebuild the registry
under the original names).

Histograms render as cumulative ``le`` buckets plus ``_sum`` and
``_count``; the buckets are each series' quantile-sketch log-buckets
(upper bound ``gamma^i``).

:func:`telemetry_from_exposition` is the inverse used by ``obs
--follow``: it rebuilds counters and gauges exactly and each histogram
series' sketch from its buckets (count, sum and bucket counts exact),
in time proportional to the bucket count, not the observation count.
"""

from __future__ import annotations

import dataclasses
import re
import typing as _t

from repro.errors import TelemetryError
from repro.telemetry.instruments import Counter, Gauge, Histogram
from repro.telemetry.registry import Telemetry
from repro.telemetry.sketch import QuantileSketch

__all__ = [
    "PROM_CONTENT_TYPE",
    "MetricFamily",
    "render_prometheus",
    "parse_exposition",
    "telemetry_from_exposition",
]

#: The content-type the ``/metrics`` endpoint serves.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Map a dotted instrument name onto the exposition charset."""
    exposed = _INVALID_CHARS.sub("_", name)
    if not exposed or not _NAME_RE.fullmatch(exposed):
        exposed = "_" + exposed
    return exposed


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fnum(value: float) -> str:
    """Shortest round-trip decimal for a sample value or bound."""
    if value != value:  # NaN never appears; guard anyway
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _render_labels(labels: _t.Sequence[tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape_label(value)}"'
                    for key, value in labels)
    return "{" + body + "}"


def _series_labels(key: _t.Sequence[tuple[str, str]],
                   extra: _t.Sequence[tuple[str, str]] = (),
                   ) -> list[tuple[str, str]]:
    return sorted([*key, *extra])


def render_prometheus(telemetry: Telemetry) -> str:
    """The registry as exposition text; deterministic byte-for-byte."""
    families: list[tuple[str, _t.Any]] = []
    seen: dict[str, str] = {}
    for instrument in telemetry.instruments():
        exposed = sanitize_name(instrument.name)
        clash = seen.get(exposed)
        if clash is not None:
            raise TelemetryError(
                f"exposition name collision: {instrument.name!r} and "
                f"{clash!r} both sanitize to {exposed!r}")
        seen[exposed] = instrument.name
        families.append((exposed, instrument))
    lines: list[str] = []
    for exposed, instrument in sorted(families, key=lambda item: item[0]):
        kind = ("histogram" if isinstance(instrument, Histogram)
                else instrument.kind)
        lines.append(f"# HELP {exposed} "
                     f"{_escape_help(instrument.help or exposed)}")
        lines.append(f"# TYPE {exposed} {kind}")
        if instrument.name != exposed:
            lines.append(f"# SOURCE {exposed} {instrument.name}")
        if isinstance(instrument, (Counter, Gauge)):
            for key in instrument.labelsets():
                value = instrument.value(**dict(key))
                lines.append(f"{exposed}{_render_labels(list(key))} "
                             f"{_fnum(value)}")
        elif isinstance(instrument, Histogram):
            for key, sketch in instrument.series():
                series = list(key)
                total = sketch.count
                for bound, cumulative in sketch.cumulative_buckets():
                    bucket = _series_labels(series,
                                            [("le", _fnum(bound))])
                    lines.append(
                        f"{exposed}_bucket{_render_labels(bucket)} "
                        f"{cumulative}")
                inf_bucket = _series_labels(series, [("le", "+Inf")])
                lines.append(
                    f"{exposed}_bucket{_render_labels(inf_bucket)} "
                    f"{total}")
                lines.append(f"{exposed}_sum{_render_labels(series)} "
                             f"{_fnum(sketch.sum)}")
                lines.append(f"{exposed}_count{_render_labels(series)} "
                             f"{total}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parsing (the minimal scrape-side parser)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class MetricFamily:
    """One parsed family: name, kind, and its sample lines."""

    name: str
    kind: str
    help: str = ""
    #: The original dotted instrument name (``# SOURCE``), if present.
    source: str | None = None
    #: ``(sample name, labels, value)`` in exposition order.
    samples: list[tuple[str, dict[str, str], float]] = \
        dataclasses.field(default_factory=list)


def _unescape(text: str, line_no: int) -> str:
    out: list[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\":
            if index + 1 >= len(text):
                raise TelemetryError(
                    f"exposition line {line_no}: dangling escape")
            nxt = text[index + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise TelemetryError(
                    f"exposition line {line_no}: bad escape "
                    f"\\{nxt!r}")
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _parse_label_block(body: str, line_no: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    index = 0
    while index < len(body):
        match = _NAME_RE.match(body, index)
        if match is None:
            raise TelemetryError(
                f"exposition line {line_no}: bad label name at "
                f"{body[index:]!r}")
        name = match.group(0)
        index = match.end()
        if body[index:index + 2] != '="':
            raise TelemetryError(
                f"exposition line {line_no}: label {name!r} missing "
                f'="')
        index += 2
        value_chars: list[str] = []
        while index < len(body):
            char = body[index]
            if char == "\\":
                value_chars.append(body[index:index + 2])
                index += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            index += 1
        else:
            raise TelemetryError(
                f"exposition line {line_no}: unterminated label value")
        labels[name] = _unescape("".join(value_chars), line_no)
        index += 1  # closing quote
        if index < len(body):
            if body[index] != ",":
                raise TelemetryError(
                    f"exposition line {line_no}: expected ',' between "
                    f"labels")
            index += 1
    return labels


def _parse_value(text: str, line_no: int) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        raise TelemetryError(
            f"exposition line {line_no}: bad sample value {text!r}")


_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_exposition(text: str) -> list[MetricFamily]:
    """Parse exposition text, validating every line and the ordering.

    Raises :class:`TelemetryError` on any malformed line, a sample
    outside its family, or families out of sorted order — the contract
    the ``tools/check.sh`` admin-plane stage scrapes against.
    """
    families: list[MetricFamily] = []
    current: MetricFamily | None = None
    pending_help: tuple[str, str] | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            if not _NAME_RE.fullmatch(name):
                raise TelemetryError(
                    f"exposition line {line_no}: bad HELP name "
                    f"{name!r}")
            pending_help = (name, _unescape(help_text, line_no))
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            parts = rest.split(" ")
            if len(parts) != 2 or parts[1] not in (
                    "counter", "gauge", "histogram"):
                raise TelemetryError(
                    f"exposition line {line_no}: bad TYPE {rest!r}")
            name, kind = parts
            help_text = ""
            if pending_help is not None and pending_help[0] == name:
                help_text = pending_help[1]
            pending_help = None
            if families and families[-1].name >= name:
                raise TelemetryError(
                    f"exposition line {line_no}: family {name!r} out "
                    f"of sorted order after {families[-1].name!r}")
            current = MetricFamily(name=name, kind=kind, help=help_text)
            families.append(current)
            continue
        if line.startswith("# SOURCE "):
            rest = line[len("# SOURCE "):]
            name, _, source = rest.partition(" ")
            if current is None or current.name != name or not source:
                raise TelemetryError(
                    f"exposition line {line_no}: SOURCE outside its "
                    f"family")
            current.source = source
            continue
        if line.startswith("#"):
            continue  # other comments are legal and ignored
        match = _NAME_RE.match(line)
        if match is None:
            raise TelemetryError(
                f"exposition line {line_no}: unparseable line "
                f"{line!r}")
        sample_name = match.group(0)
        rest = line[match.end():]
        labels: dict[str, str] = {}
        if rest.startswith("{"):
            closing = _find_label_end(rest, line_no)
            labels = _parse_label_block(rest[1:closing], line_no)
            rest = rest[closing + 1:]
        if not rest.startswith(" "):
            raise TelemetryError(
                f"exposition line {line_no}: missing value separator")
        value = _parse_value(rest.strip(), line_no)
        if current is None:
            raise TelemetryError(
                f"exposition line {line_no}: sample before any TYPE")
        base = sample_name
        if current.kind == "histogram":
            for suffix in _SUFFIXES:
                if sample_name.endswith(suffix):
                    base = sample_name[:-len(suffix)]
                    break
            else:
                raise TelemetryError(
                    f"exposition line {line_no}: histogram sample "
                    f"{sample_name!r} lacks a "
                    f"_bucket/_sum/_count suffix")
        if base != current.name:
            raise TelemetryError(
                f"exposition line {line_no}: sample {sample_name!r} "
                f"outside family {current.name!r}")
        current.samples.append((sample_name, labels, value))
    return families


def _find_label_end(rest: str, line_no: int) -> int:
    """Index of the ``}`` closing the label block at ``rest[0] == '{'``."""
    index = 1
    in_quotes = False
    while index < len(rest):
        char = rest[index]
        if in_quotes:
            if char == "\\":
                index += 2
                continue
            if char == '"':
                in_quotes = False
        elif char == '"':
            in_quotes = True
        elif char == "}":
            return index
        index += 1
    raise TelemetryError(
        f"exposition line {line_no}: unterminated label block")


# ----------------------------------------------------------------------
# Reconstruction (obs --follow)
# ----------------------------------------------------------------------
def telemetry_from_exposition(text: str) -> Telemetry:
    """Rebuild a registry from a ``/metrics`` scrape.

    Counters and gauges round-trip exactly, and so does each histogram
    series' sketch (see :meth:`QuantileSketch.from_cumulative_buckets`).
    """
    telemetry = Telemetry()
    for family in parse_exposition(text):
        name = family.source or family.name
        if family.kind == "counter":
            counter = telemetry.counter(name, help=family.help)
            for _sample, labels, value in family.samples:
                counter.inc(value, **labels)
        elif family.kind == "gauge":
            gauge = telemetry.gauge(name, help=family.help)
            for _sample, labels, value in family.samples:
                gauge.set(value, **labels)
        else:
            _rebuild_histogram(telemetry, name, family)
    return telemetry


def _rebuild_histogram(telemetry: Telemetry, name: str,
                       family: MetricFamily) -> None:
    SeriesKey = tuple[tuple[str, str], ...]
    rows: dict[SeriesKey, list[tuple[float, int]]] = {}
    counts: dict[SeriesKey, int] = {}
    sums: dict[SeriesKey, float] = {}
    for sample_name, labels, value in family.samples:
        series = tuple(sorted((key, val) for key, val in labels.items()
                              if key != "le"))
        if sample_name.endswith("_bucket"):
            bound = _parse_value(labels.get("le", "+Inf"), 0)
            if bound != float("inf"):
                rows.setdefault(series, []).append((bound, int(value)))
        elif sample_name.endswith("_count"):
            counts[series] = int(value)
        else:
            sums[series] = value
    histogram = telemetry.histogram(name, help=family.help)
    for series in sorted(counts):
        histogram.merge_sketch(
            QuantileSketch.from_cumulative_buckets(
                sorted(rows.get(series, [])), counts[series],
                sums.get(series, 0.0)),
            **dict(series))
