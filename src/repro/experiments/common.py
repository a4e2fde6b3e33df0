"""Shared experiment scaffolding: result tables and run scaling.

Every experiment function takes ``(quick, seed, jobs)`` and returns one
or more :class:`ExperimentTable` objects that render as the same rows
the paper prints.  ``quick`` trades simulated duration for wall-clock
time; the full setting matches the paper's one-hour runs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os

from repro.sim.kernel import HOUR, MINUTE

__all__ = ["ExperimentTable", "quick_duration", "full_requested"]


@dataclasses.dataclass
class ExperimentTable:
    """A rendered experiment result: titled rows of named columns."""

    title: str
    columns: list[str]
    rows: list[dict[str, object]] = dataclasses.field(default_factory=list)
    notes: list[str] = dataclasses.field(default_factory=list)

    def add_row(self, **values: object) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> list[object]:
        return [row.get(name) for row in self.rows]

    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}" if abs(value) < 10 else f"{value:.1f}"
        return str(value)

    def render(self) -> str:
        """Fixed-width text rendering, one row per line."""
        cells = [[self._format(row.get(column, "")) for column in
                  self.columns] for row in self.rows]
        widths = [max(len(column), *(len(line[index]) for line in cells))
                  if cells else len(column)
                  for index, column in enumerate(self.columns)]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(column.ljust(width) for column, width
                               in zip(self.columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for line in cells:
            lines.append("  ".join(cell.ljust(width) for cell, width
                                   in zip(line, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """CSV rendering (header row + data rows)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({column: row.get(column, "")
                             for column in self.columns})
        return buffer.getvalue()

    def to_json(self) -> str:
        """JSON rendering: title, columns, rows, notes."""
        return json.dumps({
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }, indent=2, default=str)

    def __str__(self) -> str:
        return self.render()


def full_requested() -> bool:
    """True when the environment asks for paper-length runs.

    Read once, by the entry points (the CLI and the report tool), which
    turn it into the ``quick`` flag every experiment takes.
    """
    return os.environ.get("REPRO_FULL", "") not in ("", "0", "false")


def quick_duration(quick: bool, quick_s: float = 4 * MINUTE,
                   full_s: float = 1 * HOUR) -> float:
    """Simulated duration: short for CI, paper-length otherwise."""
    return quick_s if quick else full_s
