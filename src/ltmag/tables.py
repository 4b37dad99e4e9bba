"""Unit-annotated result tables with CSV and JSON round-trip.

CSV layout: provenance as leading ``# key = value`` comment lines, one
header row ``name [unit]`` per column, then data rows.  Dimensionless
columns carry the unit ``1``; text columns no bracket.  Absent cells
(points where a solver legitimately had no answer) are empty fields in
CSV and null in JSON, never zeros.  Numbers are written with full
round-trip precision and ``.`` as the decimal separator; a non-finite
one, which JSON has no literal for, as its CSV text (``inf``, ``-inf``,
``nan``) in a JSON string, read back as the float.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field

from .errors import InvalidConfigError

Cell = float | int | str | None


@dataclass(frozen=True)
class Column:
    name: str
    unit: str = "1"   # "1" dimensionless, "" for text columns

    def header(self) -> str:
        return f"{self.name} [{self.unit}]" if self.unit else self.name


_HEADER_RE = re.compile(r"^(?P<name>.*?)(?:\s\[(?P<unit>[^\][]*)\])?$")


@dataclass
class OutputTable:
    """Rectangular results with named, unit-annotated columns."""

    columns: tuple[Column, ...]
    rows: list[tuple[Cell, ...]] = field(default_factory=list)
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvalidConfigError(
                    f"row has {len(row)} cells, table has "
                    f"{len(self.columns)} columns")

    def column_index(self, name: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise KeyError(name)

    def column_values(self, name: str) -> list[Cell]:
        i = self.column_index(name)
        return [row[i] for row in self.rows]

    # --- CSV ---

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.provenance):
            buf.write(f"# {key} = {self.provenance[key]}\n")
        buf.write(",".join(col.header() for col in self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(_cell_to_text(c) for c in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "OutputTable":
        provenance: dict[str, str] = {}
        lines = [ln for ln in text.splitlines() if ln.strip()]
        body = []
        for ln in lines:
            if ln.startswith("#"):
                key, _, value = ln[1:].partition("=")
                provenance[key.strip()] = value.strip()
            else:
                body.append(ln)
        if not body:
            raise InvalidConfigError("CSV table has no header row")
        columns = tuple(_parse_header(h) for h in body[0].split(","))
        rows = [tuple(_cell_from_text(c) for c in ln.split(","))
                for ln in body[1:]]
        return cls(columns=columns, rows=rows, provenance=provenance)

    # --- JSON ---

    def to_json(self) -> str:
        doc = {
            "provenance": dict(sorted(self.provenance.items())),
            "columns": [{"name": c.name, "unit": c.unit}
                        for c in self.columns],
            "rows": [[_cell_to_text(c) if isinstance(c, float)
                      and not math.isfinite(c) else c for c in row]
                     for row in self.rows],
        }
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OutputTable":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"malformed JSON table: {exc}") from exc
        if not isinstance(doc, dict):
            raise InvalidConfigError("JSON table must be an object")
        rows = doc.get("rows", [])
        if not (isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise InvalidConfigError("JSON table rows must be lists")
        try:
            columns = tuple(Column(c["name"], c["unit"])
                            for c in doc.get("columns", ()))
            provenance = dict(doc.get("provenance", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfigError(
                f"malformed JSON table header: {exc!r}") from exc
        return cls(columns=columns,
                   rows=[tuple(float(c) if c in ("inf", "-inf", "nan")
                               else c for c in row) for row in rows],
                   provenance=provenance)

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise InvalidConfigError(f"unknown output format {fmt!r}")


def _cell_to_text(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, float):
        # float() strips subclasses whose repr is not a bare literal
        return repr(float(cell))
    if isinstance(cell, int):
        return str(cell)
    text = str(cell)
    if "," in text or "\n" in text or text.startswith("#"):
        raise InvalidConfigError(
            f"text cell {text!r} would corrupt the CSV layout")
    return text


def _cell_from_text(text: str) -> Cell:
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        value = int(text)
        return value
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_header(header: str) -> Column:
    m = _HEADER_RE.match(header.strip())
    name = m.group("name").strip()
    unit = m.group("unit")
    return Column(name=name, unit=unit if unit is not None else "")
