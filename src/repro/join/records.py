"""Record line format.

Records are tab-separated text lines, exactly the shape the paper
produced when preprocessing DBLP/CITESEERX (Section 6): field 0 is a
unique integer RID, the remaining fields are attributes (title, list
of authors, the rest of the content).  The join attribute is the
concatenation of one or more fields — the evaluation uses
title + authors, i.e. fields ``(1, 2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.prefixes import REL_R as REL_R
from repro.core.prefixes import REL_S as REL_S

FIELD_SEP = "\t"


@dataclass(frozen=True)
class RecordSchema:
    """Which record fields form the join attribute."""

    join_fields: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if not self.join_fields:
            raise ValueError("join_fields must name at least one field")
        if 0 in self.join_fields:
            raise ValueError("field 0 is the RID, not a joinable attribute")


def make_line(rid: int, fields: list[str] | tuple[str, ...]) -> str:
    """Build a record line from a RID and its attribute fields."""
    for field in fields:
        if FIELD_SEP in field or "\n" in field:
            raise ValueError(f"field contains separator: {field!r}")
    return FIELD_SEP.join((str(rid), *fields))


def parse_fields(line: str) -> list[str]:
    """Split a record line into ``[rid, field1, ...]``."""
    return line.rstrip("\n").split(FIELD_SEP)


def rid_of(line: str) -> int:
    """Extract the RID of a record line."""
    head, _sep, _rest = line.partition(FIELD_SEP)
    return int(head)


def join_value(line: str, schema: RecordSchema) -> str:
    """Concatenate the join-attribute fields of a record line."""
    fields = parse_fields(line)
    parts = []
    for index in schema.join_fields:
        if index < len(fields):
            parts.append(fields[index])
    return " ".join(parts)
