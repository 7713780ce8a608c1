"""Realistic publication defects, applied at serialization time.

OGDP CSVs are dirty in specific, well-documented ways (paper §2.2, §3.3):
null-riddled columns, entirely empty columns, trailing empty columns,
title rows above the header, unnamed header cells, tables blown wide by
repeated periodical column blocks, and transposed tables.  This module
injects exactly those defects while serializing a
:class:`~repro.generator.denormalize.TableDraft` to CSV bytes.
"""

from __future__ import annotations

import dataclasses
import io
import csv
import operator
import random

from .denormalize import TableDraft
from .lineage import ColumnRole

#: Textual null spellings publishers actually use (subset of the paper's
#: list).  One spelling is picked per table — files are internally
#: consistent about how they write missing values.
NULL_SPELLINGS = ("", "N/A", "-", "...", "null", "n/d")

#: Roles that receive damped null injection (identifiers and link
#: columns are rarely null in practice).
_PROTECTED_ROLES = frozenset(
    {ColumnRole.ID, ColumnRole.ENTITY_KEY, ColumnRole.LEVEL, ColumnRole.TEMPORAL}
)


@dataclasses.dataclass(frozen=True)
class CorruptionKnobs:
    """Per-portal defect rates (calibrated from the paper's §3)."""

    column_null_probability: float = 0.5
    heavy_null_probability: float = 0.25
    full_null_probability: float = 0.03
    trailing_empty_probability: float = 0.10
    preamble_probability: float = 0.06
    unnamed_header_probability: float = 0.04
    wide_malformed_probability: float = 0.015
    transpose_probability: float = 0.004


@dataclasses.dataclass
class CorruptionOutcome:
    """What was done to one table during serialization."""

    payload: bytes
    preamble_rows: int = 0
    wide_malformed: bool = False
    transposed: bool = False
    header_has_unnamed: bool = False


def corrupt_and_serialize(
    draft: TableDraft,
    knobs: CorruptionKnobs,
    rng: random.Random,
    organization: str,
) -> CorruptionOutcome:
    """Serialize *draft* to CSV bytes with injected publication defects."""
    header = list(draft.header)
    columns = [list(values) for _, values in draft.columns]
    n_rows = draft.num_rows

    _inject_nulls(columns, draft, knobs, rng)

    if rng.random() < knobs.trailing_empty_probability:
        # Trailing-comma artifacts: genuinely blank cells, never the
        # table's textual null spelling.
        for _ in range(rng.randint(1, 4)):
            header.append("")
            columns.append([""] * n_rows)

    unnamed = False
    if header and rng.random() < knobs.unnamed_header_probability:
        header[rng.randrange(len(header))] = ""
        unnamed = True

    wide = False
    if rng.random() < knobs.wide_malformed_probability:
        header, columns = _widen(header, columns, rng)
        wide = True

    rows = _to_string_rows(header, columns, rng)

    transposed = False
    if not wide and rng.random() < knobs.transpose_probability:
        rows = [list(row) for row in zip(*rows)]
        transposed = True

    preamble = 0
    if rng.random() < knobs.preamble_probability:
        preamble_rows = _preamble(draft.name, organization, rng)
        rows = preamble_rows + rows
        preamble = len(preamble_rows)

    payload = _serialize(rows)
    return CorruptionOutcome(
        payload=payload,
        preamble_rows=preamble,
        wide_malformed=wide,
        transposed=transposed,
        header_has_unnamed=unnamed,
    )


def _inject_nulls(
    columns: list[list],
    draft: TableDraft,
    knobs: CorruptionKnobs,
    rng: random.Random,
) -> None:
    n_rows = draft.num_rows
    if n_rows == 0:
        return
    positions_by_name = {
        lineage.name: position
        for position, lineage in enumerate(draft.lineage_columns)
    }
    for position, lineage in enumerate(draft.lineage_columns):
        protected = lineage.role in _PROTECTED_ROLES
        if rng.random() < knobs.full_null_probability and not protected:
            columns[position][:] = [None] * n_rows
            continue
        probability = knobs.column_null_probability * (0.15 if protected else 1.0)
        if rng.random() >= probability:
            continue
        if rng.random() < knobs.heavy_null_probability and not protected:
            ratio = rng.uniform(0.5, 0.95)
        else:
            ratio = rng.uniform(1.0 / n_rows, 0.30)
        count = max(1, round(ratio * n_rows))
        parent_position = positions_by_name.get(lineage.fd_parent or "")
        if parent_position is not None:
            # Descriptive attributes go missing per *entity*, not per
            # cell: if the species group is unknown for "Lumpfish", it
            # is unknown on every Lumpfish row.  Cell-wise nulls would
            # silently destroy the planted FD (null is a value to FD
            # checkers, so one mixed group breaks the dependency).
            parent_values = columns[parent_position]
            distinct = sorted({str(v) for v in parent_values})
            if distinct:
                target = max(1, round(ratio * len(distinct)))
                chosen = set(
                    rng.sample(distinct, min(target, len(distinct)))
                )
                for index in range(n_rows):
                    if str(parent_values[index]) in chosen:
                        columns[position][index] = None
                continue
        for index in rng.sample(range(n_rows), min(count, n_rows)):
            columns[position][index] = None


def _widen(
    header: list[str], columns: list[list], rng: random.Random
) -> tuple[list[str], list[list]]:
    """Repeat the column block until the table exceeds the 100-col cutoff.

    Mirrors the malformed "repeated periodical columns" tables the paper
    removed with its width cutoff.
    """
    repeats = max(2, (rng.randint(105, 400) // max(1, len(header))) + 1)
    wide_header = header * repeats
    wide_columns = [list(values) for _ in range(repeats) for values in columns]
    return wide_header, wide_columns


def _preamble(table_name: str, organization: str, rng: random.Random) -> list[list[str]]:
    title = table_name.replace("_", " ").title()
    candidates = [
        [f"Table: {title}"],
        [f"Source: {organization}"],
        ["Extracted:", f"{rng.randint(2018, 2022)}-0{rng.randint(1, 9)}-15"],
        [],
    ]
    count = rng.randint(1, 3)
    return candidates[:count]


def _to_string_rows(
    header: list[str], columns: list[list], rng: random.Random
) -> list[list[str]]:
    null_spelling = rng.choice(NULL_SPELLINGS)
    cells = [_format_column(values, null_spelling) for values in columns]
    return [header, *map(list, zip(*cells))]


#: How a column whose non-null cells all have one exact type is written;
#: each writer returns what :func:`_format` returns for such a cell.
_COLUMN_WRITERS = {
    str: str,
    int: str,
    bool: {True: "true", False: "false"}.__getitem__,
    float: operator.methodcaller("__format__", ".2f"),
}


def _format_column(values: list, null_spelling: str) -> list[str]:
    """Write a column's cells as :func:`_format` does, one type check in all."""
    kinds = set(map(type, values))
    has_nulls = type(None) in kinds
    kinds.discard(type(None))
    write = _COLUMN_WRITERS.get(kinds.pop()) if len(kinds) == 1 else None
    if write is None:
        # All null, mixed types, or a type without a writer.
        return [_format(value, null_spelling) for value in values]
    if not has_nulls:
        return list(map(write, values))
    return [null_spelling if value is None else write(value) for value in values]


def _format(value, null_spelling: str) -> str:
    if value is None:
        return null_spelling
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Always keep a decimal point: "5.00", not "5".  Mixed spellings
        # would flip a column's inferred dtype between sibling tables
        # and spuriously break exact-schema unionability.
        return f"{value:.2f}"
    return str(value)


def _serialize(rows: list[list[str]]) -> bytes:
    """*rows* (of strings) as ``csv.writer(lineterminator="\\n")`` writes them.

    The writer leaves a field as it is unless it holds a comma, a quote
    or a line break (``\\r`` too from Python 3.13; a NUL is an error on
    3.10), or is its row's only field and empty.  So when no field is
    special and no row is empty, its output is the fields joined by
    commas, one line per row.  The joined text proves that cheaply: no
    quote, ``\\r``, NUL or empty line, one newline per row and one comma
    between neighbouring fields.  Any other table goes through the
    writer.
    """
    text = "\n".join(map(",".join, rows)) + "\n"
    if (
        '"' not in text
        and "\r" not in text
        and "\0" not in text
        and "\n\n" not in text
        and not text.startswith("\n")
        and text.count("\n") == len(rows)
        and text.count(",") == sum(map(len, rows)) - len(rows)
    ):
        return text.encode("utf-8")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


# ----------------------------------------------------------------------
# masquerading non-CSV payloads (declared CSV, actually something else)
# ----------------------------------------------------------------------
_HTML_ERROR = (
    b"<!DOCTYPE html><html><head><title>Dataset moved</title></head>"
    b"<body><h1>This resource has moved</h1>"
    b"<p>Please visit the new portal page.</p></body></html>"
)

_PDF_STUB = b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\ntrailer\n%%EOF\n"

_XLS_STUB = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 64


def masquerade_payload(rng: random.Random) -> bytes:
    """Bytes for a resource that claims CSV but is not (readability loss)."""
    return rng.choice((_HTML_ERROR, _PDF_STUB, _XLS_STUB))
