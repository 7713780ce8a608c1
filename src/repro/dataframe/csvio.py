"""CSV serialization for the dataframe engine.

Reading is split into two layers so that the ingestion pipeline can run
the paper's header-inference heuristic between them:

* :func:`read_raw_rows` — bytes/text -> list of raw string rows;
* :func:`rows_to_table` — raw rows + header row index -> typed table.

:func:`read_csv` composes the two with a trivial "first row is header"
policy for callers outside the pipeline.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from .column import Column
from .errors import EmptyTableError, ParseError
from .infer import infer_column_type, parse_cell
from .table import Table


def decode_bytes(payload: bytes) -> str:
    """Decode CSV bytes, trying UTF-8 (with BOM) then Latin-1.

    Latin-1 never fails, so this function always returns text; mojibake in
    a government CSV is the publisher's bug, not a reason to drop data.
    """
    try:
        return payload.decode("utf-8-sig")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def read_raw_rows(text: str, max_rows: int | None = None) -> list[list[str]]:
    """Parse CSV *text* into raw (untyped) string rows.

    Uses the stdlib ``csv`` reader, so quoting and embedded separators
    follow RFC 4180.  Completely empty physical lines are dropped.
    """
    try:
        reader = csv.reader(io.StringIO(text))
        rows: list[list[str]] = []
        for row in reader:
            if not row:
                continue
            rows.append(row)
            if max_rows is not None and len(rows) >= max_rows:
                break
        return rows
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc


def rows_to_table(
    name: str,
    rows: Sequence[Sequence[str]],
    header_index: int,
    num_columns: int | None = None,
) -> Table:
    """Build a typed table from raw rows given the header row's index.

    Rows above the header (title lines, publisher banners) are discarded.
    *num_columns* fixes the table width; when omitted it is the header
    row's width.  Data rows are padded/truncated to that width.
    """
    if not rows:
        raise EmptyTableError(f"{name}: no rows")
    if not 0 <= header_index < len(rows):
        raise ParseError(
            f"{name}: header index {header_index} out of range "
            f"for {len(rows)} rows"
        )
    header_row = rows[header_index]
    width = num_columns if num_columns is not None else len(header_row)
    if width == 0:
        raise EmptyTableError(f"{name}: zero-width header")
    header = _normalize_header(header_row, width)
    body = [
        row if len(row) >= width else list(row) + [""] * (width - len(row))
        for row in rows[header_index + 1 :]
    ]
    if not body:
        return Table.empty(name, header)
    columns = []
    # zip(*body) transposes rows into raw columns; zip with the header
    # stops at the table width, dropping the cells of overlong rows.
    for column_name, raws in zip(header, zip(*body)):
        # OGDP columns repeat heavily (the paper's §4 finding), so each
        # distinct raw string is parsed once; a padded "" parses to None.
        parsed = dict.fromkeys(raws)
        for raw in parsed:
            parsed[raw] = parse_cell(raw)
        columns.append(
            Column(
                column_name,
                map(parsed.__getitem__, raws),
                # The type depends only on which value types occur.
                infer_column_type(parsed.values()),
            )
        )
    return Table(name, columns)


def read_csv(text: str, name: str = "table") -> Table:
    """Parse CSV *text* whose first row is the header."""
    rows = read_raw_rows(text)
    if not rows:
        raise EmptyTableError(f"{name}: empty input")
    return rows_to_table(name, rows, header_index=0)


def write_csv(table: Table) -> str:
    """Serialize *table* to CSV text with a header row.

    Nulls are written as empty cells; booleans as ``true``/``false`` so
    they round-trip through :func:`~repro.dataframe.infer.parse_cell`.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.iter_rows():
        writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _normalize_header(header_row: Sequence[str], width: int) -> list[str]:
    """Pad/truncate the header to *width*, naming blanks ``column_<i>``."""
    names: list[str] = []
    for i in range(width):
        raw = header_row[i].strip() if i < len(header_row) else ""
        names.append(raw if raw else f"column_{i + 1}")
    return names
