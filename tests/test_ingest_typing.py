"""The typing contract of ingest: each distinct cell parsed once per table.

``parse_cell`` classifies a stripped cell in one pass, and
``rows_to_table`` parses each distinct raw string of a table once,
through a memo its columns share, taking each column's type from the set
of its value types.  Both must return what the cascade and the
per-column loop they replaced returned.  The replaced code is kept here
verbatim as the reference; ``TestIngestReportPin`` pins what the whole
pipeline makes of the tier-1 study's corpus.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe import (
    Column,
    DataFrameError,
    EmptyTableError,
    ParseError,
    Table,
    decode_bytes,
    infer_column_type,
    parse_cell,
    read_raw_rows,
    rows_to_table,
)
from repro.dataframe.types import NULL_TOKENS, DataType
from repro.generator import generate_portal
from repro.generator.profiles import ALL_PROFILES
from repro.ingest.header import infer_header
from repro.portal.magic import detect_mime


# ----------------------------------------------------------------------
# the replaced code, verbatim
# ----------------------------------------------------------------------
_TRUE_TOKENS = frozenset({"true", "yes", "t", "y"})
_FALSE_TOKENS = frozenset({"false", "no", "f", "n"})


def is_null_text(raw: str) -> bool:
    return raw.strip().lower() in NULL_TOKENS


def normalize_null_text(raw: str) -> str | None:
    return None if is_null_text(raw) else raw


def reference_parse_cell(raw: str):
    text = raw.strip()
    normalized = normalize_null_text(text)
    if normalized is None:
        return None
    value = try_parse_int(normalized)
    if value is not None:
        return value
    fvalue = try_parse_float(normalized)
    if fvalue is not None:
        return fvalue
    bvalue = try_parse_bool(normalized)
    if bvalue is not None:
        return bvalue
    return normalized


def try_parse_int(text: str) -> int | None:
    candidate = text
    if candidate.startswith(("+", "-")):
        candidate = candidate[1:]
    if not (candidate.isascii() and candidate.isdigit()):
        return None
    if len(candidate) > 1 and candidate[0] == "0":
        return None
    try:
        return int(text)
    except ValueError:  # pragma: no cover - isdigit() already guards this
        return None


def try_parse_float(text: str) -> float | None:
    lowered = text.lower()
    if lowered in ("inf", "+inf", "-inf", "infinity", "nan"):
        return None
    if "_" in text or not text.isascii():
        return None
    if not any(ch.isdigit() for ch in text):
        return None
    digits = text[1:] if text.startswith(("+", "-")) else text
    if digits.isdigit() and len(digits) > 1 and digits[0] == "0":
        return None  # leading-zero code (e.g. "00501"): keep as text
    try:
        return float(text)
    except ValueError:
        return None


def try_parse_bool(text: str) -> bool | None:
    lowered = text.lower()
    if lowered in _TRUE_TOKENS:
        return True
    if lowered in _FALSE_TOKENS:
        return False
    return None


def reference_infer_column_type(values) -> DataType:
    seen_int = seen_float = seen_bool = seen_text = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            seen_bool = True
        elif isinstance(value, int):
            seen_int = True
        elif isinstance(value, float):
            seen_float = True
        else:
            seen_text = True
    if seen_text:
        return DataType.TEXT
    if seen_bool:
        return DataType.BOOLEAN if not (seen_int or seen_float) else DataType.TEXT
    if seen_float:
        return DataType.FLOAT
    if seen_int:
        return DataType.INTEGER
    return DataType.EMPTY


def reference_rows_to_table(name, rows, header_index, num_columns=None):
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
    for column_name, raws in zip(header, zip(*body)):
        parsed = dict.fromkeys(raws)
        for raw in parsed:
            parsed[raw] = reference_parse_cell(raw)
        columns.append(
            Column(
                column_name,
                map(parsed.__getitem__, raws),
                reference_infer_column_type(parsed.values()),
            )
        )
    return Table(name, columns)


def _normalize_header(header_row, width):
    names = []
    for i in range(width):
        raw = header_row[i].strip() if i < len(header_row) else ""
        names.append(raw if raw else f"column_{i + 1}")
    return names


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def typed(value):
    """A cell as (type, repr): 1, True and 1.0 differ, as do 0.0 and -0.0."""
    return type(value), repr(value)


def typed_columns(table):
    return [
        (c.name, c.dtype, [typed(v) for v in c.values]) for c in table.columns
    ]


#: Spellings at every edge of the cascade: signs, leading zeros, codes,
#: specials, exponents, overflow, padding, non-ASCII digits and space.
EDGE_CELLS = (
    "2019_20", "007", "-007", "+007", "00", "-0", "+0", "0", "١٢٣", "-١٢",
    "１２", "²", "+.5", "-.5", ".5", "5.", ".", "+", "-", "e5", "1e", "1e5",
    "1E+5", "1.e5", ".e5", "0e0", "00.5", "007e1", "1e400", "-1e400",
    " 12", "12 ", "\t-3\n", "\u00a012\u2003", "1 2", "1_000", "0x1f",
    "inf", "-inf", "+inf", "Infinity", "-infinity", "nan", "-nan", "NaN",
    "true", "TRUE", "Yes", "t", "y", "false", "No", "F", "n", "N/A", "n/d",
    "null", "...", "", " ", "Ontario", "İ", "ǅ", "3.14", "-0.0", "1.0",
    "123456789012345678901234567890",
)


# ----------------------------------------------------------------------
# parse_cell
# ----------------------------------------------------------------------
class TestParseCellOracle:
    @pytest.mark.parametrize("raw", EDGE_CELLS)
    def test_edge_spellings(self, raw):
        assert typed(parse_cell(raw)) == typed(reference_parse_cell(raw))

    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(
            st.text(max_size=8),
            st.text(alphabet="0123456789+-.eE_ \t", max_size=8),
            st.text(alphabet="0123456789١٢٣０１２²³.+-eE", max_size=6),
            st.from_regex(r"\s*[+-]?[0-9]*\.?[0-9]*([eE][+-]?[0-9]+)?\s*"),
        )
    )
    @example("2019_20")
    @example("007")
    @example("-007")
    @example("١٢٣")
    @example("１２")
    @example("²")
    @example("+.5")
    @example("0e0")
    @example(" 12")
    def test_matches_the_cascade(self, raw):
        assert typed(parse_cell(raw)) == typed(reference_parse_cell(raw))

    def test_overflow_stays_inf(self):
        assert parse_cell("1e400") == math.inf
        assert parse_cell("-1e400") == -math.inf

    def test_int_beyond_the_digit_limit_reads_as_float(self):
        # int() refuses more than 4300 digits; the cascade then read the
        # cell with float(), which overflows to inf.
        assert typed(parse_cell("9" * 5000)) == typed(
            reference_parse_cell("9" * 5000)
        )


class TestColumnTypeOracle:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.floats(),
                st.text(max_size=2),
            ),
            max_size=6,
        )
    )
    def test_matches_the_flag_loop(self, values):
        assert infer_column_type(values) is reference_infer_column_type(values)


# ----------------------------------------------------------------------
# rows_to_table
# ----------------------------------------------------------------------
class TestRowsToTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(st.sampled_from(EDGE_CELLS), st.text(max_size=3)),
                max_size=6,
            ),
            min_size=1,
            max_size=10,
        ),
        data=st.data(),
    )
    def test_matches_the_per_column_loop(self, rows, data):
        header_index = data.draw(st.integers(0, len(rows) - 1))
        num_columns = data.draw(st.one_of(st.none(), st.integers(1, 7)))
        if num_columns is None and not rows[header_index]:
            return  # zero-width header: rejected by both
        table = rows_to_table("t", rows, header_index, num_columns)
        reference = reference_rows_to_table(
            "t", rows, header_index, num_columns
        )
        assert table.column_names == reference.column_names
        assert typed_columns(table) == typed_columns(reference)

    def test_a_raw_shared_by_columns_parses_alike(self):
        rows = [["a", "b", "c"], ["1", "1", "x"], ["007", "1", "1"]]
        table = rows_to_table("t", rows, 0)
        assert typed_columns(table) == typed_columns(
            reference_rows_to_table("t", rows, 0)
        )
        assert [c.dtype for c in table.columns] == [
            DataType.TEXT, DataType.INTEGER, DataType.TEXT,
        ]

    @pytest.mark.parametrize("scale", [0.02, 0.05])
    def test_every_payload_of_the_benchmark_corpora(self, scale):
        """Every CSV payload of the seed-11 corpora types as before: the
        same cell (type, value) and the same dtype in every column."""
        payloads = 0
        for profile in ALL_PROFILES:
            generated = generate_portal(profile, seed=11, scale=scale)
            for dataset in generated.portal.datasets:
                for resource in dataset.resources:
                    blob = generated.store.get(resource.url)
                    if blob is None or detect_mime(blob.content) != "text/csv":
                        continue
                    rows = read_raw_rows(decode_bytes(blob.content))
                    if len(rows) < 2:
                        continue
                    inference = infer_header(rows)
                    args = (
                        resource.name,
                        rows,
                        inference.header_index,
                        inference.num_columns,
                    )
                    try:
                        reference = reference_rows_to_table(*args)
                    except DataFrameError as exc:
                        with pytest.raises(type(exc)):
                            rows_to_table(*args)
                        continue
                    assert typed_columns(rows_to_table(*args)) == (
                        typed_columns(reference)
                    )
                    payloads += 1
        assert payloads == {0.02: 36, 0.05: 50}[scale]


# ----------------------------------------------------------------------
# the ingest reports of the tier-1 study
# ----------------------------------------------------------------------
def ingest_digest(report) -> str:
    """sha256 over one portal's ingest report.

    In order: the crawl totals and outcome counts, then per parsed table
    its provenance (resource, outcome, header index, trailing and wide
    flags) and the name, dtype and cell reprs of every column of its raw
    and its cleaned table.
    """
    digest = hashlib.sha256()

    def feed(*parts):
        digest.update(repr(parts).encode("utf-8"))
        digest.update(b"\n")

    feed(
        report.portal_code,
        report.total_datasets,
        report.total_declared_tables,
        report.downloadable_tables,
        report.readable_tables,
        sorted((o.name, n) for o, n in report.outcome_counts.items()),
        sorted(report.tables_per_dataset.items()),
    )
    for table in report.tables:
        feed(
            table.resource_id,
            table.name,
            table.degraded,
            table.raw_size_bytes,
            table.header_index,
            table.trailing_columns_removed,
            table.dropped_as_wide,
        )
        for label, parsed in (("raw", table.raw), ("clean", table.clean)):
            if parsed is None:
                feed(label, None)
                continue
            for column in parsed.columns:
                feed(
                    label,
                    column.name,
                    column.dtype.value,
                    [repr(v) for v in column.values],
                )
    return digest.hexdigest()


#: One digest per portal of the tier-1 study (scale 0.18, seed 3).  The
#: ingest oracle: a change that moves what ingest makes of the corpus on
#: purpose updates these and says so.
PINNED_INGEST_DIGESTS = {
    "SG": "9c09cb9d671a047562c6d62b435e7296a8e904dc45a5712f55ad28fd699bb01b",
    "CA": "efd2029ee2953afe15710c50c12f4ea25e4d94b62dda98f28590ca33cae4943e",
    "UK": "6e98b64116863eb43415f5fc78450ca87d7a98b776bad5d71ebe6d1696570a50",
    "US": "7726596746995b4a721f9b63c7f3dba428e013faa7d180d6fd66de65d7205a31",
}


class TestIngestReportPin:
    @pytest.mark.parametrize("code", sorted(PINNED_INGEST_DIGESTS))
    def test_portal_report_is_pinned(self, study, code):
        report = study.portal(code).report
        assert ingest_digest(report) == PINNED_INGEST_DIGESTS[code]
