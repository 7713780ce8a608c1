"""Unit tests for repro.dataframe.csvio."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import (
    Column,
    EmptyTableError,
    ParseError,
    Table,
    decode_bytes,
    read_csv,
    read_raw_rows,
    rows_to_table,
    write_csv,
)
from repro.dataframe.infer import parse_cell

#: Raw cells covering every parse outcome, including values that parse
#: equal but must keep distinct types (1, True, 1.0).
RAW_CELLS = (
    "1", "-7", "+3", "0", "1.0", "3.14", "1e3", "-0.5", "true", "True",
    "No", "y", "", " ", "n/a", "NULL", "-", "...", "nan", "-nan", "inf",
    " 42 ", "  Ontario ", "Ontario", "007", "00501", "2019_20", "١٢٣",
)


def reference_table(name, rows, header_index, num_columns=None):
    """The per-cell path: parse every cell, transpose with from_rows."""
    header_row = rows[header_index]
    width = len(header_row) if num_columns is None else num_columns
    header = [
        (header_row[i].strip() if i < len(header_row) else "")
        or f"column_{i + 1}"
        for i in range(width)
    ]
    typed_rows = (
        [parse_cell(row[i]) if i < len(row) else None for i in range(width)]
        for row in rows[header_index + 1 :]
    )
    return Table.from_rows(name, header, typed_rows)


def typed_cells(table):
    """Names, dtypes and (type, repr) of every cell: 1, True, 1.0 differ."""
    return [
        (c.name, c.dtype, [(type(v), repr(v)) for v in c.values])
        for c in table.columns
    ]


class TestDecodeBytes:
    def test_utf8(self):
        assert decode_bytes("héllo".encode("utf-8")) == "héllo"

    def test_utf8_bom_stripped(self):
        assert decode_bytes(b"\xef\xbb\xbfa,b") == "a,b"

    def test_latin1_fallback(self):
        assert decode_bytes(b"caf\xe9") == "café"


class TestReadRawRows:
    def test_basic(self):
        rows = read_raw_rows("a,b\n1,2\n")
        assert rows == [["a", "b"], ["1", "2"]]

    def test_quoted_fields(self):
        rows = read_raw_rows('a,b\n"x,y",2\n')
        assert rows[1] == ["x,y", "2"]

    def test_blank_lines_dropped(self):
        rows = read_raw_rows("a\n\n\n1\n")
        assert rows == [["a"], ["1"]]

    def test_max_rows(self):
        rows = read_raw_rows("a\n1\n2\n3\n", max_rows=2)
        assert len(rows) == 2


class TestRowsToTable:
    def test_header_at_offset(self):
        rows = [["Title"], ["a", "b"], ["1", "2"]]
        table = rows_to_table("t", rows, header_index=1)
        assert table.column_names == ("a", "b")
        assert table.row(0) == (1, 2)

    def test_width_override(self):
        rows = [["a", "b"], ["1", "2", "junk"], ["3"]]
        table = rows_to_table("t", rows, header_index=0, num_columns=2)
        assert table.num_columns == 2
        assert table.row(1) == (3, None)

    def test_blank_header_cells_named(self):
        table = rows_to_table("t", [["a", "", "c"], ["1", "2", "3"]], 0)
        assert table.column_names == ("a", "column_2", "c")

    def test_equals_per_cell_reference(self):
        rows = [
            ["Quarterly report"],
            ["id", "mixed", "flag", "code", "empty", "num", ""],
            ["1", "1", "true", "007", "", " 2 ", "x"],
            ["2", "1.0", "True", "00501", "n/a"],
            ["3", "True", "no", "12", "NULL", "2.5", "y", "overflow"],
            [" 4 ", "one", "Y", "007", "-", "", ""],
        ]
        for num_columns in (None, 3, 9):
            table = rows_to_table("t", rows, 1, num_columns)
            assert typed_cells(table) == typed_cells(
                reference_table("t", rows, 1, num_columns)
            )
        mixed = rows_to_table("t", rows, 1).column("mixed").values
        assert [type(v) for v in mixed] == [int, float, bool, str]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(st.sampled_from(RAW_CELLS), st.text(max_size=3)),
                max_size=6,
            ),
            min_size=1,
            max_size=10,
        ),
        data=st.data(),
    )
    def test_equals_per_cell_reference_on_any_rows(self, rows, data):
        header_index = data.draw(st.integers(0, len(rows) - 1))
        num_columns = data.draw(st.one_of(st.none(), st.integers(1, 7)))
        if num_columns is None and not rows[header_index]:
            return  # zero-width header: rejected (see test_errors)
        table = rows_to_table("t", rows, header_index, num_columns)
        assert typed_cells(table) == typed_cells(
            reference_table("t", rows, header_index, num_columns)
        )

    def test_errors(self):
        with pytest.raises(EmptyTableError):
            rows_to_table("t", [], 0)
        with pytest.raises(ParseError):
            rows_to_table("t", [["a"]], 5)
        with pytest.raises(EmptyTableError):
            rows_to_table("t", [[]], 0)


class TestReadWriteRoundTrip:
    def test_read_csv_types(self):
        table = read_csv("name,count,rate\nWaterloo,5,0.25\nGuelph,,0.5\n")
        assert table.column("count").values == [5, None]
        assert table.column("rate").values == [0.25, 0.5]

    def test_roundtrip_preserves_values(self):
        table = Table(
            "t",
            [
                Column("i", [1, None, 3]),
                Column("f", [1.5, 2.5, None]),
                Column("b", [True, False, None]),
                Column("s", ["a,b", 'q"uote', ""]),
            ],
        )
        back = read_csv(write_csv(table))
        assert back.column("i").values == [1, None, 3]
        assert back.column("f").values == [1.5, 2.5, None]
        assert back.column("b").values == [True, False, None]
        # "" round-trips to None: empty cells are nulls by convention.
        assert back.column("s").values == ["a,b", 'q"uote', None]

    def test_write_csv_header(self):
        table = Table("t", [Column("a", [1])])
        assert write_csv(table).splitlines()[0] == "a"

    def test_empty_input_raises(self):
        with pytest.raises(EmptyTableError):
            read_csv("")
