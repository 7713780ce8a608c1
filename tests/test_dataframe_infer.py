"""Unit tests for repro.dataframe.infer."""

import pytest

from repro.dataframe.infer import (
    infer_column_type,
    parse_cell,
    try_parse_bool,
    try_parse_float,
    try_parse_int,
    type_of_cell,
)
from repro.dataframe.types import DataType


class TestParseCell:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("42", 42),
            ("-7", -7),
            ("+3", 3),
            ("0", 0),
            ("3.14", 3.14),
            ("-0.5", -0.5),
            ("1e3", 1000.0),
            ("true", True),
            ("No", False),
            ("Ontario", "Ontario"),
            ("", None),
            ("n/a", None),
            ("NULL", None),
        ],
    )
    def test_parses(self, raw, expected):
        assert parse_cell(raw) == expected
        if expected is not None:
            assert type(parse_cell(raw)) is type(expected)

    def test_strips_whitespace(self):
        assert parse_cell("  42 ") == 42
        assert parse_cell("  Ontario ") == "Ontario"

    def test_leading_zero_codes_stay_text(self):
        # Postal/FIPS codes must not lose their leading zeros.
        assert parse_cell("00501") == "00501"
        assert parse_cell("007") == "007"

    def test_plain_zero_is_int(self):
        assert parse_cell("0") == 0
        assert isinstance(parse_cell("0"), int)

    @pytest.mark.parametrize(
        "raw", ["2019_20", "10_1", "1_000.5", "١٢٣", "١٢٣.٥", "１２"]
    )
    def test_text_codes_stay_text(self, raw):
        # float() accepts PEP 515 underscores and int()/float() accept
        # non-ASCII digits; a CSV cell spelled that way is a code.
        assert parse_cell(raw) == raw


class TestScalarParsers:
    def test_int_rejects_float_text(self):
        assert try_parse_int("3.5") is None
        assert try_parse_int("abc") is None
        assert try_parse_int("") is None

    def test_float_rejects_specials(self):
        for text in ("inf", "-inf", "nan", "Infinity"):
            assert try_parse_float(text) is None

    def test_float_requires_a_digit(self):
        assert try_parse_float("e") is None
        assert try_parse_float(".") is None

    def test_numbers_are_plain_ascii(self):
        assert try_parse_int("١٢٣") is None
        assert try_parse_int("-١٢") is None
        assert try_parse_float("2019_20") is None
        assert try_parse_float("١٢٣") is None

    def test_bool_spellings(self):
        assert try_parse_bool("TRUE") is True
        assert try_parse_bool("y") is True
        assert try_parse_bool("f") is False
        assert try_parse_bool("2") is None


class TestTypeOfCell:
    @pytest.mark.parametrize(
        "value,dtype",
        [
            (None, DataType.EMPTY),
            (True, DataType.BOOLEAN),
            (5, DataType.INTEGER),
            (5.0, DataType.FLOAT),
            ("x", DataType.TEXT),
        ],
    )
    def test_classification(self, value, dtype):
        assert type_of_cell(value) is dtype

    def test_bool_not_confused_with_int(self):
        # bool subclasses int in Python; the classifier must not care.
        assert type_of_cell(True) is DataType.BOOLEAN
        assert type_of_cell(1) is DataType.INTEGER


class TestInferColumnType:
    def test_all_nulls(self):
        assert infer_column_type([None, None]) is DataType.EMPTY

    def test_empty_sequence(self):
        assert infer_column_type([]) is DataType.EMPTY

    def test_pure_ints(self):
        assert infer_column_type([1, 2, None, 3]) is DataType.INTEGER

    def test_ints_widen_to_float(self):
        assert infer_column_type([1, 2.5]) is DataType.FLOAT

    def test_text_dominates(self):
        assert infer_column_type([1, "x", 2.0]) is DataType.TEXT

    def test_pure_bools(self):
        assert infer_column_type([True, False, None]) is DataType.BOOLEAN

    def test_bool_mixed_with_numbers_is_text(self):
        # A column holding both "true" and numbers is dirty text data.
        assert infer_column_type([True, 1]) is DataType.TEXT
