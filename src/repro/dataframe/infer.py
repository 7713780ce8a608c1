"""Value and column type inference.

CSV files carry no type information, so the engine infers cell types from
the text itself, the same way pandas' ``read_csv`` does at a high level:
a cell reads as null, integer, float, boolean or, failing those, text.
A column's type is the narrowest type that covers *all* of its non-null
values (with int widening to float when both appear).
"""

from __future__ import annotations

import re
from typing import Iterable

from .types import NULL_TOKENS, Cell, DataType

#: An ASCII decimal with a point or an exponent, as ``float()`` reads
#: it.  ``[0-9]`` (not ``\d``) keeps non-ASCII digits (``١٢٣``) text, and
#: no PEP 515 underscore (``2019_20`` is a period code) or special
#: (``inf``, ``nan``) matches.
_DECIMAL = re.compile(
    r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|[+-]?[0-9]+[eE][+-]?[0-9]+"
)
#: Lower-cased null and boolean spellings.
_SPELLINGS: dict[str, Cell] = (
    dict.fromkeys(NULL_TOKENS)
    | dict.fromkeys(("true", "yes", "t", "y"), True)
    | dict.fromkeys(("false", "no", "f", "n"), False)
)


def parse_cell(raw: str) -> Cell:
    """Parse one raw CSV cell into a typed value.

    The stripped cell is classified in one pass: an integer, a float, a
    null or boolean spelling, else text.  Leading and trailing
    whitespace never survives into the value.
    """
    text = raw.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdigit() and digits.isascii():
        if digits[0] == "0" and len(digits) > 1:
            # A leading-zero code (postal, FIPS): its zeros matter.
            return text
        return _integer(text)
    if _DECIMAL.fullmatch(text):
        return float(text)  # "1e400" overflows to inf
    return _SPELLINGS.get(text.lower(), text)


def _integer(text: str) -> int | float:
    try:
        return int(text)
    except ValueError:  # beyond int()'s digit limit: float() still reads it
        return float(text)


def type_of_cell(value: Cell) -> DataType:
    """Return the storage type of one already-parsed cell."""
    if value is None:
        return DataType.EMPTY
    if isinstance(value, bool):  # bool is an int subclass: check first
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    return DataType.TEXT


def infer_column_type(values: Iterable[Cell]) -> DataType:
    """Infer the type of a column from the set of its value types.

    Rules (narrowest covering type):

    * all nulls                      -> ``EMPTY``
    * only ints                      -> ``INTEGER``
    * ints and/or floats             -> ``FLOAT``
    * only bools                     -> ``BOOLEAN``
    * anything containing text, or a mix of text-like and numeric values
      (common in dirty CSVs)         -> ``TEXT``
    """
    kinds = set(map(type, values)) - {type(None)}
    if not kinds:
        return DataType.EMPTY
    if kinds == {int}:
        return DataType.INTEGER
    if kinds <= {int, float}:
        return DataType.FLOAT
    if kinds == {bool}:
        return DataType.BOOLEAN
    return DataType.TEXT
