"""Value and column type inference.

CSV files carry no type information, so the engine infers cell types from
the text itself, the same way pandas' ``read_csv`` does at a high level:
every cell is tried as int, then float, then boolean, and falls back to
text.  A column's type is the narrowest type that covers *all* of its
non-null values (with int widening to float when both appear).
"""

from __future__ import annotations

from typing import Iterable

from .types import Cell, DataType, normalize_null_text

_TRUE_TOKENS = frozenset({"true", "yes", "t", "y"})
_FALSE_TOKENS = frozenset({"false", "no", "f", "n"})


def parse_cell(raw: str) -> Cell:
    """Parse one raw CSV cell into a typed value.

    Order of attempts: null token, integer, float, boolean, text.  Leading
    and trailing whitespace never survives into the value.
    """
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
    """Parse *text* as a plain (optionally signed) ASCII decimal integer.

    Values with leading zeros such as ``007`` are left as text: in open
    data they are almost always identifiers (postal codes, FIPS codes)
    whose leading zeros are significant.  Non-ASCII digits (``١٢٣``)
    stay text too, although ``int()`` would accept them.
    """
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
    """Parse *text* as a float; rejects specials like ``inf`` and ``nan``.

    Also rejects what ``float()`` accepts but a CSV number never
    spells: PEP 515 underscores (``2019_20`` is a period code, not
    201920) and non-ASCII digits.
    """
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
    """Parse *text* as a boolean using common CSV spellings."""
    lowered = text.lower()
    if lowered in _TRUE_TOKENS:
        return True
    if lowered in _FALSE_TOKENS:
        return False
    return None


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
    """Infer the type of a column from its parsed values.

    Rules (narrowest covering type):

    * all nulls                      -> ``EMPTY``
    * only ints                      -> ``INTEGER``
    * ints and/or floats             -> ``FLOAT``
    * only bools                     -> ``BOOLEAN``
    * anything containing text, or a mix of text-like and numeric values
      (common in dirty CSVs)         -> ``TEXT``
    """
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
