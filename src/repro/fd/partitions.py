"""Partition (equivalence-class) kernel of FUN's FD discovery.

FD validity reduces to cardinality comparisons over attribute-set
partitions: ``X -> A`` holds iff ``|pi_{X ∪ A}| == |pi_X|``.

*First-row labels.*  :func:`encode_columns` numbers each value of a
column by the first row that holds it, so a column's encoding is its
own partition: row *i* carries the smallest row of its class.  Such a
label belongs to the partition, not to how it was built.

*Stripped partitions* (Huhtala et al., 1999).  FUN stores the partition
of an attribute set X as ``(rows, firsts)``: ascending rows that
include every row of X's classes with two or more rows, each paired
with its class's first-row label.  :func:`strip` keeps exactly those
rows; FUN strips a refined partition only when enough of its rows are
alone in their class to pay for the pass, so some singletons may stay.
A row alone in its class under X stays alone under every superset of
X, so no later refinement or check needs it, and
``|pi_X| = n_rows - len(rows) + (classes among rows)`` whichever
singletons are kept: each adds one row and one class.

*Why the base does not matter.*  Refining the partition of any
(k-1)-subset of a k-set by the missing column numbers each class by its
smallest row, so every subset yields the same labels for the rows it
keeps and FUN may start from the one with the fewest rows.
:func:`determines` walks the rows in ascending order and stops at the
first row whose value differs from its class's first row's value.
That is the row where a scan of all rows, remembering each class's
first value, stops: rows it skips are alone in their class or open
one, and neither can conflict.  A kept singleton is its own first row,
so it never conflicts either.

:func:`refine` and :func:`determines` each make one pass that runs in
C (``map`` over bound methods) over the kept rows only.  Nulls
participate as ordinary (per-column distinct) values, the common
convention in FD profilers.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, ne
from typing import Sequence

from ..dataframe import Table

#: Label vector type: one class label per row.
Labels = list[int]

#: A partition: ascending rows including every row of a shared class,
#: and each row's class's first row.
Partition = tuple[Labels, Labels]


def encode_columns(table: Table) -> list[Labels]:
    """First-row labels of every column of *table*.

    Each cell maps to the first row holding a value of the same type
    that compares equal (nulls included).  The ``(type, value)`` key
    keeps ``True``, ``1`` and ``1.0`` distinct: they are different
    cells in FD semantics (different spellings in the CSV).
    """
    encoded: list[Labels] = []
    for column in table.columns:
        values = column.values
        ids: dict = {}
        keys = zip(map(type, values), values)
        encoded.append(list(map(ids.setdefault, keys, range(len(values)))))
    return encoded


def strip(rows: Sequence[int], firsts: Sequence[int]) -> Partition:
    """Keep only the rows whose class has two or more rows.

    *firsts* are first-row labels aligned with *rows*.  A row whose
    label is not itself shares its class with that label's row, so the
    labels of such rows name exactly the classes to keep.  Kept labels
    are unchanged.
    """
    shared = set(compress(firsts, map(ne, firsts, rows)))
    keep = list(map(shared.__contains__, firsts))
    return list(compress(rows, keep)), list(compress(firsts, keep))


def refine(
    rows: Sequence[int], firsts: Sequence[int], column: Labels
) -> tuple[Labels, int]:
    """Refine the partition ``(rows, firsts)`` of X by *column*.

    Returns the first-row labels of ``X ∪ {B}`` aligned with *rows*,
    and the number of its classes among *rows*, counted by the same
    pass.  The result is not stripped: see :func:`strip`.
    """
    mapping: dict[tuple[int, int], int] = {}
    keys = zip(firsts, map(column.__getitem__, rows))
    refined = list(map(mapping.setdefault, keys, rows))
    return refined, len(mapping)


def cardinality(labels: Labels) -> int:
    """Number of equivalence classes in a label vector."""
    return len(set(labels)) if labels else 0


def determines(
    rows: Sequence[int], firsts: Sequence[int], column: Labels
) -> bool:
    """Whether *column* is constant within every class of ``(rows, firsts)``.

    The same answer as "refining by *column* adds no class", i.e.
    whether ``X -> A`` holds for the partition ``pi_X`` and column
    ``A``, but it returns at the first row whose value differs from its
    class's first row's value.  Most candidate FDs fail, usually long
    before the last row.
    """
    get = column.__getitem__
    return all(map(eq, map(get, firsts), map(get, rows)))
