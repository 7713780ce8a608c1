"""Partition (equivalence-class) machinery for FD discovery.

Both FUN and the naive checker reduce FD validity to cardinality
comparisons over attribute-set partitions: ``X -> A`` holds iff
``|pi_{X ∪ A}| == |pi_X|``.  A partition is represented as a dense label
vector: row *i* carries the integer id of its equivalence class, which
makes refinement (adding one more column) a single dictionary pass.
FUN asks the same question through :func:`determines`, which answers
it without building ``pi_{X ∪ A}`` and stops at the first conflict.

Nulls participate as ordinary (per-column distinct) values, the common
convention in FD profilers.
"""

from __future__ import annotations

from typing import Sequence

from ..dataframe import Table

#: Label vector type: one class id per row.
Labels = list[int]


def encode_columns(table: Table) -> list[Labels]:
    """Value-id vectors for every column of *table*.

    Each column's cells are mapped to dense integers (nulls get their own
    id), so all later work handles small ints instead of raw values.
    """
    encoded: list[Labels] = []
    for column in table.columns:
        ids: dict = {}
        vector: Labels = []
        for value in column.values:
            # bool is an int subclass; keep True distinct from 1.
            key = (type(value).__name__, value)
            identifier = ids.get(key)
            if identifier is None:
                identifier = len(ids)
                ids[key] = identifier
            vector.append(identifier)
        encoded.append(vector)
    return encoded


def refine(labels: Labels, column: Labels) -> Labels:
    """Refine the partition *labels* by *column*; returns new labels."""
    mapping: dict[tuple[int, int], int] = {}
    refined: Labels = []
    for label, value in zip(labels, column):
        key = (label, value)
        identifier = mapping.get(key)
        if identifier is None:
            identifier = len(mapping)
            mapping[key] = identifier
        refined.append(identifier)
    return refined


def cardinality(labels: Labels) -> int:
    """Number of equivalence classes in a label vector."""
    return len(set(labels)) if labels else 0


def determines(labels: Labels, column: Labels) -> bool:
    """Whether *column* is constant within every class of *labels*.

    The same answer as ``cardinality(refine(labels, column)) ==
    cardinality(labels)``, i.e. whether ``X -> A`` holds for the
    partition ``pi_X`` and column ``A``, but it stops at the first row
    whose value differs from its class's first value.  Most candidate
    FDs fail, usually long before the last row.
    """
    first: dict[int, int] = {}
    for label, value in zip(labels, column):
        seen = first.get(label)
        if seen is None:
            first[label] = value
        elif seen != value:
            return False
    return True


def partition_of(columns: Sequence[Labels], positions: Sequence[int]) -> Labels:
    """Label vector of an arbitrary attribute set, built by refinement."""
    if not positions:
        return [0] * (len(columns[0]) if columns else 0)
    labels = list(columns[positions[0]])
    for position in positions[1:]:
        labels = refine(labels, columns[position])
    return labels
