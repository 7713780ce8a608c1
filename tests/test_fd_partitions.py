"""Unit tests for repro.fd.partitions (stripped first-row partitions)."""

from collections import Counter

from hypothesis import example, given
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.fd.partitions import (
    cardinality,
    determines,
    encode_columns,
    refine,
    strip,
)


def first_rows(labels):
    """First-row labels of the partition any label vector describes."""
    first = {}
    return [first.setdefault(label, row) for row, label in enumerate(labels)]


@st.composite
def labels_and_column(draw):
    """A label vector and an equally long value column.

    Either the column is derived from the labels (so ``X -> A`` holds)
    and then maybe has one row overwritten, which plants a conflict
    anywhere, the last row included, or it is drawn freely.  Tests turn
    the labels into first-row labels with :func:`first_rows`.
    """
    labels = draw(st.lists(st.integers(0, 5), max_size=40))
    if draw(st.booleans()):
        mapping = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
        column = [mapping[label] for label in labels]
        if labels and draw(st.booleans()):
            row = draw(st.integers(0, len(labels) - 1))
            column[row] = draw(st.integers(0, 4))
    else:
        column = draw(
            st.lists(
                st.integers(0, 3), min_size=len(labels), max_size=len(labels)
            )
        )
    return labels, column


def stripped(labels):
    """``strip`` of the whole-table partition given by *labels*."""
    firsts = first_rows(labels)
    return strip(range(len(firsts)), firsts)


class TestEncode:
    @given(st.lists(st.one_of(st.integers(0, 3), st.none()), max_size=30))
    @example(["x", "y", "x", None, None, "y"])
    def test_ids_are_first_rows(self, values):
        (vector,) = encode_columns(Table("t", [Column("a", values)]))
        assert vector == [values.index(value) for value in values]

    def test_bool_distinct_from_int(self):
        table = Table("t", [Column("a", [True, 1, 0, False])])
        (vector,) = encode_columns(table)
        assert len(set(vector)) == 4

    def test_int_and_equal_float_distinct(self):
        # 1 and 1.0 compare equal in Python but are different cells in
        # FD semantics (different spellings in the CSV).
        table = Table("t", [Column("a", [1, 1.0])])
        (vector,) = encode_columns(table)
        assert len(set(vector)) == 2


class TestStrip:
    def test_drops_singleton_classes(self):
        rows, firsts = stripped([7, 8, 7, 9, 8])
        assert rows == [0, 1, 2, 4]
        assert firsts == [0, 1, 0, 1]

    def test_key_strips_to_nothing(self):
        assert stripped([0, 1, 2]) == ([], [])

    @given(labels_and_column())
    @example(([], []))
    @example(([1, 2, 2, 3, 1], [0, 0, 0, 0, 0]))
    def test_keeps_exactly_the_shared_classes(self, vectors):
        labels, column = vectors
        # Strip a refined, unstripped partition, as FUN does.
        rows, firsts = stripped(labels)
        refined, _ = refine(rows, firsts, column)
        kept_rows, kept = strip(rows, refined)
        sizes = Counter(refined)
        assert kept_rows == [
            row for row, first in zip(rows, refined) if sizes[first] >= 2
        ]
        label_of = dict(zip(rows, refined))
        assert kept == [label_of[row] for row in kept_rows]


def two_pass_refine(labels, column):
    """Reference refinement over every row: first-row labels of the
    ``(label, value)`` pairs in one pass, then the labels in a second."""
    first = {}
    for row, key in enumerate(zip(labels, column)):
        first.setdefault(key, row)
    return [first[key] for key in zip(labels, column)]


class TestRefine:
    def test_refinement(self):
        rows, firsts = stripped([0, 0, 1, 1, 1])
        refined, count = refine(rows, firsts, [0, 1, 0, 0, 2])
        assert refined == [0, 1, 2, 2, 4]
        assert count == 4

    @given(labels_and_column())
    @example(([], []))
    @example(([3, 3, 0], [1, 1, 1]))
    def test_one_pass_matches_two_pass_reference(self, vectors):
        labels, column = vectors
        firsts = first_rows(labels)
        reference = two_pass_refine(firsts, column)
        # The whole-table partition, unstripped...
        assert refine(range(len(firsts)), firsts, column) == (
            reference,
            cardinality(reference),
        )
        # ...and stripped: the same labels on the kept rows, counting
        # only their classes.
        rows, kept = strip(range(len(firsts)), firsts)
        expected = [reference[row] for row in rows]
        assert refine(rows, kept, column) == (expected, len(set(expected)))

    @given(labels_and_column())
    @example(([], []))
    @example(([0], [7]))
    @example(([0, 1, 2, 3], [5, 5, 6, 6]))  # all-distinct labels
    @example(([0, 0, 1, 1], [3, 3, 4, 5]))  # conflict only in the last row
    @example(([0, 0, 1, 1, 2], [5, 6, 5, 5, 5]))
    def test_determines_matches_refinement(self, vectors):
        labels, column = vectors
        rows, firsts = stripped(labels)
        assert determines(rows, firsts, column) == (
            refine(rows, firsts, column)[1] == len(set(firsts))
        )

    @given(labels_and_column())
    @example(([0, 0, 1, 1], [3, 3, 4, 5]))
    def test_determines_stops_at_the_first_conflict(self, vectors):
        """The last row read is the first row whose value differs from
        its class's first value: where a scan of every row stops."""
        labels, column = vectors
        firsts = first_rows(labels)
        conflicts = [
            row for row, first in enumerate(firsts)
            if column[row] != column[first]
        ]
        read = []

        class Recording(list):
            def __getitem__(self, row):
                read.append(row)
                return list.__getitem__(self, row)

        rows, kept = strip(range(len(firsts)), firsts)
        holds = determines(rows, kept, Recording(column))
        assert holds == (not conflicts)
        if conflicts:
            assert read[-1] == conflicts[0]
        else:
            assert sorted(set(read)) == rows

    def test_refinement_never_coarsens(self):
        rows, firsts = stripped([0, 0, 1, 1])
        refined, count = refine(rows, firsts, [9, 9, 9, 9])
        assert refined == firsts
        assert count == 2


class TestCardinality:
    def test_cardinality_empty(self):
        assert cardinality([]) == 0
