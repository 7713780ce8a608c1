"""Unit tests for repro.fd.partitions."""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.fd.partitions import (
    cardinality,
    determines,
    encode_columns,
    partition_of,
    refine,
)


@st.composite
def labels_and_column(draw):
    """A label vector and an equally long value column.

    Either the column is derived from the labels (so ``X -> A`` holds)
    and then maybe has one row overwritten, which plants a conflict
    anywhere, the last row included, or it is drawn freely.
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


class TestEncode:
    def test_dense_ids(self):
        table = Table("t", [Column("a", ["x", "y", "x", None, None])])
        (vector,) = encode_columns(table)
        assert vector[0] == vector[2]
        assert vector[3] == vector[4]
        assert len(set(vector)) == 3

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


class TestRefine:
    def test_refinement(self):
        labels = [0, 0, 1, 1]
        column = [0, 1, 0, 0]
        refined = refine(labels, column)
        assert cardinality(refined) == 3
        assert refined[2] == refined[3]

    @given(labels_and_column())
    @example(([], []))
    @example(([0], [7]))
    @example(([0, 1, 2, 3], [5, 5, 6, 6]))  # all-distinct labels
    @example(([0, 0, 1, 1], [3, 3, 4, 5]))  # conflict only in the last row
    @example(([0, 0, 1, 1, 2], [5, 6, 5, 5, 5]))
    def test_determines_matches_refinement(self, vectors):
        labels, column = vectors
        assert determines(labels, column) == (
            cardinality(refine(labels, column)) == cardinality(labels)
        )

    def test_refinement_never_coarsens(self):
        labels = [0, 1, 2]
        column = [9, 9, 9]
        assert cardinality(refine(labels, column)) == 3


class TestPartitionOf:
    def test_multi_column(self):
        table = Table(
            "t",
            [
                Column("a", [1, 1, 2, 2]),
                Column("b", ["x", "y", "x", "x"]),
            ],
        )
        encoded = encode_columns(table)
        labels = partition_of(encoded, [0, 1])
        assert cardinality(labels) == 3

    def test_empty_set_is_single_class(self):
        table = Table("t", [Column("a", [1, 2, 3])])
        encoded = encode_columns(table)
        assert cardinality(partition_of(encoded, [])) == 1

    def test_cardinality_empty(self):
        assert cardinality([]) == 0
