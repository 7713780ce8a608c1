"""Property-based tests for the dataframe engine (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe import (
    Column,
    Table,
    inner_join,
    join_output_size,
    read_csv,
    write_csv,
)

# Cells that survive a CSV round-trip unambiguously: ints without
# leading zeros, short clean text, booleans, nulls.
cell = st.one_of(
    st.none(),
    st.integers(min_value=-10_000, max_value=10_000),
    st.booleans(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll"), max_codepoint=0x7E
        ),
        min_size=1,
        max_size=8,
    ).filter(
        lambda s: s.strip() == s
        and s.lower() not in {"true", "false", "t", "f", "y", "n", "yes",
                              "no", "nan", "null", "n", "inf"}
    ),
)


def tables(min_rows=0, max_rows=20, min_cols=1, max_cols=4):
    @st.composite
    def build(draw):
        n_cols = draw(st.integers(min_cols, max_cols))
        n_rows = draw(st.integers(min_rows, max_rows))
        columns = [
            Column(f"c{i}", draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
            for i in range(n_cols)
        ]
        return Table("t", columns)

    return build()


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_csv_roundtrip(table):
    back = read_csv(write_csv(table))
    assert back.num_rows == table.num_rows
    assert back.num_columns == table.num_columns
    assert list(back.iter_rows()) == list(table.iter_rows())


@given(tables(), tables())
@settings(max_examples=60)
def test_join_size_formula_matches_materialized_join(left, right):
    size = join_output_size(left, right, "c0", "c0")
    materialized = inner_join(left, right, "c0", "c0")
    assert size == materialized.num_rows


@given(tables(min_cols=0))
@example(Table("t", []))
@example(Table.empty("t", ["c0", "c1"]))
@settings(max_examples=60)
def test_iter_rows_matches_row(table):
    assert list(table.iter_rows()) == [
        table.row(i) for i in range(table.num_rows)
    ]


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_distinct_idempotent_and_bounded(table):
    once = table.distinct()
    assert once.num_rows <= table.num_rows
    assert once.distinct().num_rows == once.num_rows
    assert set(once.iter_rows()) == set(table.iter_rows())


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_sort_is_permutation(table):
    ordered = table.sort_by([table.column(0).name])
    assert sorted(map(repr, ordered.iter_rows())) == sorted(
        map(repr, table.iter_rows())
    )


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_uniqueness_score_bounds(table):
    for column in table.columns:
        assert 0.0 <= column.uniqueness_score <= 1.0
        if column.is_key:
            assert column.uniqueness_score == 1.0
            assert column.null_count == 0


@given(tables(min_rows=1))
@settings(max_examples=60)
def test_union_doubles_rows(table):
    doubled = table.union_all(table)
    assert doubled.num_rows == 2 * table.num_rows
    for column in doubled.columns:
        assert column.null_count == 2 * table.column(column.name).null_count
