"""Unit tests for repro.keys.candidates."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.keys import (
    NO_KEY,
    find_min_key,
    key_size_distribution,
    single_key_columns,
)
from repro.keys.candidates import _is_composite_key


class TestSingleKeys:
    def test_unique_column_is_key(self, cities_table):
        assert single_key_columns(cities_table) == ("id",)
        report = find_min_key(cities_table)
        assert report.min_key_size == 1
        assert report.has_single_key

    def test_nulls_disqualify(self):
        table = Table("t", [Column("a", [1, 2, None])])
        assert single_key_columns(table) == ()

    def test_multiple_single_keys(self):
        table = Table("t", [Column("a", [1, 2]), Column("b", ["x", "y"])])
        assert single_key_columns(table) == ("a", "b")


class TestCompositeKeys:
    def test_two_column_key(self, fish_table):
        # species x year is the grain: no single column is a key, but a
        # pair is (the reported example must actually be unique).
        report = find_min_key(fish_table)
        assert report.min_key_size == 2
        columns = [fish_table.column(n) for n in report.example_key]
        tuples = {
            tuple(c[i] for c in columns)
            for i in range(fish_table.num_rows)
        }
        assert len(tuples) == fish_table.num_rows

    def test_three_column_key(self):
        rows = [
            (a, b, c)
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
        ]
        table = Table.from_rows("t", ["a", "b", "c"], rows)
        report = find_min_key(table)
        assert report.min_key_size == 3

    def test_no_key_with_duplicate_rows(self):
        table = Table.from_rows("t", ["a", "b"], [(1, 1), (1, 1), (2, 2)])
        report = find_min_key(table)
        assert report.min_key_size == NO_KEY
        assert not report.has_any_key

    def test_composite_counts_nulls_as_values(self):
        # (None, 1) and (None, 2) are distinct tuples, so {a, b} keys
        # the table even though column a is all-null.
        table = Table.from_rows(
            "t", ["a", "b"], [(None, 1), (None, 2), (1, 1)]
        )
        report = find_min_key(table)
        assert report.min_key_size == 2

    def test_empty_table_has_no_key(self):
        assert find_min_key(Table.empty("t", ["a"])).min_key_size == NO_KEY

    def test_pruning_skips_low_cardinality_combos(self):
        # 3 x 2 distinct values cannot key 10 rows; the search must
        # reject the combo without scanning and still find no key.
        rows = [(i % 3, i % 2) for i in range(10)]
        table = Table.from_rows("t", ["a", "b"], rows)
        assert find_min_key(table, max_size=2).min_key_size == NO_KEY

    def test_max_size_respected(self):
        rows = [
            (a, b, c)
            for a in (1, 2)
            for b in (1, 2)
            for c in (1, 2)
        ]
        table = Table.from_rows("t", ["a", "b", "c"], rows)
        assert find_min_key(table, max_size=2).min_key_size == NO_KEY


class TestDistribution:
    def test_counts_sum(self, cities_table, fish_table):
        dist = key_size_distribution("XX", [cities_table, fish_table])
        assert dist.total_tables == 2
        assert sum(dist.counts.values()) == 2
        assert dist.counts[1] == 1
        assert dist.counts[2] == 1

    def test_fraction(self, cities_table):
        dist = key_size_distribution("XX", [cities_table])
        assert dist.fraction(1) == 1.0
        assert dist.fraction(NO_KEY) == 0.0

    def test_empty_portfolio(self):
        dist = key_size_distribution("XX", [])
        assert dist.total_tables == 0
        assert dist.fraction(1) == 0.0


class TestOnGeneratedCorpus:
    def test_minimum_key_reports_consistent(self, study):
        portal = study.portal("US")
        for table in portal.filtered_tables()[:25]:
            report = find_min_key(table)
            if report.min_key_size == 1:
                assert report.single_keys
            elif report.has_any_key:
                assert len(report.example_key) == report.min_key_size
                # Verify the reported key really is unique.
                seen = set()
                columns = [table.column(n) for n in report.example_key]
                for i in range(table.num_rows):
                    key = tuple(c[i] for c in columns)
                    assert key not in seen
                    seen.add(key)


def tuple_loop_is_key(table: Table, positions: list[int], n_rows: int) -> bool:
    """The per-row tuple loop the zip scan replaced, verbatim."""
    columns = [table.column(p).values for p in positions]
    seen: set[tuple] = set()
    for row_index in range(n_rows):
        key = tuple(values[row_index] for values in columns)
        if key in seen:
            return False
        seen.add(key)
    return True


#: Cells that compare equal across types (``True == 1 == 1.0``) collide
#: in a key tuple; ``"1"`` does not.
KEY_CELLS = st.one_of(
    st.integers(0, 3), st.none(), st.sampled_from([True, False, 1.0, 0.0, "1"])
)


@st.composite
def keyed_tables(draw):
    """0–12 rows (so 0 and 1 too), nulls, cross-type equal cells and
    duplicated rows, with 1–3 distinct key positions."""
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(1, 4))
    columns = [
        draw(st.lists(KEY_CELLS, min_size=n_rows, max_size=n_rows))
        for _ in range(n_cols)
    ]
    if n_rows:
        rows = st.integers(0, n_rows - 1)
        for src, dst in draw(st.lists(st.tuples(rows, rows), max_size=4)):
            for values in columns:
                values[dst] = values[src]
    positions = draw(
        st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=3, unique=True)
    )
    table = Table("t", [Column(f"c{i}", v) for i, v in enumerate(columns)])
    return table, positions


def _case(rows):
    table = Table.from_rows("t", ["a", "b"], rows)
    return table, [0, 1]


class TestZipScanEqualsTupleLoop:
    @given(keyed_tables())
    @settings(max_examples=300, deadline=None)
    @example(_case([(True, None), (1, None)]))
    @example(_case([(1.0, "x"), (True, "x"), (2, "x")]))
    @example(_case([("1", 1), (1, 1)]))
    @example(_case([(None, None), (None, None)]))
    @example(_case([(None, 1)]))
    @example(_case([]))
    def test_same_answer(self, case):
        table, positions = case
        assert _is_composite_key(table, positions) == tuple_loop_is_key(
            table, positions, table.num_rows
        )
