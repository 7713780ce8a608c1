"""Unit tests for FD discovery (FUN and the naive baseline)."""

import pytest

from repro.dataframe import Column, Table
from repro.fd import FD, discover_fds, discover_fds_naive, encode_columns
from repro.fd.naive import distinct_count


class TestFDModel:
    def test_trivial_fd_rejected(self):
        with pytest.raises(ValueError):
            FD(frozenset({"a"}), "a")

    def test_str(self):
        assert str(FD(frozenset({"a", "b"}), "c")) == "{a, b} -> c"
        assert str(FD(frozenset(), "c")) == "{∅} -> c"


class TestDiscovery:
    def test_planted_fd_found(self, cities_table):
        fds = discover_fds(cities_table)
        found = {(tuple(sorted(fd.lhs)), fd.rhs) for fd in fds}
        assert (("city",), "population") in found

    def test_key_lhs_excluded(self, cities_table):
        # id is a key: id -> * would be trivial and must not appear.
        fds = discover_fds(cities_table)
        assert all("id" not in fd.lhs for fd in fds)

    def test_constant_column_yields_empty_lhs(self, cities_table):
        fds = discover_fds(cities_table)
        empties = [fd for fd in fds if not fd.lhs]
        assert [fd.rhs for fd in empties] == ["province"]
        # ...but the paper's prevalence counters ignore constants:
        assert fds.has_nontrivial  # city -> population is genuine

    def test_constant_only_table_not_counted_nontrivial(self):
        table = Table("t", [Column("a", [1, 2, 3]), Column("b", [7, 7, 7])])
        fds = discover_fds(table)
        assert not fds.has_nontrivial
        assert len(fds) == 1 and not next(iter(fds)).lhs

    def test_minimality(self, fish_table):
        fds = discover_fds(fish_table)
        found = {(fd.lhs, fd.rhs) for fd in fds}
        # species -> species_group is minimal...
        assert (frozenset({"species"}), "species_group") in found
        # ...so no superset LHS may also be reported for that RHS.
        for lhs, rhs in found:
            if rhs == "species_group":
                assert not lhs > frozenset({"species"})

    def test_max_lhs_respected(self):
        rows = [(a, b, c, d, (a + b + c + d) % 7)
                for a in range(2) for b in range(2)
                for c in range(2) for d in range(2)]
        table = Table.from_rows("t", ["a", "b", "c", "d", "e"], rows)
        for fd in discover_fds(table, max_lhs=2):
            assert fd.lhs_size <= 2

    def test_single_column_table(self):
        assert len(discover_fds(Table("t", [Column("a", [1, 2])]))) == 0

    def test_empty_table(self):
        assert len(discover_fds(Table.empty("t", ["a", "b"]))) == 0

    def test_one_row_table_has_no_fds(self):
        # Every column is a candidate key: all FDs are trivial.
        table = Table.from_rows("t", ["a", "b"], [(1, 2)])
        assert len(discover_fds(table)) == 0
        assert len(discover_fds_naive(table)) == 0

    def test_duplicate_column_names_ignored_after_first(self):
        table = Table(
            "t", [Column("a", [1, 1, 2]), Column("a", [5, 6, 7]),
                  Column("b", [3, 3, 4])]
        )
        fds = discover_fds(table)
        found = {(tuple(sorted(fd.lhs)), fd.rhs) for fd in fds}
        assert (("a",), "b") in found

    def test_nulls_are_values(self):
        table = Table(
            "t",
            [Column("a", [None, None, 1]), Column("b", ["x", "x", "y"])],
        )
        found = {(tuple(sorted(fd.lhs)), fd.rhs) for fd in discover_fds(table)}
        assert (("a",), "b") in found


class TestDistinctCount:
    """The naive checker's ``|pi_X|``: distinct value tuples of X."""

    def test_multi_column(self):
        table = Table(
            "t",
            [
                Column("a", [1, 1, 2, 2]),
                Column("b", ["x", "y", "x", "x"]),
            ],
        )
        assert distinct_count(encode_columns(table), [0, 1]) == 3

    def test_empty_set_is_single_class(self):
        table = Table("t", [Column("a", [1, 2, 3])])
        assert distinct_count(encode_columns(table), []) == 1


class TestFunEqualsNaive:
    @pytest.mark.parametrize("seed", range(8))
    def test_agreement_on_random_tables(self, seed):
        import random

        rng = random.Random(seed)
        n_cols = rng.randint(2, 6)
        n_rows = rng.randint(1, 40)
        columns = [
            Column(
                f"c{i}",
                [rng.randint(0, rng.randint(1, 6)) for _ in range(n_rows)],
            )
            for i in range(n_cols)
        ]
        table = Table("t", columns)
        assert (
            discover_fds(table).as_frozenset()
            == discover_fds_naive(table).as_frozenset()
        )

    def test_agreement_on_generated_table(self, study):
        table = study.portal("CA").filtered_tables()[0]
        narrow = table.project(list(table.column_names[:6]))
        assert (
            discover_fds(narrow, max_lhs=3).as_frozenset()
            == discover_fds_naive(narrow, max_lhs=3).as_frozenset()
        )


class TestFDValidityOnData:
    def test_every_reported_fd_holds(self, study):
        """Each discovered FD must actually hold on the table's data."""
        tables = study.portal("UK").filtered_tables()[:10]
        for table in tables:
            for fd in discover_fds(table):
                mapping = {}
                lhs = sorted(fd.lhs)
                lhs_columns = [table.column(n) for n in lhs]
                rhs_column = table.column(fd.rhs)
                for i in range(table.num_rows):
                    key = tuple(
                        (type(c[i]).__name__, c[i]) for c in lhs_columns
                    )
                    value = (type(rhs_column[i]).__name__, rhs_column[i])
                    assert mapping.setdefault(key, value) == value, (
                        f"{fd} does not hold on {table.name}"
                    )
