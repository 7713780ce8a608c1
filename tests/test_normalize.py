"""Tests for closure computation and BCNF decomposition (§4.3)."""

import random

import pytest

from repro.dataframe import Column, Table, inner_join
from repro.fd import FD, discover_fds
from repro.normalize import (
    analysis,
    attribute_closure,
    bcnf,
    bcnf_decompose,
    is_superkey,
    passes_size_filter,
)
from repro.normalize.analysis import aggregate_normalization, table_normalization
from repro.resilience import WorkMeter


class TestClosure:
    FDS = [
        FD(frozenset({"a"}), "b"),
        FD(frozenset({"b"}), "c"),
        FD(frozenset({"c", "d"}), "e"),
    ]

    def test_transitive_closure(self):
        assert attribute_closure({"a"}, self.FDS) == frozenset({"a", "b", "c"})

    def test_composite_activation(self):
        closure = attribute_closure({"a", "d"}, self.FDS)
        assert closure == frozenset({"a", "b", "c", "d", "e"})

    def test_superkey(self):
        attrs = ["a", "b", "c", "d", "e"]
        assert is_superkey({"a", "d"}, attrs, self.FDS)
        assert not is_superkey({"a"}, attrs, self.FDS)

    def test_empty_fds(self):
        assert attribute_closure({"x"}, []) == frozenset({"x"})


class TestSizeFilter:
    def test_bounds(self):
        ok = Table.from_rows(
            "t", [f"c{i}" for i in range(5)], [(i,) * 5 for i in range(10)]
        )
        assert passes_size_filter(ok)

    def test_too_narrow(self):
        table = Table.from_rows("t", ["a"], [(i,) for i in range(20)])
        assert not passes_size_filter(table)

    def test_too_short(self):
        table = Table.from_rows(
            "t", [f"c{i}" for i in range(6)], [(1,) * 6 for _ in range(5)]
        )
        assert not passes_size_filter(table)


class TestDecomposition:
    def test_already_bcnf(self):
        table = Table(
            "t", [Column("a", [1, 2, 3]), Column("b", [4, 5, 4])]
        )
        # b has repeats but no FD a->b (a is a key: trivial) — check.
        result = bcnf_decompose(table, discover_fds(table), random.Random(0))
        assert result.was_in_bcnf
        assert result.num_fragments == 1

    def test_splits_on_planted_fd(self, fish_table):
        result = bcnf_decompose(fish_table, discover_fds(fish_table), random.Random(0))
        assert result.num_fragments >= 2
        # Some fragment holds exactly the species -> group mapping.
        mapping_fragment = next(
            (
                f
                for f in result.fragments
                if set(f.column_names) == {"species", "species_group"}
            ),
            None,
        )
        assert mapping_fragment is not None
        assert mapping_fragment.num_rows == 4  # one row per species

    def test_fragments_are_bcnf(self, fish_table):
        result = bcnf_decompose(fish_table, discover_fds(fish_table), random.Random(1))
        for fragment in result.fragments:
            assert not discover_fds(fragment).has_nontrivial or all(
                not fd.lhs for fd in discover_fds(fragment)
            )

    def test_all_columns_covered(self, fish_table, cities_table):
        for table in (fish_table, cities_table):
            result = bcnf_decompose(table, discover_fds(table), random.Random(2))
            covered = {
                name for f in result.fragments for name in f.column_names
            }
            assert covered == set(table.column_names)

    def test_lossless_join(self, fish_table):
        """Re-joining the two fragments of one split must reproduce the
        original rows exactly (BCNF splits are lossless)."""
        result = bcnf_decompose(fish_table, discover_fds(fish_table), random.Random(3))
        rebuilt = result.fragments[0]
        for fragment in result.fragments[1:]:
            shared = [
                c for c in rebuilt.column_names
                if c in set(fragment.column_names)
            ]
            if not shared:
                continue
            rebuilt = inner_join(rebuilt, fragment, shared[0], shared[0])
        original_rows = {
            tuple(sorted(zip(fish_table.column_names, row)))
            for row in fish_table.iter_rows()
        }
        rebuilt_rows = {
            tuple(
                sorted(
                    (name, value)
                    for name, value in zip(rebuilt.column_names, row)
                    if name in set(fish_table.column_names)
                )
            )
            for row in rebuilt.iter_rows()
        }
        assert original_rows <= rebuilt_rows

    def test_unrepeated_columns(self, fish_table):
        result = bcnf_decompose(fish_table, discover_fds(fish_table), random.Random(4))
        unrepeated = result.unrepeated_columns()
        for name in unrepeated:
            holders = [
                f for f in result.fragments if name in set(f.column_names)
            ]
            assert len(holders) == 1

    def test_deterministic_given_rng(self, fish_table):
        fds = discover_fds(fish_table)
        a = bcnf_decompose(fish_table, fds, random.Random(5))
        b = bcnf_decompose(fish_table, fds, random.Random(5))
        assert [f.column_names for f in a.fragments] == [
            f.column_names for f in b.fragments
        ]


def _recording(discover, tables):
    """*discover*, appending every table it is called with to *tables*."""

    def recording(table, *args, **kwargs):
        tables.append(table)
        return discover(table, *args, **kwargs)

    return recording


class TestTableNormalization:
    def test_discovers_the_unsplit_table_once(self, monkeypatch, fish_table):
        discovered = []
        for module in (analysis, bcnf):
            monkeypatch.setattr(
                module,
                "discover_fds",
                _recording(module.discover_fds, discovered),
            )
        contribution = table_normalization(fish_table, random.Random(0))
        assert contribution.fragments >= 2
        assert sum(table is fish_table for table in discovered) == 1

    def test_truncated_discovery_keeps_the_table_whole(self, fish_table):
        """A budget that cuts the table's own discovery after it found an
        FD leaves the table unsplit: the meter is spent, so there is no
        work left to decompose with."""
        cut_budgets = []
        for budget in range(1, 600):
            fds = discover_fds(fish_table, meter=WorkMeter(budget))
            if fds.truncated and fds.has_nontrivial:
                cut_budgets.append(budget)
        assert cut_budgets
        for budget in cut_budgets:
            contribution = table_normalization(
                fish_table, random.Random(0), meter=WorkMeter(budget)
            )
            assert contribution.to_payload() == {
                "truncated": True,
                "has_fd": True,
                "has_single": True,
                "fragments": 1,
                "fragment_columns": [fish_table.num_columns],
                "gains": [1.0] * fish_table.num_columns,
            }


class TestNormalizationStats:
    def test_stats_on_corpus(self, study):
        portal = study.portal("CA")
        stats = portal.normalization()
        assert stats.total_tables == len(portal.filtered_tables())
        assert stats.tables_with_single_lhs_fd <= stats.tables_with_fd
        assert stats.tables_with_fd <= stats.total_tables
        assert sum(stats.fragment_histogram.values()) == stats.total_tables

    def test_fragments_at_least_two_when_decomposed(self, study):
        stats = study.portal("UK").normalization()
        for count, n in stats.fragment_histogram.items():
            assert count >= 1
            assert n >= 0
        if stats.tables_with_fd:
            assert stats.avg_fragments_not_bcnf >= 2.0

    def test_gain_positive(self, study):
        for portal in study:
            stats = portal.normalization()
            assert stats.avg_uniqueness_gain >= 1.0

    def test_empty_input(self):
        stats = aggregate_normalization("XX", [], [])
        assert stats.total_tables == 0
        assert stats.frac_with_fd == 0.0
