"""Tests for the TANE engine and the JOSIE-style top-k search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataframe import Column, Table
from repro.fd import discover_fds, discover_fds_naive
from repro.fd.tane import (
    discover_fds_tane,
    partition_product,
    stripped_partition,
)
from repro.joinability.index import build_profiles
from repro.joinability.topk import (
    TopKOverlapSearcher,
    brute_force_top_k,
)
from tests.test_joinability_pairs import wrap


class TestStrippedPartitions:
    def test_singletons_dropped(self):
        partition = stripped_partition([0, 1, 0, 2, 1])
        assert sorted(map(sorted, partition)) == [[0, 2], [1, 4]]

    def test_key_column_empty(self):
        assert stripped_partition([0, 1, 2, 3]) == []

    def test_product_refines(self):
        left = stripped_partition([0, 0, 0, 1, 1])
        product = partition_product(left, [5, 5, 6, 7, 7], 5)
        assert sorted(map(sorted, product)) == [[0, 1], [3, 4]]


class TestTaneEngine:
    def test_planted_fd(self, cities_table):
        found = {
            (tuple(sorted(fd.lhs)), fd.rhs)
            for fd in discover_fds_tane(cities_table)
        }
        assert (("city",), "population") in found

    def test_matches_fun_on_fixtures(self, cities_table, fish_table):
        for table in (cities_table, fish_table):
            assert (
                discover_fds_tane(table).as_frozenset()
                == discover_fds(table).as_frozenset()
            )

    def test_matches_fun_on_corpus_tables(self, study):
        for table in study.portal("CA").filtered_tables()[:8]:
            assert (
                discover_fds_tane(table).as_frozenset()
                == discover_fds(table).as_frozenset()
            ), table.name

    @pytest.mark.parametrize("max_lhs", [1, 2, 3])
    def test_lhs_cap(self, fish_table, max_lhs):
        for fd in discover_fds_tane(fish_table, max_lhs=max_lhs):
            assert fd.lhs_size <= max_lhs


@st.composite
def fd_tables(draw):
    n_cols = draw(st.integers(2, 5))
    n_rows = draw(st.integers(0, 25))
    columns = [
        Column(
            f"c{i}",
            draw(
                st.lists(
                    st.one_of(st.integers(0, 4), st.none()),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
        )
        for i in range(n_cols)
    ]
    return Table("t", columns)


@given(fd_tables())
@settings(max_examples=80, deadline=None)
def test_tane_equals_fun_property(table):
    assert (
        discover_fds_tane(table).as_frozenset()
        == discover_fds(table).as_frozenset()
    )


@given(fd_tables())
@settings(max_examples=80, deadline=None)
def test_lhs_cards_count_distinct_lhs_values(table):
    """FUN, TANE and the naive checker record ``|pi_X|`` per FD LHS X."""
    fds = discover_fds(table)
    expected = {
        fd.lhs: table.project(sorted(fd.lhs)).distinct().num_rows
        if fd.lhs
        else 1
        for fd in fds
    }
    assert fds.lhs_cards == expected
    assert discover_fds_tane(table).lhs_cards == expected
    assert discover_fds_naive(table).lhs_cards == expected


class TestTopKSearch:
    def make_profiles(self, seed=0, n_columns=30):
        rng = random.Random(seed)
        pool = [f"v{i}" for i in range(60)]
        tables = []
        for i in range(n_columns):
            values = rng.sample(pool, rng.randint(12, 40))
            tables.append(
                wrap(
                    Table(f"t{i}", [Column("c", values)]),
                    resource=f"r{i}",
                )
            )
        profiles, _ = build_profiles(tables)
        return profiles

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        profiles = self.make_profiles(seed)
        searcher = TopKOverlapSearcher(profiles)
        rng = random.Random(seed + 100)
        query = frozenset(
            rng.sample([f"v{i}" for i in range(60)], rng.randint(10, 35))
        )
        for k in (1, 3, 10):
            fast = searcher.search(query, k=k)
            slow = brute_force_top_k(profiles, query, k=k)
            assert [(r.column_id, r.overlap) for r in fast] == [
                (r.column_id, r.overlap) for r in slow
            ]

    def test_exclude_table(self):
        profiles = self.make_profiles()
        searcher = TopKOverlapSearcher(profiles)
        query = profiles[0].values
        results = searcher.search(
            query, k=5, exclude_table=profiles[0].table_index
        )
        assert all(
            profiles[r.column_id].table_index != profiles[0].table_index
            for r in results
        )

    def test_self_query_is_perfect_match(self):
        profiles = self.make_profiles()
        searcher = TopKOverlapSearcher(profiles)
        results = searcher.search(profiles[3].values, k=1)
        assert results[0].column_id == 3
        assert results[0].overlap == profiles[3].num_unique
        assert results[0].jaccard == 1.0

    def test_empty_and_zero_k(self):
        profiles = self.make_profiles()
        searcher = TopKOverlapSearcher(profiles)
        assert searcher.search(frozenset(), k=5) == []
        assert searcher.search(profiles[0].values, k=0) == []

    def test_prune_reduces_candidates(self):
        """On a skewed collection the prefix prune must admit fewer
        candidates than the brute-force pool for small k."""
        profiles = self.make_profiles(n_columns=60)
        searcher = TopKOverlapSearcher(profiles)
        query = profiles[0].values
        searcher.search(query, k=1)
        brute_pool = sum(
            1 for p in profiles if query & p.values
        )
        assert searcher.candidates_examined <= brute_pool

    def test_on_corpus(self, study):
        portal = study.portal("US")
        analysis = portal.joinability()
        searcher = TopKOverlapSearcher(analysis.profiles)
        query_profile = analysis.profiles[0]
        results = searcher.search(
            query_profile.values,
            k=5,
            exclude_table=query_profile.table_index,
        )
        expected = brute_force_top_k(
            analysis.profiles,
            query_profile.values,
            k=5,
            exclude_table=query_profile.table_index,
        )
        assert [(r.column_id, r.overlap) for r in results] == [
            (r.column_id, r.overlap) for r in expected
        ]
