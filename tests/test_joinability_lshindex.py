"""Tests for the production join candidate path (repro.joinability.lshindex).

The load-bearing property throughout: the indexed path is an *exact*
replacement for the all-pairs walk — candidate generation is a provable
superset of the answer, the size filter drops only pairs that cannot
reach the threshold, and the surviving candidates go through the
identical Jaccard verify — so pair sets match element for element, at
both paper thresholds, on anything we can throw at it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.dataframe import Column, Table
from repro.joinability import (
    MinHasher,
    analyze_joinability,
    analyze_joinability_lsh,
    build_profiles,
    compute_table_signatures,
    find_joinable_pairs,
    generate_candidates,
    lsh_joinable_pairs_flagged,
    prefix_length,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.budget import BudgetExceeded, WorkMeter
from tests.test_joinability_pairs import wrap

THRESHOLDS = (0.9, 0.7)


def _corpus_from_value_sets(value_sets):
    """One single-column table per value set (>= 10 uniques each)."""
    tables = []
    for i, values in enumerate(value_sets):
        tables.append(
            wrap(
                Table(f"t{i}", [Column("a", sorted(values))]),
                resource=f"r{i}",
            )
        )
    return tables


@st.composite
def overlapping_value_sets(draw):
    """Families of value sets with engineered heavy overlaps.

    Sets are built from a shared pool so high-Jaccard pairs actually
    occur; each set keeps >= 10 values to pass the eligibility floor.
    """
    pool = [f"v{i}" for i in range(30)]
    n_sets = draw(st.integers(2, 6))
    sets = []
    for _ in range(n_sets):
        base = draw(st.integers(0, 10))
        size = draw(st.integers(10, 20))
        sets.append({pool[(base + k) % len(pool)] for k in range(size)})
    return sets


class TestPrefixLength:
    def test_exact_multiples_do_not_round_up(self):
        # 0.7 * 10 == 7 exactly: the prefix must keep 10 - 7 + 1 = 4
        # tokens, not shrink to 3 via float round-up (6.999... -> 7).
        assert prefix_length(10, 0.7) == 4

    def test_threshold_one_keeps_one_token(self):
        assert prefix_length(25, 1.0) == 1

    def test_full_prefix_at_tiny_thresholds(self):
        # alpha floors at 1, so the prefix never exceeds the set size.
        assert prefix_length(12, 0.01) == 12


class TestCandidateSuperset:
    @given(overlapping_value_sets())
    @settings(max_examples=60, deadline=None)
    def test_candidates_cover_all_joinable_pairs(self, value_sets):
        profiles, _ = build_profiles(_corpus_from_value_sets(value_sets))
        for threshold in THRESHOLDS:
            exact = {
                (p.left, p.right)
                for p in find_joinable_pairs(profiles, threshold)
            }
            candidates = set(generate_candidates(profiles, threshold))
            assert exact <= candidates

    @given(overlapping_value_sets())
    @settings(max_examples=60, deadline=None)
    def test_survivors_equal_all_pairs(self, value_sets):
        tables = _corpus_from_value_sets(value_sets)
        for threshold in THRESHOLDS:
            exact = analyze_joinability("XX", tables, threshold)
            lsh = analyze_joinability_lsh("XX", tables, threshold)
            assert lsh.pairs == exact.pairs

    def test_candidates_sorted_and_cross_table(self, study):
        portal = study.portal("CA")
        profiles, _ = build_profiles(portal.report.clean_tables)
        candidates = generate_candidates(profiles, 0.9)
        assert candidates == sorted(candidates)
        for left, right in candidates:
            assert left < right
            assert (
                profiles[left].table_index != profiles[right].table_index
            )


class TestPairSetEquality:
    def test_identical_analyses_on_seeded_corpus(self, study):
        """The tentpole contract, on every portal at both thresholds."""
        for portal in study:
            tables = portal.screened_tables()
            for threshold in THRESHOLDS:
                exact = analyze_joinability(
                    portal.code, tables, threshold
                )
                lsh = analyze_joinability_lsh(portal.code, tables, threshold)
                assert lsh.pairs == exact.pairs
                assert lsh.stats == exact.stats
                assert lsh.column_neighbors == exact.column_neighbors
                assert lsh.table_neighbors == exact.table_neighbors

    def test_candidate_counts_drop(self, study):
        portal = study.portal("US")
        tables = portal.screened_tables()
        exact_metrics, lsh_metrics = MetricsRegistry(), MetricsRegistry()
        analyze_joinability(
            portal.code, tables, 0.9,
            meter=WorkMeter(None, metrics=exact_metrics),
        )
        analyze_joinability_lsh(
            portal.code, tables, 0.9,
            meter=WorkMeter(None, metrics=lsh_metrics),
        )
        exact = exact_metrics.snapshot()["join.candidate_pairs"]["value"]
        lsh = lsh_metrics.snapshot()["join.candidate_pairs"]["value"]
        assert 0 < lsh
        assert lsh * 5 <= exact

    def test_candidates_are_exactly_the_size_survivors(self, study):
        """Every prefix candidate passing the size filter is verified:
        no other filter sits between them and the exact Jaccard."""
        portal = study.portal("UK")
        tables = portal.screened_tables()
        profiles, _ = build_profiles(tables)
        expected = sum(
            1
            for left, right in generate_candidates(profiles, 0.7)
            if min(profiles[left].num_unique, profiles[right].num_unique)
            + 1e-9
            >= 0.7
            * max(profiles[left].num_unique, profiles[right].num_unique)
        )
        metrics = MetricsRegistry()
        analyze_joinability_lsh(
            portal.code,
            tables,
            0.7,
            meter=WorkMeter(None, metrics=metrics),
        )
        assert metrics.value("join.candidate_pairs") == expected


class TestOpPins:
    """The prefix search's op counts on the test study, exactly.

    Op counts are a pure function of (scale, seed, code), so one extra
    tick anywhere in the search fails here; each run charges a fresh
    registry, so the pin depends on no history and no test order.  A
    change that moves these counts on purpose updates them and says so.
    """

    #: (portal, threshold) -> (join.candidate_pairs, join.pairs_verified,
    #: sum of the ops.join.* counters).
    EXPECTED = {
        ("SG", 0.9): (25, 10, 9_389),
        ("SG", 0.7): (30, 12, 10_182),
        ("CA", 0.9): (77, 52, 21_116),
        ("CA", 0.7): (109, 77, 23_636),
        ("UK", 0.9): (162, 113, 41_943),
        ("UK", 0.7): (327, 180, 47_186),
        ("US", 0.9): (165, 100, 171_962),
        ("US", 0.7): (356, 173, 183_734),
    }

    def test_counts_per_portal_and_threshold(self, study):
        measured = {}
        for portal in study:
            tables = portal.screened_tables()
            for threshold in THRESHOLDS:
                metrics = MetricsRegistry()
                analyze_joinability_lsh(
                    portal.code,
                    tables,
                    threshold,
                    meter=WorkMeter(None, metrics=metrics),
                )
                measured[(portal.code, threshold)] = (
                    metrics.value("join.candidate_pairs"),
                    metrics.value("join.pairs_verified"),
                    sum(
                        metrics.value(name)
                        for name in metrics.snapshot()
                        if name.startswith("ops.join.")
                    ),
                )
        assert measured == self.EXPECTED


class TestNoSignatures:
    def test_joinability_hashes_no_value(self, monkeypatch):
        """The production join path computes no MinHash signature."""
        calls = []
        vector = MinHasher.vector

        def counting(self, h):
            calls.append(h)
            return vector(self, h)

        monkeypatch.setattr(MinHasher, "vector", counting)
        study = Study.build(StudyConfig(scale=0.03, seed=2))
        for portal in study:
            portal.joinability(0.9)
            portal.joinability(0.7)
        assert calls == []
        # The counter does see hashing: the signatures no analysis uses.
        study.portal("US").join_signatures()
        assert calls


class TestSignatureUnits:
    def test_signature_meter_ticks(self):
        tables = _corpus_from_value_sets([{f"v{i}" for i in range(15)}])
        metrics = MetricsRegistry()
        meter = WorkMeter(None, metrics=metrics)
        compute_table_signatures(tables[0].clean, "r0", meter=meter)
        assert meter.spent == 15


class TestTruncation:
    def test_verify_loop_truncates_cleanly(self):
        value_sets = [{f"v{i}" for i in range(12)} for _ in range(4)]
        tables = _corpus_from_value_sets(value_sets)
        profiles, _ = build_profiles(tables)
        # Budget two ticks short of the full run: the cut lands inside
        # the verify loop (its ticks come last) and must truncate
        # cleanly rather than raise.
        full_meter = WorkMeter(None)
        full_pairs, _ = lsh_joinable_pairs_flagged(profiles, 0.9, full_meter)
        assert len(full_pairs) == 6  # C(4, 2)
        pairs, truncated = lsh_joinable_pairs_flagged(
            profiles, 0.9, WorkMeter(full_meter.spent - 2)
        )
        assert truncated
        assert len(pairs) < 6

    def test_candidate_generation_propagates(self):
        value_sets = [{f"v{i}" for i in range(12)} for _ in range(3)]
        tables = _corpus_from_value_sets(value_sets)
        profiles, _ = build_profiles(tables)
        with pytest.raises(BudgetExceeded):
            generate_candidates(profiles, 0.9, WorkMeter(2))
