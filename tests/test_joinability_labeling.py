"""Tests for the lineage labeling oracle and sampling (§5.3)."""

import dataclasses
import itertools
import random
from collections import Counter, defaultdict

import pytest

from repro.joinability import (
    JoinLabel,
    KEY_KEY,
    KEY_NONKEY,
    LineageOracle,
    NONKEY_NONKEY,
    breakdown,
    breakdown_by,
    key_combination,
    pair_semantic_type,
    stratified_sample,
)
from repro.joinability.coltypes import SemanticType
from repro.joinability.expansion import pair_expansion_ratio
from repro.joinability.index import ColumnProfile
from repro.joinability.labeling import LabeledPair
from repro.joinability.pairs import JoinablePair
from repro.joinability.sampling import (
    KEY_COMBOS,
    PER_SUBBUCKET,
    SIZE_BUCKETS,
    SamplePlan,
    size_bucket,
)


def profile(column_id=0, is_key=False, semantic=SemanticType.CATEGORICAL,
            uniques=20, rows=20):
    return ColumnProfile(
        column_id=column_id,
        table_index=column_id,
        column_name=f"c{column_id}",
        values=frozenset(f"v{i}" for i in range(uniques)),
        is_key=is_key,
        semantic_type=semantic,
        num_rows=rows,
    )


class TestKeyCombination:
    def test_combinations(self):
        key = profile(is_key=True)
        nonkey = profile(is_key=False)
        assert key_combination(key, key) == KEY_KEY
        assert key_combination(key, nonkey) == KEY_NONKEY
        assert key_combination(nonkey, key) == KEY_NONKEY
        assert key_combination(nonkey, nonkey) == NONKEY_NONKEY


class TestPairSemanticType:
    def test_equal_types(self):
        a = profile(semantic=SemanticType.TIMESTAMP)
        assert pair_semantic_type(a, a) is SemanticType.TIMESTAMP

    def test_specific_beats_string(self):
        a = profile(semantic=SemanticType.STRING)
        b = profile(semantic=SemanticType.CATEGORICAL)
        assert pair_semantic_type(a, b) is SemanticType.CATEGORICAL

    def test_incremental_wins(self):
        a = profile(semantic=SemanticType.INCREMENTAL_INTEGER)
        b = profile(semantic=SemanticType.INTEGER)
        assert pair_semantic_type(a, b) is SemanticType.INCREMENTAL_INTEGER


class TestBreakdown:
    def make(self, label, same_dataset=False):
        return LabeledPair(
            pair=JoinablePair(0, 1, 1.0, 10),
            label=label,
            pattern="p",
            same_dataset=same_dataset,
            key_combo=KEY_KEY,
            semantic_type=SemanticType.CATEGORICAL,
            size_bucket="10-100",
            expansion_ratio=1.0,
        )

    def test_fractions(self):
        labeled = [
            self.make(JoinLabel.U_ACC),
            self.make(JoinLabel.R_ACC),
            self.make(JoinLabel.R_ACC),
            self.make(JoinLabel.USEFUL),
        ]
        cell = breakdown(labeled)
        assert cell.total == 4
        assert cell.frac_u_acc == 0.25
        assert cell.frac_r_acc == 0.5
        assert cell.frac_useful == 0.25
        assert cell.frac_accidental == 0.75

    def test_breakdown_by(self):
        labeled = [
            self.make(JoinLabel.USEFUL, same_dataset=True),
            self.make(JoinLabel.U_ACC, same_dataset=False),
        ]
        groups = breakdown_by(labeled, lambda p: p.same_dataset)
        assert groups[True].useful == 1
        assert groups[False].u_acc == 1

    def test_empty_breakdown(self):
        cell = breakdown([])
        assert cell.total == 0
        assert cell.frac_useful == 0.0


class TestOracleOnCorpus:
    @pytest.fixture(scope="class")
    def labeled_ca(self, study):
        return study.portal("CA").labeled_join_sample()

    def test_sample_produced(self, labeled_ca):
        assert len(labeled_ca) >= 20

    def test_incremental_pairs_accidental(self, study):
        """The paper's strongest signal: incremental-integer joins are
        95-100% accidental."""
        pairs = []
        for code in ("CA", "UK", "US"):
            pairs.extend(study.portal(code).labeled_join_sample())
        incremental = [
            p for p in pairs
            if p.semantic_type is SemanticType.INCREMENTAL_INTEGER
        ]
        if incremental:
            accidental = sum(1 for p in incremental if p.label.is_accidental)
            assert accidental / len(incremental) >= 0.9

    def test_majority_accidental(self, study):
        for code in ("CA", "UK", "US"):
            cell = breakdown(study.portal(code).labeled_join_sample())
            assert cell.frac_accidental > 0.5

    def test_intra_dataset_more_useful_than_inter(self, study):
        pairs = []
        for code in ("CA", "UK", "US"):
            pairs.extend(study.portal(code).labeled_join_sample())
        groups = breakdown_by(pairs, lambda p: p.same_dataset)
        if True in groups and False in groups:
            assert groups[True].frac_useful > groups[False].frac_useful

    def test_inter_dataset_useful_pairs_never_u_acc_when_same_dataset(
        self, labeled_ca
    ):
        for pair in labeled_ca:
            if pair.same_dataset:
                # Same-dataset tables are related by construction.
                assert pair.label is not JoinLabel.U_ACC

    def test_patterns_assigned(self, labeled_ca):
        patterns = Counter(p.pattern for p in labeled_ca)
        assert all(isinstance(k, str) and k for k in patterns)


class TestStratifiedSampling:
    def test_subbucket_cap_respected(self, study):
        portal = study.portal("US")
        oracle = LineageOracle.from_recorder(portal.generated.lineage)
        labeled, plan = stratified_sample(
            portal.joinability(), oracle, seed=1, per_subbucket=3
        )
        assert all(count <= 3 for count in plan.filled.values())
        assert len(labeled) == sum(plan.filled.values())

    def test_no_duplicate_pairs(self, study):
        portal = study.portal("US")
        oracle = LineageOracle.from_recorder(portal.generated.lineage)
        labeled, _ = stratified_sample(portal.joinability(), oracle, seed=2)
        keys = [(p.pair.left, p.pair.right) for p in labeled]
        assert len(keys) == len(set(keys))

    def test_same_schema_pairs_excluded(self, study):
        from repro.unionability import schema_fingerprint

        portal = study.portal("UK")
        analysis = portal.joinability()
        for labeled in portal.labeled_join_sample():
            left = analysis.tables[
                analysis.profiles[labeled.pair.left].table_index
            ]
            right = analysis.tables[
                analysis.profiles[labeled.pair.right].table_index
            ]
            assert schema_fingerprint(left.clean) != schema_fingerprint(
                right.clean
            )

    def test_deterministic(self, study):
        portal = study.portal("CA")
        oracle = LineageOracle.from_recorder(portal.generated.lineage)
        a, _ = stratified_sample(portal.joinability(), oracle, seed=9)
        b, _ = stratified_sample(portal.joinability(), oracle, seed=9)
        assert [(p.pair.left, p.pair.right) for p in a] == [
            (p.pair.left, p.pair.right) for p in b
        ]


# ----------------------------------------------------------------------
# Reference: the draw-by-draw sampling loop, which re-groups a column's
# neighbours and re-ranks their Jaccards on every draw and spends its
# whole budget.  It is kept verbatim, less its unused ``max_attempts``
# parameter and its private value-count cache (expansion ratios read the
# analysis's memo), as the oracle for ``stratified_sample``.
# ----------------------------------------------------------------------
def reference_sample(
    analysis,
    oracle,
    seed=0,
    per_subbucket=PER_SUBBUCKET,
):
    rng = random.Random(f"{seed}:{analysis.portal_code}:sample")
    profiles = analysis.profiles
    by_table = _joinable_columns_by_table(analysis)
    joinable_tables = sorted(by_table)
    filled: Counter = Counter()
    seen_pairs: set[tuple[int, int]] = set()
    labeled: list[LabeledPair] = []
    schema_cache: dict[int, tuple] = {}

    target_total = per_subbucket * len(SIZE_BUCKETS) * len(KEY_COMBOS)
    attempts_budget = target_total * 60
    attempts = 0
    while (
        joinable_tables
        and len(labeled) < target_total
        and attempts < attempts_budget
    ):
        attempts += 1
        t1 = rng.choice(joinable_tables)
        column_id = rng.choice(by_table[t1])
        neighbors = analysis.column_neighbors.get(column_id, [])
        if not neighbors:
            continue
        # Group neighbor columns by their table, pick a table uniformly,
        # then the highest-overlap column within it.
        neighbor_tables: dict[int, list[int]] = defaultdict(list)
        for other in neighbors:
            neighbor_tables[profiles[other].table_index].append(other)
        t2 = rng.choice(sorted(neighbor_tables))
        best = max(
            neighbor_tables[t2],
            key=lambda other: _pair_jaccard(analysis, column_id, other),
        )
        left, right = sorted((column_id, best))
        if (left, right) in seen_pairs:
            continue
        if _same_schema(analysis, t1, t2, schema_cache):
            continue
        bucket = size_bucket(profiles[column_id].num_rows)
        if bucket is None:
            continue
        combo = key_combination(profiles[left], profiles[right])
        if filled[(bucket, combo)] >= per_subbucket:
            continue
        pair = _find_pair(analysis, left, right)
        if pair is None:
            continue
        seen_pairs.add((left, right))
        filled[(bucket, combo)] += 1
        judgment = oracle.judge(analysis, pair)
        labeled.append(
            LabeledPair(
                pair=pair,
                label=judgment.label,
                pattern=judgment.pattern,
                same_dataset=(
                    analysis.tables[t1].dataset_id
                    == analysis.tables[t2].dataset_id
                ),
                key_combo=combo,
                semantic_type=pair_semantic_type(
                    profiles[left], profiles[right]
                ),
                size_bucket=bucket,
                expansion_ratio=pair_expansion_ratio(analysis, pair),
            )
        )
    plan = SamplePlan(
        requested_per_subbucket=per_subbucket,
        filled=filled,
        attempts=attempts,
    )
    return labeled, plan


def _joinable_columns_by_table(analysis):
    by_table: dict[int, list[int]] = defaultdict(list)
    for column_id in analysis.column_neighbors:
        by_table[analysis.profiles[column_id].table_index].append(column_id)
    return {table: sorted(columns) for table, columns in by_table.items()}


def _pair_jaccard(analysis, left, right):
    pair = _find_pair(analysis, *sorted((left, right)))
    return pair.jaccard if pair else 0.0


def _find_pair(analysis, left, right):
    index = getattr(analysis, "_pair_index", None)
    if index is None:
        index = {(p.left, p.right): p for p in analysis.pairs}
        analysis._pair_index = index  # lazy cache on the analysis object
    return index.get((left, right))


def _same_schema(analysis, t1, t2, cache):
    return _schema_of(analysis, t1, cache) == _schema_of(analysis, t2, cache)


def _schema_of(analysis, table_index, cache):
    schema = cache.get(table_index)
    if schema is None:
        table = analysis.tables[table_index].clean
        assert table is not None
        schema = tuple(
            (name.lower(), dtype.value) for name, dtype in table.schema()
        )
        cache[table_index] = schema
    return schema


class TestSampleMatchesDrawLoop:
    def test_same_sample_and_draws_stop_early(self, study):
        """Equal samples and sub-bucket counts on every portal of the
        study at both thresholds, three seeds and four sub-bucket sizes;
        the resolved sampler never draws more, and it stops early on at
        least one sample that cannot fill."""
        stopped_early = []
        for code in ("CA", "SG", "UK", "US"):
            portal = study.portal(code)
            oracle = LineageOracle.from_recorder(portal.generated.lineage)
            for threshold, seed, per_subbucket in itertools.product(
                (0.9, 0.7), (3, 4, 5), (1, 2, 3, 17)
            ):
                case = (code, threshold, seed, per_subbucket)
                analysis = portal.joinability(threshold)
                labeled, plan = stratified_sample(
                    analysis, oracle, seed=seed, per_subbucket=per_subbucket
                )
                # A copy takes the reference's pair index, so the shared
                # analysis stays as built.
                expected, expected_plan = reference_sample(
                    dataclasses.replace(analysis), oracle,
                    seed=seed, per_subbucket=per_subbucket,
                )
                assert labeled == expected, case
                assert plan.filled == expected_plan.filled, case
                assert plan.attempts <= expected_plan.attempts, case
                short = len(labeled) < per_subbucket * 9
                if short and plan.attempts < expected_plan.attempts:
                    stopped_early.append(case)
        assert stopped_early
