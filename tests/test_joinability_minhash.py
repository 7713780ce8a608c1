"""Tests for the MinHash/LSH approximate join search."""

import pytest

from repro.joinability.minhash import (
    LshIndex,
    MinHasher,
    approximate_joinable_pairs,
    estimate_jaccard,
)
from repro.joinability.index import build_profiles
from repro.dataframe import Column, Table
from tests.test_joinability_pairs import wrap


class TestMinHash:
    def test_identical_sets_estimate_one(self):
        hasher = MinHasher.create(num_perm=64)
        values = [f"v{i}" for i in range(100)]
        assert estimate_jaccard(
            hasher.signature(values), hasher.signature(values)
        ) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        hasher = MinHasher.create(num_perm=128)
        a = hasher.signature([f"a{i}" for i in range(100)])
        b = hasher.signature([f"b{i}" for i in range(100)])
        assert estimate_jaccard(a, b) < 0.15

    def test_estimate_tracks_true_jaccard(self):
        hasher = MinHasher.create(num_perm=256)
        base = [f"v{i}" for i in range(100)]
        overlapping = base[:80] + [f"w{i}" for i in range(20)]
        true_jaccard = 80 / 120
        estimate = estimate_jaccard(
            hasher.signature(base), hasher.signature(overlapping)
        )
        assert abs(estimate - true_jaccard) < 0.12

    def test_signature_deterministic(self):
        hasher = MinHasher.create(num_perm=32, seed=5)
        values = ["x", "y", "z"]
        assert hasher.signature(values) == hasher.signature(values)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_jaccard((1, 2), (1,))

    def test_empty_set(self):
        hasher = MinHasher.create(num_perm=16)
        signature = hasher.signature([])
        assert len(signature) == 16

    def test_coefficients_derived_from_sha256_stream(self):
        """Pinned values: the hasher must be stable across Python
        versions (persisted index signatures depend on it), so the
        coefficients come from sha256, not ``random.Random``."""
        import hashlib

        from repro.joinability.minhash import _MERSENNE

        hasher = MinHasher.create(num_perm=4, seed=9)
        for i, (a, b) in enumerate(hasher.coefficients):
            digest = hashlib.sha256(f"minhash:9:{i}".encode()).digest()
            assert a == int.from_bytes(digest[:16], "big") % (_MERSENNE - 1) + 1
            assert b == int.from_bytes(digest[16:], "big") % _MERSENNE


class TestLshIndex:
    def test_near_duplicates_bucketed_together(self):
        hasher = MinHasher.create(num_perm=128)
        index = LshIndex(hasher=hasher, bands=32)
        base = [f"v{i}" for i in range(200)]
        index.add(0, base)
        index.add(1, base[:195] + [f"x{i}" for i in range(5)])
        index.add(2, [f"z{i}" for i in range(200)])
        pairs = index.candidate_pairs()
        assert (0, 1) in pairs
        assert (0, 2) not in pairs and (1, 2) not in pairs


class TestApproximateSearch:
    def test_recall_against_exact(self):
        shared = [f"v{i}" for i in range(60)]
        tables = []
        for i in range(5):
            tables.append(
                wrap(
                    Table(f"t{i}", [Column("a", list(shared))]),
                    resource=f"r{i}",
                )
            )
        tables.append(
            wrap(
                Table("odd", [Column("a", [f"o{i}" for i in range(60)])]),
                resource="odd",
            )
        )
        profiles, _ = build_profiles(tables)
        approx = approximate_joinable_pairs(profiles, threshold=0.8)
        found = {(l, r) for l, r, _ in approx}
        expected = {(i, j) for i in range(5) for j in range(i + 1, 5)}
        assert expected <= found
        assert all("odd" not in (profiles[l].column_name,) for l, r, _ in approx)
