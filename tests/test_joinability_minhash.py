"""Tests for the MinHash/LSH approximate join search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joinability.lshindex import signature_of_values
from repro.joinability.minhash import (
    _MAX_HASH,
    _MERSENNE,
    LshIndex,
    MinHasher,
    _stable_hash,
    approximate_joinable_pairs,
    estimate_jaccard,
)
from repro.joinability.index import build_profiles
from repro.dataframe import Column, Table
from tests.test_joinability_pairs import wrap

M = _MERSENNE
NUM_PERMS = (1, 4, 64, 128, 256)
EDGE_HASHES = (0, 1, M - 1, M, M + 1, 2 * M, 1 << 63, (1 << 64) - 1)
#: Extreme (a, b) pairs: the largest a*h + b, and sums landing exactly
#: on multiples of M (e.g. a=1, b=0 at h=M), where the final subtract
#: of the packed kernel must fire.
EDGE_COEFFICIENTS = ((1, 0), (1, M - 1), (M - 1, 0), (M - 1, M - 1), (2, M - 2))
HASHERS = {
    (n, family): (
        MinHasher.create(num_perm=n, seed=7)
        if family == "seeded"
        else MinHasher(
            num_perm=n,
            coefficients=tuple(
                EDGE_COEFFICIENTS[i % len(EDGE_COEFFICIENTS)]
                for i in range(n)
            ),
        )
    )
    for n in NUM_PERMS
    for family in ("seeded", "edge")
}
hashes = st.one_of(st.sampled_from(EDGE_HASHES), st.integers(0, (1 << 64) - 1))


def reference_vector(hasher, h):
    """The per-permutation loop the packed kernel replaces."""
    return tuple(((a * h + b) % M) & _MAX_HASH for a, b in hasher.coefficients)


def reference_signature(hasher, values):
    """Per-permutation minimum over the loop vectors of every value."""
    vectors = [reference_vector(hasher, _stable_hash(v)) for v in values]
    if not vectors:
        return (_MAX_HASH,) * hasher.num_perm
    return tuple(min(column) for column in zip(*vectors))


class TestPackedKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        key=st.sampled_from(sorted(HASHERS)),
        h=hashes,
    )
    def test_vector_equals_loop(self, key, h):
        hasher = HASHERS[key]
        assert hasher.vector(h) == reference_vector(hasher, h)

    @settings(max_examples=200, deadline=None)
    @given(
        coefficients=st.lists(
            st.one_of(
                st.sampled_from(EDGE_COEFFICIENTS),
                st.tuples(st.integers(1, M - 1), st.integers(0, M - 1)),
            ),
            min_size=1,
            max_size=8,
        ),
        h=hashes,
    )
    def test_vector_equals_loop_for_any_coefficients(self, coefficients, h):
        hasher = MinHasher(
            num_perm=len(coefficients), coefficients=tuple(coefficients)
        )
        assert hasher.vector(h) == reference_vector(hasher, h)

    @pytest.mark.parametrize("count", [0, 1, 2, 300])
    def test_signatures_equal_loop(self, count):
        values = frozenset(f"v{i}" for i in range(count))
        for num_perm in NUM_PERMS:
            hasher = HASHERS[(num_perm, "seeded")]
            expected = reference_signature(hasher, values)
            assert hasher.signature(values) == expected
            assert signature_of_values(values, hasher) == expected
            memo = {}
            assert signature_of_values(values, hasher, memo) == expected
            assert set(memo) == values
            # A warm memo serves every vector without hashing.
            assert signature_of_values(values, hasher, memo) == expected


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
