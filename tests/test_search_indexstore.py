"""Tests for the persistent join index artifact (repro.search.indexstore)."""

from __future__ import annotations

import json

from repro.core.config import StudyConfig
from repro.joinability.pairs import JoinablePair
from repro.search.indexstore import (
    HIT,
    INDEX_VERSION,
    MISS,
    STALE,
    JoinIndexStore,
    StoredJoinIndex,
    index_fingerprint,
)

CONFIG = StudyConfig(scale=0.08, seed=2)


def make_index(fingerprint, pairs=None):
    return StoredJoinIndex(
        portal_code="CA",
        threshold=0.9,
        fingerprint=fingerprint,
        pairs=tuple(
            pairs
            if pairs is not None
            else [
                JoinablePair(left=0, right=3, jaccard=18 / 20, overlap=18),
                JoinablePair(left=1, right=2, jaccard=1.0, overlap=40),
            ]
        ),
        column_check=(20, 40, 40, 18),
        counters={"pairs": 2},
    )


class TestFingerprint:
    def test_covers_corpus_and_geometry(self):
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        assert fp["version"] == INDEX_VERSION
        assert fp["portal"] == "CA"
        assert fp["threshold"] == 0.9
        assert fp["seed"] == 2
        assert fp["scale"] == 0.08
        assert fp["min_unique"] == 10
        # Version 2: no MinHash geometry, since no signature feeds the
        # pair search.
        assert INDEX_VERSION == 2
        assert set(fp) == {
            "version", "portal", "threshold", "seed", "scale", "min_unique"
        }

    def test_differs_across_seeds(self):
        other = StudyConfig(scale=0.08, seed=3)
        assert index_fingerprint(CONFIG, "CA", 0.9) != index_fingerprint(
            other, "CA", 0.9
        )


class TestRoundTrip:
    def test_save_then_load_hit(self, tmp_path):
        store = JoinIndexStore(tmp_path / "idx")
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        saved = make_index(fp)
        store.save(saved)
        loaded = store.load("CA", 0.9, fp)
        assert loaded.status == HIT
        assert loaded.index.pairs == saved.pairs
        assert loaded.index.column_check == saved.column_check
        # Floats survive the JSON round trip exactly (repr round-trip).
        assert loaded.index.pairs[0].jaccard == 18 / 20

    def test_save_is_atomic(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        path = store.save(make_index(fp))
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_overwrite_replaces(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        store.save(make_index(fp))
        store.save(make_index(fp, pairs=[]))
        loaded = store.load("CA", 0.9, fp)
        assert loaded.status == HIT
        assert loaded.index.pairs == ()


class TestLoadFailures:
    def test_absent_is_miss(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        result = store.load("CA", 0.9, fp)
        assert result.status == MISS
        assert result.reason == "absent"

    def test_fingerprint_mismatch_is_stale(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        store.save(make_index(fp))
        other = index_fingerprint(StudyConfig(scale=0.08, seed=9), "CA", 0.9)
        assert store.load("CA", 0.9, other).status == STALE

    def test_version_bump_is_stale(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        path = store.save(make_index(fp))
        document = json.loads(path.read_text(encoding="utf-8"))
        document["version"] = INDEX_VERSION + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        result = store.load("CA", 0.9, fp)
        assert result.status == STALE
        assert "version" in result.reason

    def test_torn_file_is_miss(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        path = store.save(make_index(fp))
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        result = store.load("CA", 0.9, fp)
        assert result.status == MISS
        assert result.reason.startswith("torn")

    def test_wrong_shape_is_miss(self, tmp_path):
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        path = store.path("CA", 0.9)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "version": INDEX_VERSION,
                    "fingerprint": fp,
                    "pairs": [[0]],  # malformed row
                    "column_check": [1],
                }
            ),
            encoding="utf-8",
        )
        assert store.load("CA", 0.9, fp).status == MISS

    def test_torn_file_salvaged_by_resave(self, tmp_path):
        """The self-healing cycle: torn -> miss -> rebuild -> hit."""
        store = JoinIndexStore(tmp_path)
        fp = index_fingerprint(CONFIG, "CA", 0.9)
        path = store.save(make_index(fp))
        path.write_text("{\"version\": 1, \"trunc", encoding="utf-8")
        assert store.load("CA", 0.9, fp).status == MISS
        store.save(make_index(fp))
        assert store.load("CA", 0.9, fp).status == HIT
