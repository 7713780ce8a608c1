"""Unit/integration tests for repro.generator.portal_gen."""

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.generator import generate_portal, poison_profile
from repro.generator.lineage import PublicationStyle
from repro.generator.profiles import (
    ALL_PROFILES,
    CA_PROFILE,
    PROFILES_BY_CODE,
    SG_PROFILE,
    US_PROFILE,
)
from repro.portal import MetadataKind


@pytest.fixture(scope="module")
def ca():
    return generate_portal(CA_PROFILE, seed=5, scale=0.25)


class TestGeneration:
    def test_table_target_reached(self, ca):
        target = round(CA_PROFILE.table_target * 0.25)
        assert len(ca.lineage) >= target

    def test_lineage_covers_stored_csv_tables(self, ca):
        from repro.portal.magic import detect_mime

        for dataset in ca.portal.datasets:
            for resource in dataset.csv_resources:
                blob = ca.store.get(resource.url)
                assert blob is not None
                if blob.ok and detect_mime(blob.content) == "text/csv":
                    # Masquerading payloads (declared CSV, actually
                    # HTML/PDF) are deliberately lineage-free.
                    lineage = ca.lineage.maybe_get(resource.resource_id)
                    assert lineage is not None
                    assert lineage.dataset_id == dataset.dataset_id

    def test_undownloadable_resources_recorded_as_failures(self, ca):
        failures = 0
        for dataset in ca.portal.datasets:
            for resource in dataset.csv_resources:
                blob = ca.store.get(resource.url)
                if blob is not None and not blob.ok:
                    failures += 1
        # CA's downloadable rate is 0.41: the majority must fail.
        assert failures > len(ca.lineage)

    def test_plain_datasets_have_no_csv(self, ca):
        plain = [
            d for d in ca.portal.datasets if d.dataset_id.startswith("ca-doc-")
        ]
        assert plain, "CA profile should generate document-only datasets"
        assert all(not d.csv_resources for d in plain)

    def test_metadata_kinds_follow_mix(self, ca):
        kinds = {d.metadata_kind for d in ca.portal.datasets}
        assert MetadataKind.LACKING in kinds

    def test_publication_dates_in_window(self, ca):
        years = {d.published.year for d in ca.portal.datasets}
        assert years <= set(range(2017, 2023))

    def test_determinism(self):
        a = generate_portal(SG_PROFILE, seed=11, scale=0.2)
        b = generate_portal(SG_PROFILE, seed=11, scale=0.2)
        assert [d.dataset_id for d in a.portal.datasets] == [
            d.dataset_id for d in b.portal.datasets
        ]
        urls = [
            r.url for d in a.portal.datasets for r in d.resources
        ]
        for url in urls[:50]:
            blob_a, blob_b = a.store.get(url), b.store.get(url)
            assert (blob_a is None) == (blob_b is None)
            if blob_a is not None and blob_a.ok:
                assert blob_a.content == b.store.get(url).content

    def test_different_seeds_differ(self):
        a = generate_portal(SG_PROFILE, seed=1, scale=0.2)
        b = generate_portal(SG_PROFILE, seed=2, scale=0.2)
        a_bytes = a.store.total_bytes()
        assert a_bytes != b.store.total_bytes()


class TestDuplicates:
    def test_us_duplicates_recorded(self):
        us = generate_portal(US_PROFILE, seed=5, scale=0.3)
        duplicates = [
            record for record in us.lineage if record.duplicate_of is not None
        ]
        assert duplicates
        for record in duplicates:
            assert record.style is PublicationStyle.DUPLICATE
            original = us.lineage.maybe_get(record.duplicate_of)
            assert original is not None
            # Same bytes published under a different dataset.
            assert record.dataset_id != original.dataset_id

    def test_sg_has_no_duplicates(self):
        sg = generate_portal(SG_PROFILE, seed=5, scale=0.3)
        assert all(r.duplicate_of is None for r in sg.lineage)


class TestProfiles:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.code)
    def test_style_weights_valid(self, profile):
        assert profile.style_weights
        assert all(w > 0 for w in profile.style_weights.values())

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.code)
    def test_metadata_mix_sums_to_one(self, profile):
        assert sum(profile.metadata_mix) == pytest.approx(1.0)

    def test_sg_is_cleanest(self):
        sg = SG_PROFILE.corruption
        ca = CA_PROFILE.corruption
        assert sg.column_null_probability < ca.column_null_probability
        assert sg.wide_malformed_probability == 0.0


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"no JSON form for {type(value).__name__}")


def corpus_digest(generated) -> str:
    """sha256 over one generated portal: catalog, blobs, lineage.

    In order: every catalog dataset with its resources, every stored
    blob by URL (content, failure mode, transient fault, declared
    length), then every lineage record.
    """
    digest = hashlib.sha256()

    def feed(*parts):
        digest.update(
            json.dumps(parts, default=_plain, sort_keys=True).encode()
        )
        digest.update(b"\n")

    for dataset in generated.portal.datasets:
        feed(
            dataset.dataset_id,
            dataset.title,
            dataset.description,
            dataset.topic,
            dataset.organization,
            dataset.published.isoformat(),
            dataset.metadata_kind,
            [
                (r.resource_id, r.name, r.declared_format, r.url)
                for r in dataset.resources
            ],
        )
    store = generated.store
    for url in sorted(store._blobs):
        blob = store.get(url)
        fault = blob.transient
        feed(
            url,
            hashlib.sha256(blob.content).hexdigest(),
            blob.failure,
            None
            if fault is None
            else (fault.mode, fault.failures, fault.retry_after),
            blob.declared_length,
        )
    for lineage in generated.lineage:
        feed(dataclasses.asdict(lineage))
    return digest.hexdigest()


#: The corpus the tier-1 study builds (scale 0.18, seed 3) and the
#: poisoned portals of ``make smoke-shard`` (scale 0.08, seed 2, poison
#: rate 0.1), one digest per portal.  The generator's oracle: a change
#: that moves the corpus on purpose updates these and says so.
PINNED_DIGESTS = {
    ("SG", 0.18, 3, 0.0):
        "2be71d7bada0faf3727ceaa75e04143122fd04d26bac9478498734c7baa3b57f",
    ("CA", 0.18, 3, 0.0):
        "320f4b7307f88c333a74b1df55b1484caa90bef3cbef0b5d68b00627b4cc1b89",
    ("UK", 0.18, 3, 0.0):
        "99a25c0c643e5364b20081d95d9aa216bbbd0e1cd32cec592d96ce477f01b370",
    ("US", 0.18, 3, 0.0):
        "3e879891d90459d452b3ded11fbc89676d2b365d9f5193fc82e824d171831381",
    ("SG", 0.08, 2, 0.1):
        "a884f002ecf7d5453d25c36267fe9231fe320e8315aab9d8b95700ca7a6c5ff1",
    ("CA", 0.08, 2, 0.1):
        "41d8b15acbdd7ff2bce4d85bbf14588f20b4639c15a35db7c485f565d1452f72",
    ("UK", 0.08, 2, 0.1):
        "535ca80e7fda42a4afc4563c8608c1d9d1cf726910013ebf83ca0f12dee2f268",
    ("US", 0.08, 2, 0.1):
        "d049ced296f0e57721989b352b4b063d6df7b7285e6b749a1f01ef3c07cfac98",
}


class TestCorpusPin:
    @pytest.mark.parametrize(
        "code, scale, seed, poison",
        sorted(PINNED_DIGESTS),
        ids=str,
    )
    def test_portal_digest_is_pinned(self, code, scale, seed, poison):
        profile = PROFILES_BY_CODE[code]
        if poison:
            profile = poison_profile(profile, poison)
        generated = generate_portal(profile, seed=seed, scale=scale)
        assert corpus_digest(generated) == PINNED_DIGESTS[
            (code, scale, seed, poison)
        ]
