"""Integration tests: resilient crawls through the §2.2 pipeline.

Covers the ISSUE 1 acceptance criteria: retry recovery on flaky
corpora, bit-for-bit seed equivalence with retries disabled,
byte-identical retry provenance under a fixed seed, and journal-based
resume after a mid-portal kill (verified via ``requests_made``).
"""

import datetime

import pytest

from repro.generator import SG_PROFILE, flaky_profile, generate_portal
from repro.ingest.pipeline import FetchOutcome, IngestReport, ingest_portal
from repro.portal import (
    BlobStore,
    CkanApi,
    FailureMode,
    HttpClient,
    TransientFault,
)
from repro.portal.models import Dataset, MetadataKind, Portal, Resource
from repro.resilience import (
    CrawlJournal,
    ResilientHttpClient,
    RetryPolicy,
)

#: The config identity the crawl journals below are written under.
FINGERPRINT = {"seed": 5, "max_retries": 2}


def flaky_portal():
    """A hand-built portal with permanent, transient, and truncated faults."""
    store = BlobStore()
    resources = []

    def add(rid, build):
        url = f"https://flaky.sim/{rid}"
        resources.append(Resource(rid, rid, "CSV", url))
        build(url)

    add("good", lambda url: store.put(url, b"a,b\n1,2\n3,4\n"))
    add("gone", lambda url: store.put_failure(url, FailureMode.GONE))
    add("flaky429", lambda url: store.put_transient(
        url, b"a,b\n5,6\n7,8\n",
        TransientFault(FailureMode.RATE_LIMITED, failures=2, retry_after=1.0),
    ))
    add("flaky503", lambda url: store.put_transient(
        url, b"a,b\n9,8\n7,6\n",
        TransientFault(FailureMode.UNAVAILABLE, failures=1, retry_after=0.5),
    ))
    add("flaky-timeout", lambda url: store.put_transient(
        url, b"a,b\n2,4\n6,8\n",
        TransientFault(FailureMode.TIMEOUT, failures=1),
    ))
    add("cut", lambda url: store.put_truncated(
        url, b"a,b\n1,2\n3,4\n5,6\n7,8\n", truncate_at=12,
    ))

    dataset = Dataset(
        dataset_id="d1",
        title="t",
        description="",
        topic="x",
        organization="o",
        published=datetime.date(2020, 1, 1),
        metadata_kind=MetadataKind.LACKING,
        resources=tuple(resources),
    )
    return Portal(code="XX", name="Flaky", datasets=[dataset]), store


def summarize(report: IngestReport) -> tuple:
    """Canonical comparison key over everything the report asserts."""
    return (
        report.portal_code,
        report.total_datasets,
        report.total_declared_tables,
        report.downloadable_tables,
        report.readable_tables,
        tuple(sorted(
            (outcome.name, count)
            for outcome, count in report.outcome_counts.items()
        )),
        tuple(sorted(report.tables_per_dataset.items())),
        tuple(
            (
                t.resource_id, t.name, t.header_index, t.degraded,
                t.raw.num_rows, t.raw.num_columns,
                t.clean.num_rows if t.clean else None,
                t.clean.column_names if t.clean else None,
            )
            for t in report.tables
        ),
        report.resilience.provenance_key(),
    )


class TestSingleShotOnFlakyPortal:
    def test_transients_lost_without_retries(self):
        portal, store = flaky_portal()
        report = ingest_portal(CkanApi(portal), HttpClient(store))
        # Single shot: all three transient resources fail their first
        # attempt, so only good + cut count as downloadable.
        assert report.downloadable_tables == 2
        assert report.outcome_counts[FetchOutcome.NOT_DOWNLOADABLE] == 4
        assert report.resilience.max_retries == 0
        assert report.resilience.recovered_after_retry == 0
        assert all(
            attempts == 1
            for attempts
            in report.resilience.attempts_per_resource.values()
        )

    def test_truncated_without_retries_is_degraded(self):
        portal, store = flaky_portal()
        report = ingest_portal(CkanApi(portal), HttpClient(store))
        cut = next(t for t in report.tables if t.resource_id == "cut")
        assert cut.degraded
        assert report.outcome_counts[FetchOutcome.DEGRADED] == 1
        assert report.resilience.degraded_tables == 1


class TestRetriesOnFlakyPortal:
    @pytest.fixture()
    def report(self):
        portal, store = flaky_portal()
        client = ResilientHttpClient(
            HttpClient(store), policy=RetryPolicy(max_retries=3), seed=3
        )
        return ingest_portal(CkanApi(portal), client)

    def test_retries_recover_transient_resources(self, report):
        assert report.downloadable_tables == 5  # all but the 410
        assert report.resilience.recovered_after_retry == 3
        assert report.outcome_counts[FetchOutcome.READABLE] == 4
        assert report.outcome_counts[FetchOutcome.DEGRADED] == 1
        assert report.outcome_counts[FetchOutcome.NOT_DOWNLOADABLE] == 1

    def test_attempt_provenance_recorded(self, report):
        attempts = report.resilience.attempts_per_resource
        assert attempts["good"] == 1
        assert attempts["gone"] == 1  # permanent: never retried
        assert attempts["flaky429"] == 3
        assert attempts["flaky503"] == 2
        assert attempts["flaky-timeout"] == 2
        # The persistently truncated body burns the whole budget.
        assert attempts["cut"] == 4
        assert report.resilience.total_attempts == 13
        assert report.resilience.retried_resources == 4
        assert report.resilience.simulated_wait_seconds > 0.0

    def test_degraded_table_still_analyzable(self, report):
        cut = next(t for t in report.tables if t.resource_id == "cut")
        assert cut.degraded and cut.analyzable
        assert cut.clean.column_names == ("a", "b")

    def test_provenance_byte_identical_across_crawls(self):
        def crawl():
            portal, store = flaky_portal()
            client = ResilientHttpClient(
                HttpClient(store),
                policy=RetryPolicy(max_retries=3),
                seed=3,
            )
            return ingest_portal(CkanApi(portal), client)

        first, second = crawl(), crawl()
        assert (
            repr(first.resilience.provenance_key())
            == repr(second.resilience.provenance_key())
        )
        assert summarize(first) == summarize(second)


class TestSeedEquivalence:
    def test_wrapped_client_reproduces_plain_crawl(self):
        """max_retries=0 through the resilient layer == the seed crawl."""
        generated = generate_portal(SG_PROFILE, seed=3, scale=0.08)

        plain_client = HttpClient(generated.store)
        plain = ingest_portal(CkanApi(generated.portal), plain_client)

        wrapped_inner = HttpClient(generated.store)
        wrapped = ingest_portal(
            CkanApi(generated.portal),
            ResilientHttpClient(wrapped_inner, policy=RetryPolicy()),
        )
        assert summarize(plain) == summarize(wrapped)
        assert plain_client.requests_made == wrapped_inner.requests_made

    def test_default_profiles_have_no_transient_faults(self):
        assert SG_PROFILE.transient_rate == 0.0
        assert SG_PROFILE.truncated_rate == 0.0


class TestFlakyGeneratedCorpus:
    @pytest.fixture(scope="class")
    def generated(self):
        profile = flaky_profile(
            SG_PROFILE, transient_rate=0.3, truncated_rate=0.05
        )
        return generate_portal(profile, seed=3, scale=0.12)

    def test_retries_beat_single_shot(self, generated):
        single = ingest_portal(
            CkanApi(generated.portal), HttpClient(generated.store)
        )
        retried = ingest_portal(
            CkanApi(generated.portal),
            ResilientHttpClient(
                HttpClient(generated.store),
                policy=RetryPolicy(max_retries=3),
                seed=3,
            ),
        )
        assert retried.resilience.recovered_after_retry > 0
        assert retried.downloadable_tables > single.downloadable_tables
        assert retried.readable_tables > single.readable_tables

    def test_deterministic_retry_provenance(self, generated):
        def crawl():
            return ingest_portal(
                CkanApi(generated.portal),
                ResilientHttpClient(
                    HttpClient(generated.store),
                    policy=RetryPolicy(max_retries=2),
                    seed=7,
                ),
            )

        assert summarize(crawl()) == summarize(crawl())


class CrawlKilled(RuntimeError):
    """Simulates the crawler process dying mid-portal."""


class DyingHttpClient(HttpClient):
    """Transport that dies after a fixed request budget."""

    def __init__(self, store, budget: int):
        super().__init__(store)
        self.budget = budget

    def fetch(self, url):
        if self.requests_made >= self.budget:
            raise CrawlKilled(f"crawler killed after {self.budget} requests")
        return super().fetch(url)


class TestCheckpointResume:
    def build_portal(self):
        profile = flaky_profile(
            SG_PROFILE, transient_rate=0.25, truncated_rate=0.04
        )
        return generate_portal(profile, seed=5, scale=0.08)

    def crawl_client(self, store, budget=None):
        inner = (
            HttpClient(store)
            if budget is None
            else DyingHttpClient(store, budget)
        )
        return inner, ResilientHttpClient(
            inner, policy=RetryPolicy(max_retries=2), seed=5
        )

    def test_killed_crawl_resumes_without_refetching(self, tmp_path):
        generated = self.build_portal()
        api = CkanApi(generated.portal)

        # Reference: one uninterrupted crawl (no journal involved).
        ref_inner, ref_client = self.crawl_client(generated.store)
        reference = ingest_portal(api, ref_client)
        total_requests = ref_inner.requests_made

        # Crawl 1: dies mid-portal, checkpointing as it goes.
        budget = total_requests // 2
        journal_path = tmp_path / "crawl.jsonl"
        dying_inner, dying_client = self.crawl_client(
            generated.store, budget=budget
        )
        with CrawlJournal(journal_path, FINGERPRINT) as journal:
            with pytest.raises(CrawlKilled):
                ingest_portal(api, dying_client, journal=journal)
        checkpointed = {
            entry.resource_id
            for entry in CrawlJournal(journal_path, FINGERPRINT)
        }
        assert 0 < len(checkpointed) < reference.total_declared_tables

        # Crawl 2: resumes from the journal with a fresh client.
        resume_inner, resume_client = self.crawl_client(generated.store)
        with CrawlJournal(journal_path, FINGERPRINT) as journal:
            resumed = ingest_portal(api, resume_client, journal=journal)

        # Identical report, including retry provenance...
        assert summarize(resumed)[:-1] == summarize(reference)[:-1]
        ref_prov = reference.resilience
        res_prov = resumed.resilience
        assert (
            res_prov.attempts_per_resource == ref_prov.attempts_per_resource
        )
        assert res_prov.recovered_after_retry == ref_prov.recovered_after_retry
        assert res_prov.degraded_tables == ref_prov.degraded_tables
        assert res_prov.simulated_wait_seconds == pytest.approx(
            ref_prov.simulated_wait_seconds
        )
        assert res_prov.resumed_resources == len(checkpointed)

        # ...and completed resources were never re-fetched: the resumed
        # client spent requests only on resources absent from the journal.
        expected_requests = sum(
            attempts
            for resource_id, attempts
            in ref_prov.attempts_per_resource.items()
            if resource_id not in checkpointed
        )
        assert resume_inner.requests_made == expected_requests
        assert resume_inner.requests_made < total_requests

    def test_resumed_requests_only_cover_unfinished_resources(self, tmp_path):
        generated = self.build_portal()
        api = CkanApi(generated.portal)

        ref_inner, ref_client = self.crawl_client(generated.store)
        reference = ingest_portal(api, ref_client)

        journal_path = tmp_path / "crawl.jsonl"
        budget = ref_inner.requests_made // 3
        _, dying_client = self.crawl_client(generated.store, budget=budget)
        with CrawlJournal(journal_path, FINGERPRINT) as journal:
            with pytest.raises(CrawlKilled):
                ingest_portal(api, dying_client, journal=journal)

        checkpointed = {
            entry.resource_id
            for entry in CrawlJournal(journal_path, FINGERPRINT)
        }
        expected_requests = sum(
            attempts
            for resource_id, attempts
            in reference.resilience.attempts_per_resource.items()
            if resource_id not in checkpointed
        )
        resume_inner, resume_client = self.crawl_client(generated.store)
        with CrawlJournal(journal_path, FINGERPRINT) as journal:
            ingest_portal(api, resume_client, journal=journal)
        assert resume_inner.requests_made == expected_requests
