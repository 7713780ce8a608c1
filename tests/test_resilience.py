"""Unit tests for the resilient crawl layer (repro.resilience)."""

import pathlib
import random

import pytest

from repro.portal import (
    BlobStore,
    FailureMode,
    HttpClient,
    TransientFault,
)
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    CircuitState,
    CrawlJournal,
    JournalEntry,
    RateLimitConfig,
    ResilientHttpClient,
    RetryPolicy,
    SimulatedClock,
    TokenBucket,
    host_of,
)


class TestSimulatedClock:
    def test_sleep_advances(self):
        clock = SimulatedClock()
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.now() == 2.0
        assert clock.total_slept == 2.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().sleep(-1.0)

    def test_advance_to_never_goes_backwards(self):
        clock = SimulatedClock(start=10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0


class TestRetryPolicy:
    def test_zero_retries_is_single_shot(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0
        assert policy.max_attempts == 1

    def test_retryable_statuses(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.is_retryable(-1)  # timeout sentinel
        assert policy.is_retryable(429)
        assert policy.is_retryable(503)
        assert not policy.is_retryable(404)
        assert not policy.is_retryable(410)
        assert not policy.is_retryable(500)
        assert not policy.is_retryable(200)

    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff(i, rng) for i in range(4)]
        assert delays == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_capped_at_max_delay(self):
        policy = RetryPolicy(
            max_retries=10, base_delay=1.0, multiplier=10.0,
            max_delay=5.0, jitter=0.0,
        )
        assert policy.backoff(6, random.Random(0)) == 5.0

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(max_retries=1, base_delay=0.1, jitter=0.0)
        assert policy.backoff(0, random.Random(0), retry_after=9.0) == 9.0

    def test_jitter_deterministic_under_seed(self):
        policy = RetryPolicy(max_retries=3, jitter=0.5)
        a = [policy.backoff(i, random.Random(42)) for i in range(3)]
        b = [policy.backoff(i, random.Random(42)) for i in range(3)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = SimulatedClock()
        bucket = TokenBucket(RateLimitConfig(rate=2.0, capacity=3.0), clock)
        waits = []
        for _ in range(5):
            wait = bucket.reserve()
            waits.append(wait)
            clock.sleep(wait)
        # Three free burst tokens, then 0.5 s per token at rate 2/s.
        assert waits[:3] == [0.0, 0.0, 0.0]
        assert waits[3] == pytest.approx(0.5)
        assert waits[4] == pytest.approx(0.5)

    def test_refills_while_idle(self):
        clock = SimulatedClock()
        bucket = TokenBucket(RateLimitConfig(rate=1.0, capacity=1.0), clock)
        assert bucket.reserve() == 0.0
        clock.sleep(10.0)  # plenty of idle time refills the bucket
        assert bucket.reserve() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimitConfig(rate=0.0)


class TestCircuitBreaker:
    def make(self, clock=None, **overrides):
        config = BreakerConfig(
            failure_threshold=0.5,
            window=4,
            min_calls=4,
            reset_timeout=30.0,
            **overrides,
        )
        clock = clock or SimulatedClock()
        return CircuitBreaker("portal.example", config, clock), clock

    def test_opens_at_failure_rate_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED  # 1/3 < 0.5, <min_calls
        breaker.record_failure()  # window full: 2/4 failures
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_half_open_probe_closes_on_success(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        clock.sleep(30.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_reopens_on_failure(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.sleep(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_events_record_transitions_with_timestamps(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.sleep(30.0)
        breaker.allow()
        breaker.record_success()
        states = [event.state for event in breaker.events]
        assert states == [
            CircuitState.OPEN, CircuitState.HALF_OPEN, CircuitState.CLOSED,
        ]
        assert [event.at for event in breaker.events] == [0.0, 30.0, 30.0]


def flaky_store():
    store = BlobStore()
    store.put("https://portal.sim/ok", b"a,b\n1,2\n")
    store.put_transient(
        "https://portal.sim/flaky429",
        b"a,b\n3,4\n",
        TransientFault(FailureMode.RATE_LIMITED, failures=2, retry_after=2.0),
    )
    store.put_transient(
        "https://portal.sim/flaky-timeout",
        b"a,b\n5,6\n",
        TransientFault(FailureMode.TIMEOUT, failures=1),
    )
    store.put_truncated(
        "https://portal.sim/cut", b"a,b\n1,2\n3,4\n5,6\n", truncate_at=8
    )
    store.put_failure("https://portal.sim/gone", FailureMode.GONE)
    return store


class TestResilientHttpClient:
    def test_host_extraction(self):
        assert host_of("https://portal.sim/x/y.csv") == "portal.sim"
        assert host_of("portal.sim/x") == "portal.sim"

    def test_default_wrap_is_single_shot(self):
        inner = HttpClient(flaky_store())
        client = ResilientHttpClient(inner)
        result = client.fetch("https://portal.sim/flaky429")
        assert result.attempts == 1
        assert not result.ok  # no retries: the transient 429 stands
        assert inner.requests_made == 1
        assert client.clock.now() == 0.0  # nothing ever waited

    def test_retries_recover_transient_faults(self):
        client = ResilientHttpClient(
            HttpClient(flaky_store()), policy=RetryPolicy(max_retries=3)
        )
        result = client.fetch("https://portal.sim/flaky429")
        assert result.ok and result.recovered
        assert result.attempts == 3
        # Retry-After (2.0 s) floors both backoff delays.
        assert result.waited >= 4.0

    def test_timeout_recovers_too(self):
        client = ResilientHttpClient(
            HttpClient(flaky_store()), policy=RetryPolicy(max_retries=1)
        )
        result = client.fetch("https://portal.sim/flaky-timeout")
        assert result.ok and result.recovered and result.attempts == 2

    def test_permanent_failures_not_retried(self):
        inner = HttpClient(flaky_store())
        client = ResilientHttpClient(inner, policy=RetryPolicy(max_retries=5))
        result = client.fetch("https://portal.sim/gone")
        assert result.attempts == 1
        assert result.response.status == 410
        assert inner.requests_made == 1

    def test_truncated_body_retried_then_kept_degraded(self):
        client = ResilientHttpClient(
            HttpClient(flaky_store()), policy=RetryPolicy(max_retries=2)
        )
        result = client.fetch("https://portal.sim/cut")
        assert result.attempts == 3  # truncation is worth retrying
        assert result.ok and result.truncated
        assert not result.recovered  # still degraded, not a recovery

    def test_retry_budget_exhausted(self):
        client = ResilientHttpClient(
            HttpClient(flaky_store()), policy=RetryPolicy(max_retries=1)
        )
        result = client.fetch("https://portal.sim/flaky429")
        assert result.attempts == 2 and not result.ok

    def test_retry_schedule_independent_of_crawl_order(self):
        urls = [
            "https://portal.sim/flaky429",
            "https://portal.sim/flaky-timeout",
        ]

        def waits(order):
            client = ResilientHttpClient(
                HttpClient(flaky_store()),
                policy=RetryPolicy(max_retries=3),
                seed=11,
            )
            return {url: client.fetch(url).waited for url in order}

        assert waits(urls) == waits(list(reversed(urls)))

    def test_circuit_opens_and_skips_then_half_opens(self):
        store = BlobStore()
        for index in range(6):
            store.put_transient(
                f"https://down.sim/r{index}",
                b"a,b\n1,2\n",
                TransientFault(FailureMode.UNAVAILABLE, failures=9),
            )
        client = ResilientHttpClient(
            HttpClient(store),
            policy=RetryPolicy(max_retries=1, base_delay=1.0, jitter=0.0),
            breaker_config=BreakerConfig(
                failure_threshold=0.5, window=4, min_calls=2,
                reset_timeout=5.0,
            ),
        )
        first = client.fetch("https://down.sim/r0")
        second = client.fetch("https://down.sim/r1")
        assert not first.ok and not second.ok
        skipped = client.fetch("https://down.sim/r2")
        assert skipped.circuit_skipped and skipped.attempts == 0
        assert skipped.response is None
        # Simulated cool-down elapses: the next fetch is the probe.
        client.clock.sleep(5.0)
        probe = client.fetch("https://down.sim/r3")
        assert not probe.circuit_skipped and probe.attempts > 0
        events = client.circuit_events()
        assert [event.state for event in events][:2] == [
            CircuitState.OPEN, CircuitState.HALF_OPEN,
        ]

    def test_rate_limiter_spends_simulated_time(self):
        store = BlobStore()
        for index in range(8):
            store.put(f"https://portal.sim/r{index}", b"a,b\n1,2\n")
        client = ResilientHttpClient(
            HttpClient(store),
            rate_limit=RateLimitConfig(rate=1.0, capacity=2.0),
        )
        results = [
            client.fetch(f"https://portal.sim/r{index}") for index in range(8)
        ]
        assert all(result.ok for result in results)
        # 2 burst tokens, then 1 request per simulated second.
        assert client.clock.now() == pytest.approx(6.0)

    def test_no_real_clock_or_unseeded_randomness_in_layer(self):
        # The acceptance criteria forbid time.time()/random.random() in
        # the resilience layer: all timing must run on the simulated
        # clock and all jitter on seeded RNGs.
        package = (
            pathlib.Path(__file__).resolve().parents[1]
            / "src" / "repro" / "resilience"
        )
        forbidden = (
            "time.time(", "time.sleep(", "perf_counter", "monotonic(",
            "datetime.now", "random.random()", "import time",
        )
        for source_file in sorted(package.glob("*.py")):
            text = source_file.read_text(encoding="utf-8")
            for needle in forbidden:
                assert needle not in text, (
                    f"{source_file.name} uses forbidden {needle!r}"
                )


class TestCrawlJournal:
    def entry(self, resource_id="r1", payload=b"a,b\n1,2\n"):
        return JournalEntry(
            resource_id=resource_id,
            url=f"https://portal.sim/{resource_id}",
            outcome="READABLE",
            attempts=2,
            recovered=True,
            circuit_skipped=False,
            truncated=False,
            waited=1.25,
            payload=payload,
        )

    def test_roundtrip_through_json(self):
        entry = self.entry()
        assert JournalEntry.from_json(entry.to_json()) == entry

    def test_entry_without_payload_roundtrips(self):
        entry = self.entry(payload=None)
        assert JournalEntry.from_json(entry.to_json()) == entry

    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CrawlJournal(path) as journal:
            journal.record(self.entry("r1"))
            journal.record(self.entry("r2", payload=None))
        reloaded = CrawlJournal(path)
        assert len(reloaded) == 2
        assert "r1" in reloaded and "r2" in reloaded
        assert reloaded.get("r1").payload == b"a,b\n1,2\n"
        assert reloaded.get("missing") is None

    def test_entries_survive_partial_trailing_write(self, tmp_path):
        # A process killed mid-write leaves a torn last line; the
        # journal still loads every complete entry before it, and the
        # torn resource is simply re-fetched on resume.
        path = tmp_path / "journal.jsonl"
        with CrawlJournal(path) as journal:
            journal.record(self.entry("r1"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"resource_id": "r2", "trunc')
        reloaded = CrawlJournal(path)
        assert len(reloaded) == 1
        assert "r1" in reloaded and "r2" not in reloaded
