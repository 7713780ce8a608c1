"""Tests for the serving robustness ladder (repro.serve.service).

Each class exercises one rung against the shared study: admission
(rate limit, bounded queue, shed), per-request deadlines (degraded
partials), the per-family circuit breaker, and the
stale-while-revalidate cache fallback.  Every response a scenario gets
is also checked against the served-bytes oracle
(:func:`assert_canonical`).
"""

import dataclasses
import json
import random

import pytest

from repro.resilience.breaker import BreakerConfig
from repro.resilience.clock import SimulatedClock
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    Decision,
)
from repro.serve import api
from repro.serve.api import Request, compute_etag
from repro.serve.cache import FRESH, MISS, STALE, CacheConfig, ResponseCache
from repro.serve.loadgen import _RequestFactory
from repro.serve.service import (
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_SHED,
    LakeService,
    ServiceConfig,
)


def make_service(study, *, fault_hook=None, **overrides):
    config = ServiceConfig(
        breaker=BreakerConfig(
            failure_threshold=0.5, window=8, min_calls=4, reset_timeout=30.0
        ),
        **overrides,
    )
    return LakeService(study, config=config, fault_hook=fault_hook)


def search_request(client="c1", q="fisheries"):
    return Request("/lake_search", {"q": q, "limit": "5"}, {}, client)


def assert_canonical(request, response):
    """The served-bytes oracle: the bytes are ``json.dumps`` of the body
    (empty for a 304), and a success answer carries them already
    encoded, under the one ETag definition over its result."""
    body = response.body
    expected = (
        b""
        if body is None
        else (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
    )
    assert response.to_bytes() == expected
    success = body is not None and body.get("success") is True
    assert (response.encoded is not None) == success
    if success:
        assert response.etag == compute_etag(
            request.path, json.dumps(body["result"], sort_keys=True)
        )


@pytest.fixture(scope="module")
def service(study):
    """A shared service for tests that don't mutate breaker state."""
    return make_service(study)


class TestAdmissionController:
    def make(self, **overrides):
        defaults = dict(
            concurrency=2, queue_depth=2, client_rate=10.0, client_burst=2.0
        )
        defaults.update(overrides)
        clock = SimulatedClock()
        return AdmissionController(AdmissionConfig(**defaults), clock), clock

    def test_slots_then_queue_then_shed(self):
        controller, _ = self.make()
        decisions = [
            controller.decide(f"client-{i}").decision for i in range(5)
        ]
        assert decisions == [
            Decision.ADMITTED,
            Decision.ADMITTED,
            Decision.QUEUED,
            Decision.QUEUED,
            Decision.SHED,
        ]
        assert controller.within_bounds()

    def test_shed_carries_retry_after(self):
        controller, _ = self.make(queue_depth=0, concurrency=1)
        controller.decide("a")
        shed = controller.decide("b")
        assert shed.decision is Decision.SHED
        assert shed.rejected
        assert shed.retry_after == 1.0

    def test_client_over_rate_gets_429_without_losing_tokens(self):
        controller, clock = self.make()
        assert controller.decide("hog").decision is Decision.ADMITTED
        controller.finish()
        assert controller.decide("hog").decision is Decision.ADMITTED
        controller.finish()
        # Burst of 2 exhausted; the next probe is rejected but must not
        # consume future capacity.
        rejected = controller.decide("hog")
        assert rejected.decision is Decision.RATE_LIMITED
        assert rejected.retry_after > 0
        clock.sleep(rejected.retry_after)
        assert controller.decide("hog").decision is Decision.ADMITTED

    def test_rate_limit_is_per_client(self):
        controller, _ = self.make()
        controller.decide("hog")
        controller.finish()
        controller.decide("hog")
        controller.finish()
        assert controller.decide("hog").decision is Decision.RATE_LIMITED
        assert controller.decide("polite").decision is Decision.ADMITTED

    def test_promote_and_finish_guards(self):
        controller, _ = self.make(concurrency=1, queue_depth=1)
        with pytest.raises(RuntimeError):
            controller.promote()
        with pytest.raises(RuntimeError):
            controller.finish()
        controller.decide("a")
        controller.decide("b")  # queued
        with pytest.raises(RuntimeError):
            controller.promote()  # no free slot
        controller.finish()
        controller.promote()
        assert controller.in_flight == 1 and controller.queued == 0


class TestResponseCache:
    def make(self, **overrides):
        defaults = dict(fresh_ttl=10.0, stale_ttl=100.0, max_entries=2)
        defaults.update(overrides)
        clock = SimulatedClock()
        return ResponseCache(CacheConfig(**defaults), clock), clock

    def test_miss_fresh_stale_expired_lifecycle(self):
        cache, clock = self.make()
        assert cache.lookup("k") == (None, MISS)
        cache.store("k", {"n": 1}, '{"n": 1}', 'W/"a"')
        entry, state = cache.lookup("k")
        assert state == FRESH and entry.result == {"n": 1}
        assert entry.text == '{"n": 1}'
        clock.sleep(50.0)
        entry, state = cache.lookup("k")
        assert state == STALE and entry.etag == 'W/"a"'
        clock.sleep(100.0)
        assert cache.lookup("k") == (None, MISS)
        assert len(cache) == 0

    def test_lru_eviction_is_deterministic(self):
        cache, _ = self.make()
        cache.store("a", 1, "1", "ea")
        cache.store("b", 2, "2", "eb")
        cache.lookup("a")  # refresh a's recency
        cache.store("c", 3, "3", "ec")
        assert cache.lookup("b") == (None, MISS)
        assert cache.lookup("a")[1] == FRESH
        assert cache.lookup("c")[1] == FRESH

    def test_store_overwrites(self):
        cache, _ = self.make()
        cache.store("k", 1, "1", "e1")
        cache.store("k", 2, "2", "e2")
        entry, _ = cache.lookup("k")
        assert (entry.result, entry.text, entry.etag) == (2, "2", "e2")


class TestServiceRequestPath:
    def test_healthz_reports_portals(self, service):
        request = Request("/healthz", {}, {}, "probe")
        response = service.handle(request)
        assert_canonical(request, response)
        assert response.status == 200
        assert response.outcome == OUTCOME_OK
        assert response.body["status"] == "ok"
        assert set(response.body["breakers"]) == {"search", "join", "union"}
        assert response.body["packages"] > 0

    def test_statz_exposes_slo_and_endpoints(self, service):
        service.handle(Request("/api/3/action/package_list", {}, {}, "c1"))
        request = Request("/statz", {}, {}, "probe")
        response = service.handle(request)
        assert_canonical(request, response)
        assert response.status == 200
        assert "in_flight" in response.body["admission"]
        assert response.body["slo"]["verdict"] in ("OK", "BURNING", "EXHAUSTED")
        endpoints = response.body["endpoints"]
        assert endpoints["package_list"]["requests"] == 1
        assert endpoints["package_list"]["ops"]["count"] == 1

    def test_statz_raw_escape_hatch(self, service):
        response = service.handle(
            Request("/statz", {"raw": "1"}, {}, "probe")
        )
        assert response.status == 200
        assert "serve.requests" in response.body["metrics"]
        assert "slo" not in response.body

    def test_unknown_endpoint_404_is_ok_outcome(self, service):
        request = Request("/nope", {}, {}, "probe")
        response = service.handle(request)
        assert_canonical(request, response)
        assert response.status == 404
        assert response.outcome == OUTCOME_OK
        assert response.body["success"] is False

    def test_unknown_package_404_regression(self, service):
        response = service.handle(
            Request(
                "/api/3/action/package_show", {"id": "SG:ghost"}, {}, "probe"
            )
        )
        assert response.status == 404
        assert response.outcome == OUTCOME_OK
        assert response.body["error"]["__type"] == "Not Found Error"
        assert "ghost" in response.body["error"]["message"]

    def test_unknown_resource_404_regression(self, service):
        response = service.handle(
            Request(
                "/join_suggest",
                {"portal": "US", "resource": "ghost"},
                {},
                "probe",
            )
        )
        assert response.status == 404
        assert "ghost" in response.body["error"]["message"]

    def test_search_round_trip_with_etag_304(self, service):
        first = service.handle(search_request("etag-client"))
        assert_canonical(search_request(), first)
        assert first.status == 200
        assert first.body["success"] is True
        assert first.body["degraded"] is False
        etag = first.etag
        assert etag
        second = service.handle(
            Request(
                "/lake_search",
                {"q": "fisheries", "limit": "5"},
                {"If-None-Match": etag},
                "etag-client",
            )
        )
        assert second.status == 304
        assert second.body is None
        assert second.etag == etag
        assert_canonical(search_request(), second)

    def test_repeat_query_served_from_fresh_cache(self, study):
        service = make_service(study)
        miss = service.handle(search_request("cache-client"))
        repeat = service.handle(search_request("cache-client"))
        assert repeat.ops == 1  # a lookup, not a recomputation
        assert service.metrics.value("serve.cache.hit") >= 1
        assert_canonical(search_request(), miss)
        assert_canonical(search_request(), repeat)
        assert repeat.to_bytes() == miss.to_bytes()
        assert repeat.etag == miss.etag

    def test_cache_key_keeps_distinct_parameters_apart(self, study):
        # Joined as "k=v&k=v", both requests keyed as
        # "/lake_search?limit=1&q=school", so the second was served the
        # first's cached 200 instead of its own 400.
        service = make_service(study)
        split = Request("/lake_search", {"limit": "1", "q": "school"})
        packed = Request("/lake_search", {"limit": "1&q=school"})
        assert service.cache_key(split) != service.cache_key(packed)
        assert service.handle(split).status == 200
        rejected = service.handle(packed)
        assert rejected.status == 400
        assert rejected.body["error"]["__type"] == "Validation Error"
        assert_canonical(packed, rejected)

    def test_rate_limited_client_sheds_with_retry_after(self, study):
        service = make_service(
            study,
            admission=AdmissionConfig(client_rate=5.0, client_burst=2.0),
        )
        outcomes = [
            service.handle(
                Request("/healthz", {}, {}, "hammer")
            ).outcome
            for _ in range(4)
        ]
        assert outcomes[:2] == [OUTCOME_OK, OUTCOME_OK]
        assert OUTCOME_SHED in outcomes[2:]
        shed = service.handle(Request("/healthz", {}, {}, "hammer"))
        assert shed.status == 429
        assert shed.retry_after > 0
        assert shed.body["error"]["__type"] == "Rate Limit Error"
        assert_canonical(Request("/healthz"), shed)


class TestDeadlineDegradation:
    def test_tight_deadline_marks_degraded_partial(self, study):
        service = make_service(study, deadline_ops=5)
        request = Request(
            "/api/3/action/package_list", {"limit": "100"}, {}, "c1"
        )
        response = service.handle(request)
        assert_canonical(request, response)
        assert response.status == 200
        assert response.outcome == OUTCOME_DEGRADED
        assert response.body["degraded"] is True
        # The partial page is a correct prefix of the full listing.
        assert len(response.body["result"]["packages"]) == 5
        assert service.metrics.value("serve.outcome.degraded") == 1

    def test_deadline_without_a_partial_answers_empty(self, study):
        # package_show has no partial path: the deadline escapes the
        # handler and the answer is an empty, degraded result.
        service = make_service(study, deadline_ops=1)
        request = Request(
            "/api/3/action/package_show", {"id": "CA:ca-doc-00001"}, {}, "c1"
        )
        response = service.handle(request)
        assert response.status == 200
        assert response.outcome == OUTCOME_DEGRADED
        assert response.body["result"] == {}
        assert_canonical(request, response)

    def test_degraded_results_are_not_cached(self, study):
        # A one-op deadline exhausts on any multi-posting query; the
        # partial answer must not poison the cache for later clients.
        service = make_service(study, deadline_ops=1)
        response = service.handle(
            search_request("c1", q="waste collection")
        )
        assert response.outcome == OUTCOME_DEGRADED
        assert len(service.cache) == 0

    def test_unlimited_deadline_never_degrades(self, study):
        service = make_service(study, deadline_ops=None)
        response = service.handle(
            Request(
                "/api/3/action/package_list", {"limit": "1000"}, {}, "c1"
            )
        )
        assert response.outcome == OUTCOME_OK
        assert response.ops > 1


class FailFamilies:
    """A fault hook failing every call of the chosen families."""

    def __init__(self, families):
        self.families = families
        self.calls = 0

    def __call__(self, request, family):
        if family in self.families:
            self.calls += 1
            raise RuntimeError(f"injected {family} fault #{self.calls}")


class TestBreakerAndStaleFallback:
    def test_backend_failures_open_breaker_then_shed(self, study):
        hook = FailFamilies({"search"})
        service = make_service(study, fault_hook=hook)
        # First failures surface as 500s (no cached fallback exists).
        responses = [
            service.handle(search_request(f"c{i}")) for i in range(6)
        ]
        assert responses[0].status == 500
        assert responses[0].outcome == OUTCOME_ERROR
        assert_canonical(search_request(), responses[0])
        assert service.breakers["search"].state.value == "open"
        # Once open, requests are refused without invoking the backend.
        calls_before = hook.calls
        refused = service.handle(search_request("c9"))
        assert refused.status == 503
        assert refused.outcome == OUTCOME_SHED
        assert refused.retry_after == 30.0
        assert hook.calls == calls_before
        assert_canonical(search_request(), refused)

    def test_open_breaker_serves_stale_cached_answer(self, study):
        service = make_service(study)
        # Populate the cache while healthy, then let it go stale.
        healthy = service.handle(search_request("c1"))
        assert healthy.body["degraded"] is False
        service.clock.sleep(service.config.cache.fresh_ttl + 1.0)
        # Break the backend and trip the breaker on a *different* key.
        service._fault_hook = FailFamilies({"search"})
        for i in range(6):
            service.handle(search_request(f"c{i}", q="tax filings"))
        assert service.breakers["search"].state.value == "open"
        stale = service.handle(search_request("c9"))
        assert stale.status == 200
        assert stale.outcome == OUTCOME_DEGRADED
        assert stale.body["stale"] is True
        assert stale.body["degraded"] is True
        assert stale.body["result"] == healthy.body["result"]
        assert service.metrics.value("serve.stale_served") >= 1
        assert stale.etag == healthy.etag
        assert_canonical(search_request(), stale)

    def test_backend_failure_with_stale_entry_degrades_not_errors(
        self, study
    ):
        service = make_service(study)
        service.handle(search_request("c1"))
        service.clock.sleep(service.config.cache.fresh_ttl + 1.0)
        service._fault_hook = FailFamilies({"search"})
        response = service.handle(search_request("c2"))
        assert response.status == 200
        assert response.outcome == OUTCOME_DEGRADED
        assert response.body["stale"] is True
        assert_canonical(search_request(), response)

    def test_stale_entry_revalidates_when_backend_is_healthy(self, study):
        service = make_service(study)
        first = service.handle(search_request("c1"))
        service.clock.sleep(service.config.cache.fresh_ttl + 1.0)
        revalidated = service.handle(search_request("c2"))
        assert service.metrics.value("serve.cache.stale") == 1
        assert revalidated.ops > 1  # recomputed, not served from cache
        assert revalidated.outcome == OUTCOME_OK
        assert "stale" not in revalidated.body
        assert_canonical(search_request(), revalidated)
        assert revalidated.to_bytes() == first.to_bytes()
        hit = service.handle(search_request("c3"))
        assert hit.ops == 1
        assert_canonical(search_request(), hit)

    def test_breaker_recovers_after_reset_timeout(self, study):
        hook = FailFamilies({"search"})
        service = make_service(study, fault_hook=hook)
        for i in range(6):
            service.handle(search_request(f"c{i}"))
        assert service.breakers["search"].state.value == "open"
        service._fault_hook = None  # backend healed
        service.clock.sleep(service.config.breaker.reset_timeout + 1.0)
        probe = service.handle(search_request("c9", q="energy"))
        assert probe.status == 200
        assert service.breakers["search"].state.value == "closed"

    def test_client_errors_do_not_trip_breaker(self, study):
        service = make_service(study)
        for i in range(10):
            service.handle(
                Request(
                    "/join_suggest",
                    {"portal": "US", "resource": f"ghost-{i}"},
                    {},
                    f"c{i}",
                )
            )
        assert service.breakers["join"].state.value == "closed"

    def test_families_fail_independently(self, study):
        service = make_service(study, fault_hook=FailFamilies({"join"}))
        search = service.handle(search_request("c1"))
        assert search.status == 200
        assert service.breakers["search"].state.value == "closed"


class TestOutcomeAccounting:
    def test_every_request_terminates_in_one_outcome(self, study):
        service = make_service(study, deadline_ops=5)
        requests = [
            Request("/healthz", {}, {}, "a"),
            Request("/nope", {}, {}, "a"),
            Request("/api/3/action/package_list", {"limit": "50"}, {}, "b"),
            Request("/api/3/action/package_show", {"id": "XX:d"}, {}, "b"),
            search_request("c"),
        ]
        for request in requests:
            response = service.handle(request)
            assert response.outcome in (
                OUTCOME_OK,
                OUTCOME_DEGRADED,
                OUTCOME_SHED,
                OUTCOME_ERROR,
            )
        assert service.metrics.value("serve.requests") == len(requests)
        total = sum(
            service.metrics.value(f"serve.outcome.{o}")
            for o in ("ok", "degraded", "shed", "error")
        )
        assert total == len(requests)

    def test_ops_through_handle_are_pinned(self, study):
        """The op pin of ``handle``, the path the HTTP server takes (the
        load harness drives admission and the ladder itself).  Exact,
        like every op pin: a change that moves these says so."""
        service = make_service(study)
        requests = [
            Request("/api/3/action/package_list", {"limit": "3"}, {}, "a"),
            Request(
                "/api/3/action/package_show",
                {"id": "CA:ca-doc-00001"},
                {},
                "a",
            ),
            Request(
                "/api/3/action/package_search", {"q": "fisheries"}, {}, "b"
            ),
            search_request("b"),
            search_request("c"),  # a fresh cache hit
            Request("/nope", {}, {}, "c"),
        ]
        responses = [service.handle(request) for request in requests]
        assert [(r.status, r.ops) for r in responses] == [
            (200, 3), (200, 2), (200, 14), (200, 2), (200, 1), (404, 1),
        ]
        ops = {
            name: service.metrics.value(name)
            for name in service.metrics.snapshot()
            if name.startswith("ops.")
        }
        assert ops == {"ops.search.score": 4, "ops.serve.catalog": 17}

    def test_config_is_frozen(self, service):
        with pytest.raises(dataclasses.FrozenInstanceError):
            service.config.deadline_ops = 1


class ScriptedOutage:
    """A fault hook failing every guarded family while ``down`` is set."""

    def __init__(self):
        self.down = False

    def __call__(self, request, family):
        if self.down:
            raise RuntimeError(f"scripted {family} outage")


class TestServedBytes:
    """Every answer ``LakeService`` emits passes the served-bytes oracle."""

    #: Request kinds of the load harness's factory, plus an unknown path
    #: and a malformed parameter.
    KINDS = (
        "lake_search", "lake_search", "join_suggest", "union_suggest",
        "package_search", "package_list", "package_show", "missing_package",
        "healthz", "statz", "nope", "bad_limit",
    )

    def scripted_walk(self, study, requests=600, seed=31):
        """Requests over a recurring key set, with clock jumps across the
        fresh, stale and expired windows, scripted backend outages and
        ``If-None-Match`` replays of each key's last ETag."""
        outage = ScriptedOutage()
        service = make_service(study, fault_hook=outage)
        factory = _RequestFactory(service, 5)
        rng = random.Random(seed)
        last_etag = {}
        for _ in range(requests):
            service.clock.sleep(
                rng.choices((0.5, 5.0, 40.0, 700.0), (40, 40, 15, 1))[0]
            )
            if rng.random() < 0.05:
                outage.down = not outage.down
            kind = rng.choice(self.KINDS)
            if kind in ("healthz", "statz", "nope"):
                request = Request(f"/{kind}", {}, {}, "walker")
            elif kind == "bad_limit":
                request = Request("/lake_search", {"limit": "x"}, {}, "walker")
            else:
                request = factory(rng, kind, "walker")
            key = service.cache_key(request)
            if key in last_etag and rng.random() < 0.3:
                request = dataclasses.replace(
                    request, headers={"If-None-Match": last_etag[key]}
                )
            response = service.handle(request)
            yield service, request, response
            if response.status == 200 and response.etag:
                last_etag[key] = response.etag

    def test_scripted_walk_serves_canonical_bytes(self, study):
        statuses = set()
        kinds = set()
        for service, request, response in self.scripted_walk(study):
            assert_canonical(request, response)
            statuses.add(response.status)
            if response.status == 304:
                assert response.etag == request.header("if-none-match")
            elif response.status == 200 and response.body.get("success"):
                kinds.add(
                    "stale" if response.body.get("stale")
                    else "hit" if response.ops == 1
                    else "computed"
                )
        assert {200, 304, 400, 404, 500, 503} <= statuses
        assert kinds == {"computed", "hit", "stale"}
        counts = {
            name: service.metrics.value(name)
            for name in ("serve.cache.hit", "serve.cache.stale",
                         "serve.cache.expired", "serve.stale_served")
        }
        assert all(counts.values()), counts

    def test_fresh_hit_does_no_json_work(self, study, monkeypatch):
        service = make_service(study)
        dumped = []
        real_dumps = json.dumps

        def counting_dumps(obj, **kwargs):
            dumped.append(obj)
            return real_dumps(obj, **kwargs)

        monkeypatch.setattr(api.json, "dumps", counting_dumps)
        computed = service.handle(search_request("c1"))
        assert [obj for obj in dumped if not isinstance(obj, str)] == [
            computed.body["result"]
        ]
        dumped.clear()
        hit = service.handle(search_request("c1"))
        assert hit.to_bytes() == computed.to_bytes()
        assert dumped == []
