"""`LakeService`: the query API wrapped in the full robustness ladder.

Request lifecycle (DESIGN.md §12)::

    admission (429/503 + Retry-After)
      -> deadline (per-request op budget; partial result, degraded: true)
        -> circuit breaker per endpoint family
          -> stale-while-revalidate cache (last known good on open circuit)
            -> handler (repro.serve.api)

Every request terminates in exactly one of four *outcomes* —

* ``ok`` — a complete answer (2xx/3xx/4xx as designed; a 404 for an
  unknown id is a correct answer, not a failure);
* ``degraded`` — a 200 whose body is marked ``degraded: true`` (deadline
  truncation) and/or ``stale: true`` (circuit-broken backend served
  from cache);
* ``shed`` — a deliberate refusal: 429 (over rate) or 503 (queue full /
  circuit open with no cached answer), always with ``Retry-After``;
* ``error`` — a 5xx: the backend computation failed and no stale answer
  existed.

The outcome plus the deterministic op cost ride on the
:class:`~repro.serve.api.Response` so the load harness can account for
every injected request.  All timing reads the injected clock, so two
equal-seed harness runs see byte-identical decision sequences.
"""

from __future__ import annotations

import dataclasses

from ..obs.log import get_log
from ..obs.metrics import MetricsRegistry
from ..obs.profile import prof_scope
from ..obs.slo import RequestSample, SloMonitor, SloSpec, default_slos
from ..resilience.breaker import BreakerConfig, CircuitBreaker
from ..resilience.budget import BudgetExceeded, WorkMeter
from ..resilience.clock import SimulatedClock
from ..search.lake import DataLake
from .admission import AdmissionConfig, AdmissionController, Decision
from .api import (
    PROBE_ENDPOINTS,
    QueryApi,
    Request,
    Response,
    canonical_endpoint,
    compute_etag,
    error_body,
    map_exception,
    success_body,
)
from .cache import FRESH, CacheConfig, ResponseCache
from .tracing import (
    RUNG_ADMISSION,
    RUNG_BACKEND,
    RUNG_BREAKER,
    RUNG_CACHE,
    RequestTrail,
    ServeTracer,
)

#: Request outcomes (the load harness's terminal states).
OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"
OUTCOME_ERROR = "error"
OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_SHED, OUTCOME_ERROR)

#: Endpoint families that cache and circuit-break (the expensive ones).
GUARDED_FAMILIES = ("search", "join", "union")

#: Op-count histogram bucket edges for request latency.
LATENCY_BUCKETS = (10, 100, 1_000, 10_000, 100_000)


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the serving robustness ladder."""

    #: Per-request op-count deadline; None disables deadlines.
    deadline_ops: int | None = 50_000
    admission: AdmissionConfig = dataclasses.field(
        default_factory=AdmissionConfig
    )
    cache: CacheConfig = dataclasses.field(default_factory=CacheConfig)
    breaker: BreakerConfig = dataclasses.field(
        default_factory=lambda: BreakerConfig(
            failure_threshold=0.5, window=8, min_calls=4, reset_timeout=30.0
        )
    )
    #: The service-level objectives the error-budget monitor evaluates.
    slo: SloSpec = dataclasses.field(default_factory=default_slos)


class AnnotatedResponse(Response):
    """A response plus the bookkeeping the harness needs."""

    def __init__(
        self, status, body, headers=None, *, outcome: str, ops: int
    ):
        super().__init__(status, body, headers or {})
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "ops", ops)


class LakeService:
    """The served data lake: query API plus the robustness stack."""

    def __init__(
        self,
        study,
        *,
        config: ServiceConfig | None = None,
        clock=None,
        metrics: MetricsRegistry | None = None,
        fault_hook=None,
        tracer=None,
        profiler=None,
    ):
        self.config = config or ServiceConfig()
        self.clock = clock if clock is not None else SimulatedClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._fault_hook = fault_hook
        #: Optional :class:`~repro.obs.profile.Profiler`: request
        #: handlers run under ``serve;<family>`` frames so the load
        #: harness can attribute backend ops per endpoint family.
        self.profiler = profiler
        self.slo = SloMonitor(self.config.slo)
        self._serve_tracer = (
            ServeTracer(tracer)
            if tracer is not None
            else None
        )
        self.lake = DataLake(study, metrics=self.metrics)
        self.api = QueryApi(study, self.lake)
        self.admission = AdmissionController(
            self.config.admission, self.clock, metrics=self.metrics
        )
        self.cache = ResponseCache(
            self.config.cache, self.clock, metrics=self.metrics
        )
        self.breakers = {
            family: CircuitBreaker(family, self.config.breaker, self.clock)
            for family in GUARDED_FAMILIES
        }
        self._study = study
        self._warm(study)

    def _warm(self, study) -> None:
        """Pre-compute the analyses every guarded endpoint serves from.

        Warming at startup makes request cost lookups plus scoring, not
        first-touch analysis storms.  A portal whose analysis fails is
        logged and skipped — the service starts degraded rather than
        not at all.
        """
        for portal in study:
            for stage in ("joinability", "unionability"):
                try:
                    getattr(portal, stage)()
                except Exception as exc:  # noqa: BLE001 — keep serving
                    get_log().warn(
                        "serve-warm-failed",
                        portal=portal.code,
                        stage=stage,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self.metrics.inc("serve.warm.failed")

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _finish(
        self,
        request: Request,
        status: int,
        body: dict | None,
        headers: dict,
        *,
        outcome: str,
        ops: int,
        stale: bool = False,
        trail: RequestTrail | None = None,
    ) -> AnnotatedResponse:
        endpoint = canonical_endpoint(request.path)
        probe = endpoint in PROBE_ENDPOINTS
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.outcome.{outcome}")
        self.metrics.inc(f"serve.endpoint.{endpoint}")
        if not probe:
            # Probes never join the request-ops accounting, the SLO, or
            # the trace — they would dilute every objective and break
            # trace/report/histogram ops reconciliation.
            self.metrics.histogram(
                "serve.request.ops", LATENCY_BUCKETS
            ).observe(ops)
            self.metrics.histogram(
                f"serve.endpoint_ops.{endpoint}", LATENCY_BUCKETS
            ).observe(ops)
            at = self.clock.now()
            self.slo.observe(RequestSample(
                at=at, endpoint=endpoint, outcome=outcome,
                status=status, ops=ops, stale=stale,
            ))
            if self._serve_tracer is not None:
                self._serve_tracer.record(
                    at=at, endpoint=endpoint, client=request.client_id,
                    status=status, outcome=outcome, ops=ops, stale=stale,
                    trail=trail,
                )
        log = get_log()
        (log.debug if probe else log.info)(
            "serve.request",
            endpoint=endpoint,
            outcome=outcome,
            ops=ops,
            status=status,
            client=request.client_id,
        )
        return AnnotatedResponse(
            status, body, headers, outcome=outcome, ops=ops
        )

    def _reject(
        self,
        request: Request,
        status: int,
        message: str,
        retry_after: float,
        trail: RequestTrail | None = None,
    ) -> AnnotatedResponse:
        kind = (
            "Rate Limit Error" if status == 429 else "Service Unavailable"
        )
        return self._finish(
            request,
            status,
            error_body(status, message, kind) | {"retry_after": retry_after},
            {"Retry-After": f"{retry_after:.6g}"},
            outcome=OUTCOME_SHED,
            ops=1,
            trail=trail,
        )

    def _respond(
        self,
        request: Request,
        result: object,
        *,
        degraded: bool,
        stale: bool,
        etag: str,
        ops: int,
        trail: RequestTrail | None = None,
    ) -> AnnotatedResponse:
        outcome = OUTCOME_DEGRADED if (degraded or stale) else OUTCOME_OK
        headers = {"ETag": etag}
        if request.header("if-none-match") == etag:
            return self._finish(
                request, 304, None, headers, outcome=outcome, ops=ops,
                stale=stale, trail=trail,
            )
        body = success_body(result, degraded=degraded, stale=stale)
        return self._finish(
            request, 200, body, headers, outcome=outcome, ops=ops,
            stale=stale, trail=trail,
        )

    @staticmethod
    def cache_key(request: Request) -> str:
        params = "&".join(
            f"{k}={v}" for k, v in sorted(request.params.items())
        )
        return f"{request.path}?{params}"

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> AnnotatedResponse:
        """Admission plus the guarded ladder (the real server's path).

        Synchronous callers occupy their slot for the whole call, so a
        QUEUED admission is promoted immediately — the bounded
        bookkeeping still holds because the adapter serializes entry.
        """
        admission = self.admission.decide(request.client_id)
        rejection = self.admission_response(request, admission)
        if rejection is not None:
            return rejection
        if admission.decision is Decision.QUEUED:
            self.admission.promote()
        try:
            return self.handle_admitted(request, admission)
        finally:
            self.admission.finish()

    def admission_response(
        self, request: Request, admission
    ) -> AnnotatedResponse | None:
        """The rejection response an admission decision maps to, if any.

        Shared by :meth:`handle` and the load harness (which drives the
        queue itself), so both reject with the same body shape and the
        same counters.
        """
        if not admission.rejected:
            return None
        trail = RequestTrail()
        trail.add(
            RUNG_ADMISSION,
            decision=admission.decision.value,
            retry_after=round(admission.retry_after, 6),
        )
        if admission.decision is Decision.RATE_LIMITED:
            return self._reject(
                request,
                429,
                "client over its request budget",
                admission.retry_after,
                trail=trail,
            )
        return self._reject(
            request,
            503,
            "admission queue full",
            admission.retry_after,
            trail=trail,
        )

    def handle_admitted(
        self, request: Request, admission=None
    ) -> AnnotatedResponse:
        """The post-admission ladder: deadline -> breaker -> cache -> work."""
        if request.path == "/healthz":
            return self._healthz(request)
        if request.path == "/statz":
            return self._statz(request)
        trail = RequestTrail()
        trail.add(
            RUNG_ADMISSION,
            decision=(
                admission.decision.value
                if admission is not None
                else Decision.ADMITTED.value
            ),
        )
        route = self.api.routes.get(request.path)
        if route is None:
            return self._finish(
                request,
                404,
                error_body(404, f"no such endpoint: {request.path}",
                           "Not Found Error"),
                {},
                outcome=OUTCOME_OK,
                ops=1,
                trail=trail,
            )
        family, handler = route
        guarded = family in GUARDED_FAMILIES
        key = self.cache_key(request)
        entry = None
        if guarded:
            entry, state = self.cache.lookup(key)
            trail.add(RUNG_CACHE, state=state)
            if state == FRESH:
                return self._respond(
                    request,
                    entry.result,
                    degraded=False,
                    stale=False,
                    etag=entry.etag,
                    ops=1,
                    trail=trail,
                )
        breaker = self.breakers.get(family)
        if breaker is not None and not breaker.allow():
            trail.add(RUNG_BREAKER, family=family, allowed=False)
            if entry is not None:
                self.metrics.inc("serve.stale_served")
                return self._respond(
                    request,
                    entry.result,
                    degraded=True,
                    stale=True,
                    etag=entry.etag,
                    ops=1,
                    trail=trail,
                )
            return self._reject(
                request,
                503,
                f"backend circuit open for {family!r}",
                self.config.breaker.reset_timeout,
                trail=trail,
            )
        if breaker is not None:
            trail.add(RUNG_BREAKER, family=family, allowed=True)
        meter = WorkMeter(
            self.config.deadline_ops,
            metrics=self.metrics,
            profiler=self.profiler,
        )
        truncated_empty = False
        try:
            if self._fault_hook is not None:
                self._fault_hook(request, family)
            with prof_scope(meter, "serve", family):
                result = handler(request, meter)
        except BudgetExceeded:
            # The deadline fired outside a handler's internal partial
            # path: there is no usable partial, but the request still
            # terminates — an empty, clearly-degraded answer.
            result = {}
            truncated_empty = True
        except Exception as exc:  # noqa: BLE001 — mapped, never raised
            return self._handle_failure(
                request, exc, breaker, entry, meter, trail
            )
        if breaker is not None:
            breaker.record_success()
        degraded = truncated_empty or meter.exhausted
        trail.add(
            RUNG_BACKEND, ops=meter.spent, family=family, degraded=degraded
        )
        etag = compute_etag(request.path, result)
        if guarded and not degraded:
            self.cache.store(key, result, etag)
        return self._respond(
            request,
            result,
            degraded=degraded,
            stale=False,
            etag=etag,
            ops=max(1, meter.spent),
            trail=trail,
        )

    def _handle_failure(
        self,
        request: Request,
        exc: Exception,
        breaker: CircuitBreaker | None,
        entry,
        meter: WorkMeter,
        trail: RequestTrail | None = None,
    ) -> AnnotatedResponse:
        """Map a handler exception: JSON error, breaker, stale fallback."""
        mapped = map_exception(exc)
        ops = max(1, meter.spent)
        if trail is not None:
            trail.add(
                RUNG_BACKEND,
                ops=meter.spent,
                error=type(exc).__name__,
                code=mapped.code,
            )
        if mapped.code < 500:
            # A client error is a *correct* answer; the backend worked.
            if breaker is not None:
                breaker.record_success()
            return self._finish(
                request,
                mapped.code,
                error_body(mapped.code, str(mapped), mapped.kind),
                {},
                outcome=OUTCOME_OK,
                ops=ops,
                trail=trail,
            )
        if breaker is not None:
            breaker.record_failure()
        self.metrics.inc("serve.backend_failures")
        if entry is not None:
            self.metrics.inc("serve.stale_served")
            return self._respond(
                request,
                entry.result,
                degraded=True,
                stale=True,
                etag=entry.etag,
                ops=ops,
                trail=trail,
            )
        return self._finish(
            request,
            mapped.code,
            error_body(mapped.code, str(mapped), mapped.kind),
            {},
            outcome=OUTCOME_ERROR,
            ops=ops,
            trail=trail,
        )

    # ------------------------------------------------------------------
    # health and stats
    # ------------------------------------------------------------------
    def _healthz(self, request: Request) -> AnnotatedResponse:
        breakers = {
            name: breaker.state.value
            for name, breaker in sorted(self.breakers.items())
        }
        status = (
            "degraded"
            if any(state != "closed" for state in breakers.values())
            else "ok"
        )
        body = {
            "status": status,
            "portals": self.api.portal_codes,
            "packages": self.api.package_count,
            "breakers": breakers,
        }
        return self._finish(
            request, 200, body, {}, outcome=OUTCOME_OK, ops=1
        )

    def _statz(self, request: Request) -> AnnotatedResponse:
        breakers = {
            name: breaker.state.value
            for name, breaker in sorted(self.breakers.items())
        }
        if request.params.get("raw") in ("1", "true"):
            # The firehose escape hatch: the raw metrics snapshot, as
            # /statz rendered it before the SLO view existed.
            body = {
                "metrics": self.metrics.snapshot(),
                "admission": self.admission.snapshot(),
                "cache": self.cache.snapshot(),
                "breakers": breakers,
            }
        else:
            body = {
                "endpoints": self._endpoint_stats(),
                "slo": self.slo.summary(recent_windows=12),
                "admission": self.admission.snapshot(),
                "cache": self.cache.snapshot(),
                "breakers": breakers,
            }
        return self._finish(
            request, 200, body, {}, outcome=OUTCOME_OK, ops=1
        )

    def _endpoint_stats(self) -> dict:
        """Per-endpoint request counts and ops histograms for /statz."""
        snapshot = self.metrics.snapshot()
        stats: dict[str, dict] = {}
        prefix = "serve.endpoint_ops."
        for name, snap in snapshot.items():
            if name.startswith(prefix):
                endpoint = name[len(prefix):]
                stats[endpoint] = {
                    "requests": int(
                        snapshot.get(
                            f"serve.endpoint.{endpoint}", {}
                        ).get("value", 0)
                    ),
                    "ops": {
                        "bounds": snap["bounds"],
                        "counts": snap["counts"],
                        "count": snap["count"],
                        "sum": snap["sum"],
                    },
                }
        # Probes count requests but never observe an ops histogram:
        # surface their counters too so the table is complete.
        for probe in PROBE_ENDPOINTS:
            counter = snapshot.get(f"serve.endpoint.{probe}")
            if counter is not None:
                stats[probe] = {
                    "requests": int(counter["value"]),
                    "ops": None,
                }
        return dict(sorted(stats.items()))

    # ------------------------------------------------------------------
    # end-of-run telemetry
    # ------------------------------------------------------------------
    def close_telemetry(self) -> None:
        """Seal the run's SLO windows and flush buffered request spans.

        Call once, when the request stream ends (the load harness does;
        the real server on shutdown).  Must precede the observer's own
        ``close()`` so request spans land before the metric block.
        """
        self.slo.finalize()
        if self._serve_tracer is not None:
            self._serve_tracer.close()


__all__ = [
    "AnnotatedResponse",
    "GUARDED_FAMILIES",
    "LATENCY_BUCKETS",
    "LakeService",
    "OUTCOMES",
    "OUTCOME_DEGRADED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_SHED",
    "ServiceConfig",
]
